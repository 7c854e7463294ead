// FuzzEnv: RtEnv with seeded schedule perturbation at every Env primitive
// boundary — the real-thread forced-yield fuzzing backend.
//
// ReplayEnv re-executes recorded sim interleavings over hardware atomics,
// but it is single-threaded by construction: cross-thread timing effects
// the step model cannot express (store buffering visible through the
// compiled code, preemption inside an algorithm's read-compute-write
// window, cache-line ping-pong reordering) are never exercised. FuzzEnv
// closes that gap from the other side: real threads run the SAME
// single-source algorithm bodies, and a per-thread seeded injector forces a
// scheduling perturbation — std::this_thread::yield() bursts or spin
// backoff — around each shared-memory primitive. On the small core counts
// CI offers, a yield at a primitive boundary is precisely what hands the
// OS-level scheduler a chance to interleave another thread into the window
// the simulator would explore as a step boundary, so seed sweeps reach
// interleavings plain stress loops rarely hit (tests/test_fuzz_rt.cpp
// demonstrates this with a positive-control broken object).
//
// Design: FuzzEnv is RtEnvT<YieldInjector> — RtEnv's cell types, atomic
// bodies, eager frame-arena Op/Sub tasks and execute-at-call discipline
// (detail::Done in env.h), with the probe hook running
// YieldInjector::point() immediately before and after each atomic access,
// inside the primitive call. Algorithms instantiate unchanged; the injector
// is thread_local and costs one predictable branch when disarmed, so a
// disarmed FuzzEnv behaves exactly like RtEnv (modulo that branch).
//
// The injector is DETERMINISTIC per (seed, thread): the decision stream
// comes from util::Xoshiro256, so a failing (seed, workload) pair is
// re-runnable — though on real threads a replay is best-effort, which is
// why harnesses reproduce failures in the step model and persist them as
// ScheduleTrace literals instead (docs/TESTING.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "env/rt_env.h"
#include "util/rng.h"

namespace hi::env {

/// How aggressively the injector perturbs each primitive boundary.
struct YieldPolicy {
  std::uint32_t permille = 300;   // perturbation probability per point, ‰
  std::uint32_t max_yields = 3;   // yield() burst length, 1..max
  std::uint32_t max_spins = 48;   // spin backoff length, 1..max
};

/// Shared release gate for stalled threads. A stalled thread is the
/// real-thread approximation of a crashed process: it parks at a primitive
/// boundary for the remainder of the measured run — but a pthread cannot
/// literally die mid-operation and still be joined, so it parks on this
/// gate and the harness releases it after the survivors finish (or after a
/// watchdog fires), letting every thread drain and join. Progress and HI
/// assertions run BEFORE release_all(), while the stalled threads are
/// indistinguishable from crashed ones.
struct StallGate {
  std::atomic<bool> release{false};
  std::atomic<int> stalled{0};  // threads currently parked at the gate

  void release_all() { release.store(true, std::memory_order_release); }
};

/// Per-thread seeded perturbation source. Harness threads arm() it with a
/// per-(iteration, thread) seed before driving operations and disarm() it
/// after; FuzzEnv primitives call point() unconditionally.
///
/// Stall injection (arm_stall): in addition to the yield/spin perturbation,
/// a thread may be armed to park on a StallGate at its `stall_after`-th
/// primitive boundary of the run — the seeded stalled-process adversary.
/// Which boundary that ordinal lands on follows the thread's own execution
/// path (retry loops included), so a seed sweep stalls threads at CAS
/// retries, between announce and install, mid-combining-scan, ...
class YieldInjector {
 public:
  static void arm(std::uint64_t seed, YieldPolicy policy = {}) {
    State& s = state();
    s.rng = util::Xoshiro256(seed);
    s.policy = policy;
    s.armed = true;
    s.points = 0;
    s.injected = 0;
    s.gate = nullptr;
    s.stall_after = 0;
    s.stall_done = false;
  }

  /// Park this thread on `gate` once it has passed `stall_after` further
  /// primitive boundaries (0 = park at the very next one). Call after
  /// arm(); cleared by arm()/disarm(). The park happens once per arm.
  static void arm_stall(StallGate* gate, std::uint64_t stall_after) {
    State& s = state();
    s.gate = gate;
    s.stall_after = s.points + stall_after;
    s.stall_done = false;
  }

  static void disarm() {
    State& s = state();
    s.armed = false;
    s.gate = nullptr;
  }

  /// Primitive boundaries seen since arm() on this thread.
  static std::uint64_t points() { return state().points; }
  /// Perturbations (yield bursts + spin backoffs) actually injected.
  static std::uint64_t injected() { return state().injected; }

  /// One perturbation point — FuzzEnv's probe hook, called by every
  /// primitive immediately before and after its atomic access.
  static void point() {
    State& s = state();
    if (!s.armed) return;
    ++s.points;
    if (s.gate != nullptr && !s.stall_done && s.points > s.stall_after) {
      // Stall: park here until the harness opens the gate. From every other
      // thread's perspective this thread has crash-failed at this primitive
      // boundary; after release it resumes normally (drain-and-join phase,
      // excluded from assertions).
      s.stall_done = true;
      s.gate->stalled.fetch_add(1, std::memory_order_acq_rel);
      while (!s.gate->release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return;
    }
    if (s.rng.next_below(1000) >= s.policy.permille) return;
    ++s.injected;
    if (s.rng.chance(1, 2)) {
      const std::uint64_t bursts = 1 + s.rng.next_below(s.policy.max_yields);
      for (std::uint64_t i = 0; i < bursts; ++i) std::this_thread::yield();
    } else {
      const std::uint64_t spins = 1 + s.rng.next_below(s.policy.max_spins);
      for (std::uint64_t i = 0; i < spins; ++i) {
        // Empty asm keeps the busy-wait from being optimized away without
        // the deprecated `volatile` induction variable.
        asm volatile("");
      }
    }
  }

 private:
  struct State {
    util::Xoshiro256 rng{1};
    YieldPolicy policy;
    bool armed = false;
    std::uint64_t points = 0;
    std::uint64_t injected = 0;
    StallGate* gate = nullptr;       // non-null: stall armed for this run
    std::uint64_t stall_after = 0;   // park once points exceeds this
    bool stall_done = false;         // the one-shot park already happened
  };

  static State& state() {
    static thread_local State s;
    return s;
  }
};

/// RtEnv with YieldInjector::point() bracketing every primitive: the same
/// storage, task types and atomic bodies, so any algo-layer body
/// instantiates over FuzzEnv unchanged and interoperates with RtEnv storage.
using FuzzEnv = RtEnvT<YieldInjector>;

static_assert(ExecutionEnv<FuzzEnv>);

}  // namespace hi::env
