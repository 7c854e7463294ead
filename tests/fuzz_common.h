// Shared fixtures for the real-thread yield-fuzzing suite
// (test_fuzz_rt.cpp) and the DPOR explorer suite (test_explorer_dpor.cpp):
//
//  - NaiveCounterSpec + BrokenCounterAlg<Env>: the positive-control object.
//    inc() is a deliberately non-atomic read-then-write over one shared
//    word, so two concurrent incs can both return the same value — a
//    linearizability violation the fuzzer must catch on real threads and
//    the explorer must reproduce in the step model. Single-source over the
//    Env abstraction like every real algorithm, so the SAME broken body
//    runs under FuzzEnv (the rt catch) and SimEnv (the reproduce + shrink).
//
//  - RtHistoryRecorder: builds a verify::History from real-thread
//    executions. Each operation is bracketed by fetch_adds on one global
//    seq_cst clock; after the threads join, events are sorted by timestamp
//    and replayed into History::invoke/respond. The clock ticks BEFORE the
//    invocation's first primitive and AFTER the response's last primitive,
//    so the recorded real-time precedence relation is a subset of the true
//    one — any linearizability violation the checker reports on the
//    recorded history is a genuine violation of the execution.
//
//  - run_fuzz_threads: barrier-released worker threads, each arming
//    env::YieldInjector with a per-(seed, pid) stream so a failing
//    iteration is identified by one seed.
//
//  - dump_failing_trace: persists a failing-trace artifact under
//    $HI_TRACE_DUMP_DIR for the nightly soak workflow's artifact upload.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "env/fuzz_env.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim_system.h"
#include "spec/register_spec.h"
#include "util/rng.h"
#include "verify/history.h"

namespace hi::testing {

// ---------------------------------------------------------------------------
// Positive control: a counter whose inc() has a lost-update window.
// ---------------------------------------------------------------------------

/// Sequential counter spec for the positive control: inc() returns the NEW
/// value, read() returns the current value. Two concurrent incs that both
/// return the same value are not linearizable under this spec, which is
/// exactly the observable symptom of BrokenCounterAlg's race.
struct NaiveCounterSpec {
  enum class Kind : std::uint8_t { kInc, kRead };
  struct Op {
    Kind kind = Kind::kInc;
  };
  using State = std::uint32_t;
  using Resp = std::uint32_t;

  State initial_state() const { return 0; }

  std::pair<State, Resp> apply(const State& state, const Op& op) const {
    if (op.kind == Kind::kRead) return {state, state};
    return {state + 1, state + 1};
  }

  bool is_read_only(const Op& op) const { return op.kind == Kind::kRead; }

  std::uint64_t encode_state(const State& state) const { return state; }
  State decode_state(std::uint64_t word) const {
    return static_cast<State>(word);
  }
  std::uint32_t encode_op(const Op& op) const {
    return op.kind == Kind::kRead ? 1u : 0u;
  }
  Op decode_op(std::uint32_t word) const {
    return Op{word == 1u ? Kind::kRead : Kind::kInc};
  }
  std::uint32_t encode_resp(const Resp& resp) const { return resp; }
  Resp decode_resp(std::uint32_t word) const { return word; }

  static Op inc() { return Op{Kind::kInc}; }
  static Op read() { return Op{Kind::kRead}; }
};

/// Deliberately broken counter: inc() reads the shared word, then writes
/// value+1 as a SEPARATE primitive — the textbook lost-update window. Any
/// schedule that interleaves two incs between each other's read and write
/// makes both return the same value. Intentionally NOT fixed: it is the
/// seeded bug the fuzzing/exploration pipeline must catch, reproduce, and
/// shrink (acceptance criterion for the positive control).
template <typename Env>
class BrokenCounterAlg {
 public:
  template <typename T>
  using OpT = typename Env::template Op<T>;

  explicit BrokenCounterAlg(typename Env::Ctx ctx)
      : words_(Env::make_word_array(ctx, "C", 1, 0)) {}

  OpT<std::uint32_t> apply(int /*pid*/, NaiveCounterSpec::Op op) {
    if (op.kind == NaiveCounterSpec::Kind::kRead) return read();
    return inc();
  }

  OpT<std::uint32_t> inc() {
    const std::uint64_t seen = co_await Env::read_word(words_, 0);
    co_await Env::write_word(words_, 0, seen + 1);
    co_return static_cast<std::uint32_t>(seen + 1);
  }

  OpT<std::uint32_t> read() {
    const std::uint64_t seen = co_await Env::read_word(words_, 0);
    co_return static_cast<std::uint32_t>(seen);
  }

 private:
  typename Env::WordArray words_;
};

/// Explorer-compatible system wrapper for the broken counter's simulator
/// instantiation — the step-model side of the catch → reproduce → shrink
/// pipeline (and the DPOR suite's bug-preservation check).
struct BrokenCounterSystem
    : SimSystem<NaiveCounterSpec, BrokenCounterAlg<env::SimEnv>> {
  explicit BrokenCounterSystem(int num_processes)
      : SimSystem(NaiveCounterSpec{}, num_processes) {}
};

// ---------------------------------------------------------------------------
// Crash/stall positive controls (verify/crash_audit.h, tests/test_crash.cpp,
// the rt stall rows in test_fuzz_rt.cpp). Single-source over Env like the
// real algorithms, so the same bodies run under SimEnv (step-exact crash via
// Scheduler::crash) and FuzzEnv (stall injection via YieldInjector).
// ---------------------------------------------------------------------------

/// Lock-based counter: inc() and read() hold a test-and-set spinlock. The
/// object the crash-progress gate MUST catch — if the lock holder crashes
/// (or stalls) between acquire and release, every survivor spins in the
/// acquire loop forever: the progress gate's step budget runs out in the
/// step model and the rt watchdog fires on real threads. Correct when
/// nobody crashes (the tier-1 suite keeps it that way), broken under the
/// fault model — which is exactly the blocking-vs-lock-free boundary the
/// audit exists to demonstrate.
template <typename Env>
class SpinLockCounterAlg {
 public:
  template <typename T>
  using OpT = typename Env::template Op<T>;

  explicit SpinLockCounterAlg(typename Env::Ctx ctx)
      : words_(Env::make_word_array(ctx, "L", 2, 0)) {}

  OpT<std::uint32_t> apply(int /*pid*/, NaiveCounterSpec::Op op) {
    if (op.kind == NaiveCounterSpec::Kind::kRead) return read();
    return inc();
  }

  OpT<std::uint32_t> inc() {
    for (;;) {
      const auto claim = co_await Env::cas_word(words_, kLock, 0, 1);
      if (claim.installed) break;
    }
    const std::uint64_t seen = co_await Env::read_word(words_, kCount);
    co_await Env::write_word(words_, kCount, seen + 1);
    co_await Env::write_word(words_, kLock, 0);
    co_return static_cast<std::uint32_t>(seen + 1);
  }

  OpT<std::uint32_t> read() {
    for (;;) {
      const auto claim = co_await Env::cas_word(words_, kLock, 0, 1);
      if (claim.installed) break;
    }
    const std::uint64_t seen = co_await Env::read_word(words_, kCount);
    co_await Env::write_word(words_, kLock, 0);
    co_return static_cast<std::uint32_t>(seen);
  }

  /// Observer-side: true while some operation holds the lock.
  bool lock_held() const { return Env::peek_word(words_, kLock) != 0; }

 private:
  static constexpr std::uint32_t kLock = 0;
  static constexpr std::uint32_t kCount = 1;

  typename Env::WordArray words_;
};

/// Deliberately leaky-on-crash register: write(v) journals the OLD value
/// into a scratch word ("undo log") and clears the journal as its last
/// step. Crash-free executions are perfectly quiescent-HI — the journal is
/// always 0 at quiescence — but a write crashed between the journal store
/// and the clear leaves the PREVIOUS value sitting in shared memory
/// forever: a seized machine learns state that the surviving abstract state
/// does not determine, in a word that is not part of the crashed op's own
/// value cell. The crash-point HI audit (verify::crash_residue with the
/// value word as the allowed region) must flag it — the second positive
/// control.
template <typename Env>
class LeakyCrashRegisterAlg {
 public:
  template <typename T>
  using OpT = typename Env::template Op<T>;

  LeakyCrashRegisterAlg(typename Env::Ctx ctx, std::uint32_t initial)
      // Two one-word arrays so each cell takes its own initial value AND
      // its own base-object id: the value cell registers first (snapshot
      // object id 0 — the crashed write's own words), the journal second
      // (id 1 — where the leak lands, outside the allowed region).
      : value_(Env::make_word_array(ctx, "R.val", 1, initial)),
        journal_(Env::make_word_array(ctx, "R.jrn", 1, 0)) {}

  OpT<std::uint32_t> apply(int /*pid*/, spec::RegisterSpec::Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read();
    return write(op.value);
  }

  OpT<std::uint32_t> write(std::uint32_t value) {
    const std::uint64_t old = co_await Env::read_word(value_, 0);
    co_await Env::write_word(journal_, 0, old);  // the leak-to-be
    co_await Env::write_word(value_, 0, value);
    co_await Env::write_word(journal_, 0, 0);    // cleaned iff completed
    co_return 0u;
  }

  OpT<std::uint32_t> read() {
    const std::uint64_t seen = co_await Env::read_word(value_, 0);
    co_return static_cast<std::uint32_t>(seen);
  }

  /// Observer-side peeks (the rt stall rows read the leak directly).
  std::uint64_t peek_value() const { return Env::peek_word(value_, 0); }
  std::uint64_t peek_journal() const { return Env::peek_word(journal_, 0); }

 private:
  typename Env::WordArray value_;
  typename Env::WordArray journal_;
};

// ---------------------------------------------------------------------------
// Real-thread history recording.
// ---------------------------------------------------------------------------

/// Records per-thread operation intervals against one global seq_cst clock
/// and rebuilds a verify::History after the threads join. Thread-safe for
/// concurrent run() calls from distinct pids; build() only after joining.
template <typename OpT, typename RespT>
class RtHistoryRecorder {
 public:
  explicit RtHistoryRecorder(int num_threads) : records_(num_threads) {}

  /// Runs `fn()` on the calling thread, bracketing it with clock ticks.
  template <typename Fn>
  RespT run(int pid, const OpT& op, Fn&& fn) {
    const std::uint64_t invoked =
        clock_.fetch_add(1, std::memory_order_seq_cst);
    RespT resp = fn();
    const std::uint64_t responded =
        clock_.fetch_add(1, std::memory_order_seq_cst);
    records_[static_cast<std::size_t>(pid)].push_back(
        Record{op, std::move(resp), invoked, responded});
    return records_[static_cast<std::size_t>(pid)].back().resp;
  }

  /// Timestamp-ordered history of everything recorded so far. The relative
  /// order of invocations and responses follows the global clock, so the
  /// checker sees exactly the real-time precedence the clock witnessed.
  verify::History<OpT, RespT> build() const {
    struct Event {
      std::uint64_t time = 0;
      int pid = 0;
      std::size_t record = 0;
      bool is_response = false;
    };
    std::vector<Event> events;
    for (std::size_t pid = 0; pid < records_.size(); ++pid) {
      for (std::size_t i = 0; i < records_[pid].size(); ++i) {
        const Record& r = records_[pid][i];
        events.push_back(Event{r.invoked, static_cast<int>(pid), i, false});
        events.push_back(Event{r.responded, static_cast<int>(pid), i, true});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.time < b.time; });

    verify::History<OpT, RespT> history;
    std::vector<std::vector<std::size_t>> index(records_.size());
    for (std::size_t pid = 0; pid < records_.size(); ++pid) {
      index[pid].resize(records_[pid].size());
    }
    for (const Event& e : events) {
      const Record& r = records_[static_cast<std::size_t>(e.pid)][e.record];
      if (!e.is_response) {
        index[static_cast<std::size_t>(e.pid)][e.record] =
            history.invoke(e.pid, r.op);
      } else {
        history.respond(index[static_cast<std::size_t>(e.pid)][e.record],
                        r.resp);
      }
    }
    return history;
  }

  std::size_t total_ops() const {
    std::size_t count = 0;
    for (const auto& per_pid : records_) count += per_pid.size();
    return count;
  }

 private:
  struct Record {
    OpT op{};
    RespT resp{};
    std::uint64_t invoked = 0;
    std::uint64_t responded = 0;
  };

  std::atomic<std::uint64_t> clock_{0};
  std::vector<std::vector<Record>> records_;
};

// ---------------------------------------------------------------------------
// Thread driving.
// ---------------------------------------------------------------------------

/// Runs `body(pid)` on `num_threads` real threads. Each worker arms the
/// yield injector with a stream derived from (seed, pid), waits at a
/// barrier so all workers enter their workload together (maximizing the
/// overlap window), runs the body, and disarms.
template <typename Body>
void run_fuzz_threads(int num_threads, std::uint64_t seed,
                      env::YieldPolicy policy, Body&& body) {
  std::barrier gate(num_threads);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_threads));
  for (int pid = 0; pid < num_threads; ++pid) {
    workers.emplace_back([&, pid] {
      env::YieldInjector::arm(
          util::hash_combine(seed, static_cast<std::uint64_t>(pid) + 1),
          policy);
      gate.arrive_and_wait();
      body(pid);
      env::YieldInjector::disarm();
    });
  }
  for (auto& worker : workers) worker.join();
}

// ---------------------------------------------------------------------------
// Env knobs.
// ---------------------------------------------------------------------------

/// Integer env-var knob with a fallback (non-positive or unset → fallback).
inline int env_int_knob(const char* name, int fallback) {
  if (const char* raw = std::getenv(name)) {
    const int value = std::atoi(raw);
    if (value > 0) return value;
  }
  return fallback;
}

/// Iterations per object for the rt yield-fuzzer: HI_RT_FUZZ_ITERS
/// (default = the CI smoke budget; the nightly soak raises it).
inline int rt_fuzz_iters(int fallback) {
  return env_int_knob("HI_RT_FUZZ_ITERS", fallback);
}

// ---------------------------------------------------------------------------
// Stall injection + progress watchdog (the rt half of the crash-fault
// model: a stalled thread is indistinguishable from a crashed one for as
// long as it stays parked — docs/FAULTS.md).
// ---------------------------------------------------------------------------

/// Outcome of a stall-injection run.
struct StallRunResult {
  /// True iff the survivors stopped completing operations for a full
  /// watchdog deadline before finishing their workload — the rt analogue
  /// of the sim progress gate's exhausted step budget. Expected TRUE for
  /// the lock-based positive control, FALSE for every lock-free object.
  bool watchdog_fired = false;
  /// Threads that actually parked at the stall gate (a stall point beyond
  /// the body's primitive count never engages; tests use small windows).
  int stalled_engaged = 0;
};

/// Watchdog deadline for the stall rows: HI_RT_WATCHDOG_MS (default is
/// deliberately generous so loaded CI machines don't flake; the positive
/// control overrides it downward to keep the suite fast).
inline int rt_watchdog_ms(int fallback = 20000) {
  return env_int_knob("HI_RT_WATCHDOG_MS", fallback);
}

/// Where the stalled threads of run_stall_threads park, and when the
/// survivors start.
struct StallPlan {
  /// Each stalled thread parks at a seeded boundary ordinal in
  /// [first, first + window) of its run (0 parks at the very first one).
  std::uint64_t window = 1;
  std::uint64_t first = 0;
  /// false: every thread starts together, so the stall lands while the
  /// survivors overlap the stalled op. true: survivors start their bodies
  /// only once every stalled thread is parked, so the whole survivor
  /// workload runs against num_stalled crashed peers (the k-of-n sweep).
  bool survivors_after_park = false;
};

/// Like run_fuzz_threads, but pids < num_stalled additionally arm a stall:
/// the thread parks permanently (until released) at the primitive boundary
/// `plan` picks. Survivors run `body(pid)` to completion, bumping
/// `progress` as they go (the body must increment it at least once per
/// completed operation). The calling thread acts as the watchdog: if
/// `progress` stops advancing for a full deadline before all survivors
/// finish, the run is declared stuck. When the survivors DO finish,
/// `at_quiescence()` runs while the stalled threads are still parked — the
/// window in which the memory image is exactly what a crash would have left
/// — and only then is the gate released so every thread (including a
/// stalled lock holder, un-livelocking any spinning survivors) can drain
/// and join.
/// `deadline_ms` < 0 uses the HI_RT_WATCHDOG_MS default; the positive
/// control passes a short explicit deadline (every firing iteration waits
/// it out in full).
template <typename Body, typename AtQuiescence>
StallRunResult run_stall_threads(int num_threads, int num_stalled,
                                 std::uint64_t seed, env::YieldPolicy policy,
                                 StallPlan plan,
                                 std::atomic<std::uint64_t>& progress,
                                 Body&& body, AtQuiescence&& at_quiescence,
                                 int deadline_ms = -1) {
  StallRunResult result;
  env::StallGate gate;
  std::atomic<int> survivors_done{0};
  const int num_survivors = num_threads - num_stalled;

  std::barrier start(num_threads);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_threads));
  for (int pid = 0; pid < num_threads; ++pid) {
    workers.emplace_back([&, pid] {
      env::YieldInjector::arm(
          util::hash_combine(seed, static_cast<std::uint64_t>(pid) + 1),
          policy);
      if (pid < num_stalled) {
        const std::uint64_t window = plan.window == 0 ? 1 : plan.window;
        env::YieldInjector::arm_stall(
            &gate,
            plan.first +
                util::hash_combine(seed, static_cast<std::uint64_t>(pid) +
                                             101) %
                    window);
      }
      start.arrive_and_wait();
      if (plan.survivors_after_park && pid >= num_stalled) {
        while (gate.stalled.load(std::memory_order_acquire) < num_stalled) {
          std::this_thread::yield();
        }
      }
      body(pid);
      if (pid >= num_stalled) {
        survivors_done.fetch_add(1, std::memory_order_release);
      }
      env::YieldInjector::disarm();
    });
  }

  const auto deadline = std::chrono::milliseconds(
      deadline_ms < 0 ? rt_watchdog_ms() : deadline_ms);
  std::uint64_t last_progress = progress.load(std::memory_order_acquire);
  auto last_change = std::chrono::steady_clock::now();
  while (survivors_done.load(std::memory_order_acquire) < num_survivors) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t now_progress =
        progress.load(std::memory_order_acquire);
    if (now_progress != last_progress) {
      last_progress = now_progress;
      last_change = std::chrono::steady_clock::now();
      continue;
    }
    if (std::chrono::steady_clock::now() - last_change > deadline) {
      result.watchdog_fired = true;
      break;
    }
  }

  if (!result.watchdog_fired) at_quiescence();
  result.stalled_engaged = gate.stalled.load(std::memory_order_acquire);
  gate.release_all();
  for (auto& worker : workers) worker.join();
  return result;
}

// ---------------------------------------------------------------------------
// Artifact dumping.
// ---------------------------------------------------------------------------

/// Persists `text` as $HI_TRACE_DUMP_DIR/<name>.txt so a scheduled CI run
/// can upload failing traces as artifacts. No-op when the var is unset
/// (local runs print the trace to the test log instead).
inline void dump_failing_trace(const std::string& name,
                               const std::string& text) {
  const char* dir = std::getenv("HI_TRACE_DUMP_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::filesystem::path(dir) / (name + ".txt"));
  out << text;
}

}  // namespace hi::testing
