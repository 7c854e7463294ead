// Real-hardware comparators for the benchmarks (experiment E14):
//
//   RtLockObject     — a mutex around the sequential state: the simplest
//                      correct object; blocking, trivially "HI" only because
//                      the state is the entire memory, but not lock-free.
//   RtCasLoopObject  — the classic lock-free LL/SC-style universal object
//                      (§6: "there is a simple lock-free universal
//                      implementation"): CAS retry loop on a single word, no
//                      helping, no announce — perfect HI but NOT wait-free.
//   RtLeakyUniversal — Fatourou–Kallimanis-shaped wait-free construction
//                      whose version counter, announce and result tables are
//                      never cleared: the non-HI baseline, rt edition.
//                      Single-source: the algorithm body lives in
//                      algo/leaky_universal.h (LeakyUniversalAlg),
//                      instantiated here with RtEnv — the simulator
//                      instantiation of the SAME body is
//                      LeakyUniversalAlg<SimEnv, S>. Its single-frame apply()
//                      recycles through the calling thread's FrameArena
//                      (zero steady-state heap allocations), keeping the
//                      E14 comparison about clearing cost, not allocators.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

#include "algo/leaky_universal.h"
#include "env/rt_env.h"
#include "spec/spec.h"

namespace hi::rt {

/// Mutex-protected sequential object.
template <spec::SequentialSpec S>
class RtLockObject {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;

  explicit RtLockObject(const S& spec)
      : spec_(spec), state_(spec.initial_state()) {}

  Resp apply(int pid, Op op) {
    (void)pid;
    const std::scoped_lock guard(mutex_);
    auto [next, rsp] = spec_.apply(state_, op);
    state_ = next;
    return rsp;
  }

 private:
  const S& spec_;
  std::mutex mutex_;
  typename S::State state_;
};

/// Single-word CAS retry loop: lock-free, perfect HI, not wait-free.
template <spec::SequentialSpec S>
class RtCasLoopObject {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;

  explicit RtCasLoopObject(const S& spec)
      : spec_(spec), state_(spec.encode_state(spec.initial_state())) {}

  Resp apply(int pid, Op op) {
    (void)pid;
    if (spec_.is_read_only(op)) {
      const std::uint64_t raw = state_.load(std::memory_order_seq_cst);
      return spec_.apply(spec_.decode_state(raw), op).second;
    }
    std::uint64_t raw = state_.load(std::memory_order_seq_cst);
    for (;;) {
      auto [next, rsp] = spec_.apply(spec_.decode_state(raw), op);
      const std::uint64_t desired = spec_.encode_state(next);
      if (state_.compare_exchange_strong(raw, desired,
                                         std::memory_order_seq_cst)) {
        return rsp;
      }
      // raw refreshed; retry. NOTE: without a version tag this is ABA-prone
      // in general; it is sound here because the installed word *is* the
      // full abstract state, so Δ applied to an equal word is equivalent.
    }
  }

 private:
  const S& spec_;
  std::atomic<std::uint64_t> state_;
};

/// Wait-free but leaky: version counter + immortal announce/result tables.
/// Thin synchronous wrapper over the single-source LeakyUniversalAlg body.
template <spec::SequentialSpec S>
class RtLeakyUniversal {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;

  RtLeakyUniversal(const S& spec, int num_processes)
      : alg_(env::RtEnv::Ctx{}, spec, num_processes) {}

  Resp apply(int pid, Op op) { return alg_.apply(pid, op).get(); }

  // The leaks, quantified (observer-side; valid at quiescence).
  std::uint64_t version() const { return alg_.version(); }
  std::uint64_t head_state_encoded() const {
    return alg_.head_state_encoded();
  }
  std::uint64_t peek_announce(int pid) const { return alg_.peek_announce(pid); }
  std::uint64_t peek_result(int pid) const { return alg_.peek_result(pid); }
  /// Bytes of shared storage (observer-side).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::LeakyUniversalAlg<env::RtEnv, S> alg_;
};

}  // namespace hi::rt
