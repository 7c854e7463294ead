// Real-hardware comparators for the benchmarks (experiment E14):
//
//   RtLockObject     — a mutex around the sequential state: the simplest
//                      correct object; blocking, trivially "HI" only because
//                      the state is the entire memory, but not lock-free.
//   RtCasLoopObject  — the classic lock-free LL/SC-style universal object
//                      (§6: "there is a simple lock-free universal
//                      implementation"): CAS retry loop on a single word, no
//                      helping, no announce — perfect HI but NOT wait-free.
//
// The third E14 comparator, the leaky (non-HI) universal, is
// algo::LeakyUniversalAlg<env::RtEnv, S> itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

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

}  // namespace hi::rt
