// Algorithm 6 (algo/rllsc.h) on real hardware with a synchronous call
// surface: lock-free perfect-HI releasable LL/SC over a single 16-byte
// atomic CAS word (value + context bitmask, CMPXCHG16B via -mcx16). Every
// call consumes its EagerTask on the calling thread, so the coroutine
// frames recycle through that thread's FrameArena — LL/SC/RL cost their
// atomics and zero steady-state heap allocations (tests/test_rt_alloc.cpp).
// Other callers name algo::CasRllscAlg<env::RtEnv> and call .get().
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "algo/rllsc.h"
#include "env/rt_env.h"
#include "rt/atomic128.h"

namespace hi::rt {

// perfbench/src/calibrate.h pins this name and its synchronous calls.
class RtRllsc {
 public:
  RtRllsc() : alg_(env::RtEnv::Ctx{}, "X", 0) {}
  explicit RtRllsc(std::uint64_t initial)
      : alg_(env::RtEnv::Ctx{}, "X", initial) {}

  /// LL(O): CAS-install the caller's context bit; returns the value read.
  std::uint64_t ll(int pid) { return alg_.ll(pid).get(); }

  /// LL with Algorithm 5's ‖-interleaving: between CAS attempts, run one
  /// poll; a true poll abandons the LL (caller erases the context trace).
  /// `poll` is a plain bool-returning callable, as before.
  template <typename Poll>
  std::optional<std::uint64_t> ll_interleaved(int pid, Poll&& poll) {
    return alg_
        .ll_interleaved(pid,
                        [&poll] {
                          return env::detail::ready(static_cast<bool>(poll()));
                        })
        .get();
  }

  /// VL(O): is the caller still linked?
  bool vl(int pid) { return alg_.vl(pid).get(); }

  /// SC(O, new): install iff the caller is linked; resets the context.
  bool sc(int pid, std::uint64_t desired) { return alg_.sc(pid, desired).get(); }

  /// RL(O): remove the caller from the context; always succeeds.
  bool rl(int pid) { return alg_.rl(pid).get(); }

  std::uint64_t load() { return alg_.load().get(); }

  bool store(std::uint64_t desired) { return alg_.store(desired).get(); }

  /// Observer-side snapshot of the full base-object state (value, context) —
  /// the rt analogue of mem(C) for this cell. Only meaningful at quiescence
  /// unless the caller tolerates racing reads.
  Word128 snapshot() const {
    const auto word = alg_.peek_word();
    return Word128{word.value, word.ctx};
  }

  bool is_lock_free() const { return alg_.is_lock_free(); }

  /// Bytes of shared storage (observer-side).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::CasRllscAlg<env::RtEnv> alg_;
};

}  // namespace hi::rt
