// Wait-free state-quiescent-HI max register from binary registers (§5.1),
// written ONCE over an execution environment Env (src/env/env.h) and
// instantiated by the simulator (src/core/max_register.h) and by real
// hardware (src/rt/max_register_rt.h).
//
// The paper uses the max register to illustrate the state-connectivity
// requirement of class C_t: its state graph is not strongly connected (once
// the maximum reaches m it can never drop below m), so Theorem 17 does not
// apply — and indeed "a simple modification to Algorithm 1, where the writer
// only writes to A if the new value is bigger than all the values it has
// written in the past, results in a wait-free state-quiescent HI max
// register from binary registers."
//
// With monotone writes, Algorithm 1's downward clearing already erases the
// previous maximum's bit, so at any state-quiescent point A = e_m for the
// current maximum m: the canonical representation. ReadMax is Algorithm 1's
// read, wait-free because the cell holding the maximum is never cleared.
// An absorbed WriteMax (v ≤ previous maximum, tracked writer-locally) takes
// ZERO shared-memory steps: it must leave no footprint, or the footprint
// would reveal that the absorbed write happened. On RtEnv the Op frame
// itself is arena-recycled (env/rt_env.h), so an absorbed write is also
// heap-allocation-free: its cost is pure coroutine overhead, not the
// allocator.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "env/env.h"

namespace hi::algo {

/// §5.1's monotone-write modification of Algorithm 1. SWSR, like the §4
/// registers: `writer_pid`/`reader_pid` pin the two roles (the paper's p_w
/// and p_r); the asserts document the restriction. Scans go through the
/// Bins layout policy: bit-at-a-time with env::PaddedBins (the paper's
/// primitive sequence), one word load / masked fetch_and per 64 bins with
/// env::PackedBins (O(K/64) hot paths, same abstract bin contents — the
/// canonical representation can(m) = e_m is layout-independent).
template <typename Env, typename Bins>
class HiMaxRegisterAlg {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;

  HiMaxRegisterAlg(typename Env::Ctx ctx, std::uint32_t num_values,
                   std::uint32_t initial, int writer_pid, int reader_pid)
      : num_values_(num_values),
        writer_pid_(writer_pid),
        reader_pid_(reader_pid),
        local_max_(initial),
        a_(Bins::make(ctx, "A", num_values, initial)) {
    assert(initial >= 1 && initial <= num_values);
  }

  /// ReadMax: Algorithm 1's Read. The up-scan terminates because the bit of
  /// the current maximum is never cleared; the down-scan can only land on a
  /// larger-or-equal value (cells below the max are always 0 at rest, and a
  /// concurrent monotone write only moves the 1 upward).
  Op<std::uint32_t> read_max(int pid) {
    assert(pid == reader_pid_);
    (void)pid;
    const std::uint32_t j = co_await Bins::scan_up(a_, 1);
    assert(j != 0 && "no 1 in A — impossible");
    const std::uint32_t val = co_await env::confirm_down<Bins>(a_, j);
    co_return val;
  }

  /// WriteMax(v): absorbed unless v exceeds every previously written value
  /// (tracked in the writer's local state); then Algorithm 1's Write, whose
  /// downward clearing pass erases the previous maximum's bit.
  Op<std::uint32_t> write_max(int pid, std::uint32_t value) {
    assert(pid == writer_pid_);
    (void)pid;
    assert(value >= 1 && value <= num_values_);
    if (value <= local_max_) co_return 0;  // absorbed: no memory footprint
    local_max_ = value;
    co_await Bins::set(a_, value);
    co_await Bins::clear_down(a_, value - 1);
    co_return 0;
  }

  /// Observer-side memory image (A[1..K]); never a step of the model.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 1; v <= num_values_; ++v) {
      out.push_back(Bins::peek(a_, v));
    }
  }

  std::uint32_t num_values() const { return num_values_; }
  int writer_pid() const { return writer_pid_; }
  int reader_pid() const { return reader_pid_; }
  /// Bytes of shared storage behind A (observer-side).
  std::size_t memory_bytes() const { return Bins::footprint_bytes(a_); }

 private:
  std::uint32_t num_values_;
  int writer_pid_;
  int reader_pid_;
  std::uint32_t local_max_;  // writer-local; not part of mem(C)
  typename Bins::Array a_;
};

template <typename E>
using HiMaxRegisterAlgPadded = HiMaxRegisterAlg<E, env::PaddedBins<E>>;
template <typename E>
using HiMaxRegisterAlgPacked = HiMaxRegisterAlg<E, env::PackedBins<E>>;

}  // namespace hi::algo
