// §5.1's max register on real hardware: wait-free state-quiescent-HI
// monotone register over cache-line-padded atomic binary cells.
//
// Single-source: the algorithm body lives in algo/max_register.h
// (HiMaxRegisterAlg), instantiated here with RtEnv and wrapped in the
// synchronous call-style interface the stress tests and benchmarks drive.
// The simulator instantiation of the SAME body is core::HiMaxRegister;
// memory_image() here matches the simulator's mem(C) snapshot
// word-for-word after identical operation sequences (tests/test_env_parity).
// SWSR like the §4 registers: exactly one writer thread and one reader
// thread (identified by the pids fixed at construction) may operate. Both
// sides consume their EagerTask synchronously, so frames recycle through
// the owning thread's FrameArena: even the absorbed-write fast path (zero
// atomics) is heap-allocation-free in steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/max_register.h"
#include "env/rt_env.h"

namespace hi::rt {

/// Default layout: env::PackedBins — a K=1024 max register is 2 cache
/// lines and ReadMax costs O(m/64) word loads instead of O(m) padded-cell
/// loads. The `RtMaxRegisterPadded` alias keeps the padded-per-bit layout
/// instantiable for layout comparisons (docs/PERF.md).
template <typename Bins>
class RtMaxRegisterT {
 public:
  explicit RtMaxRegisterT(std::uint32_t num_values, std::uint32_t initial = 1,
                          int writer_pid = 0, int reader_pid = 1)
      : alg_(env::RtEnv::Ctx{}, num_values, initial, writer_pid, reader_pid) {}

  /// ReadMax — reader thread only.
  std::uint32_t read_max() { return alg_.read_max(alg_.reader_pid()).get(); }
  /// WriteMax(v) — writer thread only; absorbed (zero atomics) if v ≤ the
  /// running maximum.
  void write_max(std::uint32_t value) {
    (void)alg_.write_max(alg_.writer_pid(), value).get();
  }

  /// A[1..K] — the simulator's mem(C) layout order.
  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    image.reserve(alg_.num_values());
    alg_.encode_memory(image);
    return image;
  }

  std::uint32_t num_values() const { return alg_.num_values(); }
  /// Bytes of shared storage (observer-side).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::HiMaxRegisterAlg<env::RtEnv, Bins> alg_;
};

using RtMaxRegister = RtMaxRegisterT<env::PackedBins<env::RtEnv>>;
using RtMaxRegisterPadded = RtMaxRegisterT<env::PaddedBins<env::RtEnv>>;

}  // namespace hi::rt
