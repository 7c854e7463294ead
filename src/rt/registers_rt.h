// The §4 register algorithms on real hardware: Vidyasankar's Algorithm 1,
// the lock-free state-quiescent-HI Algorithm 2/3, and the wait-free
// quiescent-HI Algorithm 4.
//
// Single-source: the algorithm bodies live in algo/registers.h, templated
// over the execution environment AND the bin-array layout; these classes
// instantiate them with RtEnv and expose the synchronous call-style
// interface the stress tests and benchmarks drive. The DEFAULT layout is
// env::PackedBins — 64 bins per unpadded atomic word, scans one seq_cst
// word load per 64 bins, clearing passes one masked fetch_and per word —
// so a K=1024 register occupies 2 cache lines instead of 64 KiB and its
// hot-path scans cost O(K/64) loads. The `*Padded` aliases keep the
// padded-per-bit layout instantiable for layout comparisons
// (docs/PERF.md, "Layers perfbench does not reach yet"). The simulator instantiations of the
// SAME bodies are in src/core; memory_image() here reports abstract bins,
// which match the simulator's mem(C)-derived bin image after identical
// operation sequences regardless of layout (tests/test_env_parity.cpp).
//
// Each call consumes its EagerTask on the calling thread, so every
// coroutine frame — including the scan Sub frames — recycles through that
// thread's FrameArena: steady-state reads and writes perform zero heap
// allocations (tests/test_rt_alloc.cpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "algo/registers.h"
#include "env/rt_env.h"

namespace hi::rt {

/// Algorithm 1 [Vidyasankar]: wait-free, NOT history independent.
template <typename Bins>
class RtVidyasankarRegisterT {
 public:
  explicit RtVidyasankarRegisterT(std::uint32_t num_values,
                                  std::uint32_t initial = 1)
      : alg_(env::RtEnv::Ctx{}, num_values, initial) {}

  std::uint32_t read() { return alg_.read().get(); }
  void write(std::uint32_t value) { (void)alg_.write(value).get(); }

  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    image.reserve(alg_.num_values());
    alg_.encode_memory(image);
    return image;
  }
  /// Bytes of shared storage (observer-side).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::VidyasankarAlg<env::RtEnv, Bins> alg_;
};

using RtVidyasankarRegister =
    RtVidyasankarRegisterT<env::PackedBins<env::RtEnv>>;
using RtVidyasankarRegisterPadded =
    RtVidyasankarRegisterT<env::PaddedBins<env::RtEnv>>;

/// Algorithm 2/3: lock-free, state-quiescent HI.
template <typename Bins>
class RtLockFreeHiRegisterT {
 public:
  explicit RtLockFreeHiRegisterT(std::uint32_t num_values,
                                 std::uint32_t initial = 1)
      : alg_(env::RtEnv::Ctx{}, num_values, initial) {}

  /// Read: retry TryRead until it finds a value. Lock-free only; under a
  /// write-saturated schedule this can spin (the Theorem 17 behaviour) —
  /// `max_attempts` lets benchmarks bound the wait and report failures.
  /// (With the packed layout and K ≤ 64 a TryRead always succeeds: the
  /// single word load is a full-array snapshot, which always contains a 1.)
  std::optional<std::uint32_t> read(std::uint64_t max_attempts = 0) {
    return alg_.read_bounded(max_attempts).get();
  }

  void write(std::uint32_t value) { (void)alg_.write(value).get(); }

  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    image.reserve(alg_.num_values());
    alg_.encode_memory(image);
    return image;
  }
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::LockFreeHiAlg<env::RtEnv, Bins> alg_;
};

using RtLockFreeHiRegister =
    RtLockFreeHiRegisterT<env::PackedBins<env::RtEnv>>;
using RtLockFreeHiRegisterPadded =
    RtLockFreeHiRegisterT<env::PaddedBins<env::RtEnv>>;

/// Algorithm 4: wait-free, quiescent HI (reader announces, writer helps
/// through array B, both erase their footprints).
template <typename Bins>
class RtWaitFreeHiRegisterT {
 public:
  explicit RtWaitFreeHiRegisterT(std::uint32_t num_values,
                                 std::uint32_t initial = 1)
      : alg_(env::RtEnv::Ctx{}, num_values, initial) {}

  std::uint32_t read() { return alg_.read().get(); }
  void write(std::uint32_t value) { (void)alg_.write(value).get(); }

  /// A[1..K], B[1..K], flag[1..2] — the simulator's mem(C) layout order.
  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    image.reserve(2 * alg_.num_values() + 2);
    alg_.encode_memory(image);
    return image;
  }
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::WaitFreeHiAlg<env::RtEnv, Bins> alg_;
};

using RtWaitFreeHiRegister =
    RtWaitFreeHiRegisterT<env::PackedBins<env::RtEnv>>;
using RtWaitFreeHiRegisterPadded =
    RtWaitFreeHiRegisterT<env::PaddedBins<env::RtEnv>>;

}  // namespace hi::rt
