// §5.1's perfect-HI set on real hardware: every operation is a single
// seq_cst atomic access to one cache-line-padded binary cell, so the memory
// is the membership bitmap after every instruction — perfect HI, wait-free,
// fully multi-writer/multi-reader.
//
// Single-source: the algorithm body lives in algo/hi_set.h (HiSetAlg),
// instantiated here with RtEnv. The simulator instantiation of the SAME
// body is core::HiSet; memory_image() here matches the simulator's mem(C)
// snapshot word-for-word after identical operation sequences
// (tests/test_env_parity.cpp). Single-frame operations consumed on the
// calling thread: each thread's FrameArena recycles them, so steady-state
// insert/remove/lookup never touch the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/hi_set.h"
#include "env/rt_env.h"

namespace hi::rt {

/// Default layout: env::PackedBins — the whole set is ONE atomic word whose
/// value IS the membership bitmap (insert = fetch_or, remove = fetch_and,
/// lookup = load; still one seq_cst atomic per op, still perfect HI). The
/// `RtHiSetPadded` alias keeps the per-element padded layout instantiable:
/// disjoint-element writers never share a cache line there, whereas the
/// packed word serializes them — the padded-vs-packed tradeoff
/// (docs/PERF.md).
template <typename Bins>
class RtHiSetT {
 public:
  explicit RtHiSetT(std::uint32_t domain, std::uint64_t initial_bits = 0)
      : alg_(env::RtEnv::Ctx{}, domain, initial_bits) {}

  bool insert(std::uint32_t value) { return alg_.insert(value).get(); }
  bool remove(std::uint32_t value) { return alg_.remove(value).get(); }
  bool lookup(std::uint32_t value) { return alg_.lookup(value).get(); }

  /// S[1..t] — the simulator's mem(C) layout order.
  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    image.reserve(alg_.domain());
    alg_.encode_memory(image);
    return image;
  }

  std::uint32_t domain() const { return alg_.domain(); }
  /// Bytes of shared storage (observer-side).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::HiSetAlg<env::RtEnv, Bins> alg_;
};

using RtHiSet = RtHiSetT<env::PackedBins<env::RtEnv>>;
using RtHiSetPadded = RtHiSetT<env::PaddedBins<env::RtEnv>>;

}  // namespace hi::rt
