// The hardware base-object cells and their primitive bodies, factored out of
// RtEnv so that BOTH real-hardware backends share one memory layout and one
// set of std::atomic operations:
//
//   * env::RtEnv     — eager execution: each primitive runs immediately at
//                      the co_await site (EagerTask never suspends);
//   * env::ReplayEnv — suspended execution: each primitive is wrapped in a
//                      sim::Primitive awaiter and runs when a scheduler
//                      grants the process its step, which is what lets a
//                      recorded sim schedule drive the SAME atomics
//                      step-by-step (tests/test_replay_*.cpp).
//
// Everything here is seq_cst after construction — the §4/§6 proofs assume
// atomic base objects with a total order on operations — and the CAS base
// object is the 16-byte Atomic128 word (CMPXCHG16B via -mcx16). Binary and
// word cells are cache-line padded so contention comes from the algorithm,
// not the layout.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "algo/values.h"
#include "rt/atomic128.h"
#include "util/padded.h"

namespace hi::rt {

/// One binary (Boolean) register — the small base object of §4/§5.1.
using BinCell = util::Padded<std::atomic<std::uint8_t>>;

/// Packed bin-array storage: 64 binary registers per 64-bit word,
/// deliberately UNPADDED — the whole point of the packed layout is spatial
/// density (K=1024 bins fit in 128 bytes = 2 cache lines, vs 64 KiB for the
/// padded-per-bit layout), so scans touch O(K/64) lines. The flip side is
/// word contention: writers to bins sharing a word serialize on one RMW
/// cache line, which is why the padded layout stays first-class for
/// per-element-parallel workloads (docs/PERF.md "padded vs packed").
/// The words are plain so that RtEnv's factory can adopt its caller's
/// vector; once constructed, every access goes through packed_word.
struct PackedBits {
  std::uint32_t bins = 0;  // number of 1-based bins; tail bits stay 0
  std::vector<std::uint64_t> words;
};
static_assert(std::atomic_ref<std::uint64_t>::required_alignment ==
                  alignof(std::uint64_t),
              "PackedBits words must be atomically accessible in place");

/// Word `w` as an atomic object, const arrays too: a peek is still an
/// atomic load of shared memory.
inline std::atomic_ref<std::uint64_t> packed_word(const PackedBits& bits,
                                                  std::uint32_t w) {
  return std::atomic_ref<std::uint64_t>(
      const_cast<std::uint64_t&>(bits.words[w]));
}

/// One 64-bit CAS word — the per-process announce/result table cells of the
/// leaky universal baseline.
using WordCell = util::Padded<std::atomic<std::uint64_t>>;

/// The CAS base object of Algorithm 6 (§6.3): a 16-byte atomic word holding
/// the packed algorithm value plus the 64-bit context bitmask.
struct alignas(util::kCacheLine) CasCell128 {
  Atomic128 word;

  CasCell128() = default;
  explicit CasCell128(Word128 initial) : word(initial) {}
};

/// The CAS base-object state as the algorithm layer sees it on hardware.
using CasWord = algo::CtxWord<std::uint64_t>;

// ---- primitive bodies (each is ONE atomic operation == one §2 step) ----

inline std::uint8_t bin_read(std::atomic<std::uint8_t>& cell) {
  return cell.load(std::memory_order_seq_cst);
}
inline void bin_write(std::atomic<std::uint8_t>& cell, std::uint8_t value) {
  cell.store(value, std::memory_order_seq_cst);
}

inline CasWord cas128_read(const CasCell128& cell) {
  const Word128 w = cell.word.load();
  return CasWord{w.value, w.ctx};
}
/// Failure-word CAS: one CMPXCHG16B; compare_exchange writes the current
/// word back into `want` on failure, which becomes `observed`.
inline algo::CasResult<CasWord> cas128_cas(CasCell128& cell,
                                           const CasWord& expected,
                                           const CasWord& desired) {
  Word128 want{expected.value, expected.ctx};
  const bool installed =
      cell.word.compare_exchange(want, Word128{desired.value, desired.ctx});
  return algo::CasResult<CasWord>{installed, CasWord{want.value, want.ctx}};
}
inline void cas128_write(CasCell128& cell, const CasWord& desired) {
  cell.word.store(Word128{desired.value, desired.ctx});
}

// Packed bin-array primitives (env::PackedBins): one atomic operation on
// one 64-bin word each. The word load is a free 64-bin snapshot — strictly
// stronger than the paper's single-bit register read — and the masked RMWs
// set/clear up to 64 bins in one step. `Word` is any 64-bit atomic handle:
// RtEnv's std::atomic_ref (packed_word), ReplayEnv's std::atomic store.
template <typename Word>
std::uint64_t packed_load(const Word& word) {
  return word.load(std::memory_order_seq_cst);
}
/// One LOCK OR: sets every bin in `mask`.
template <typename Word>
void packed_or(Word&& word, std::uint64_t mask) {
  word.fetch_or(mask, std::memory_order_seq_cst);
}
/// One LOCK AND: keeps only the bins in `mask`.
template <typename Word>
void packed_and(Word&& word, std::uint64_t mask) {
  word.fetch_and(mask, std::memory_order_seq_cst);
}

inline std::uint64_t word_read(std::atomic<std::uint64_t>& cell) {
  return cell.load(std::memory_order_seq_cst);
}
inline void word_write(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  cell.store(value, std::memory_order_seq_cst);
}
/// Failure-word CAS on a 64-bit word: one LOCK CMPXCHG.
inline algo::CasResult<std::uint64_t> word_cas(std::atomic<std::uint64_t>& cell,
                                               std::uint64_t expected,
                                               std::uint64_t desired) {
  std::uint64_t want = expected;
  const bool installed =
      cell.compare_exchange_strong(want, desired, std::memory_order_seq_cst);
  return algo::CasResult<std::uint64_t>{installed, want};
}

}  // namespace hi::rt
