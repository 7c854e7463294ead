// Bit-packing helpers used by the simulator's memory encodings and the
// real-hardware 128-bit word layout (src/rt/atomic128.h).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace hi::util {

/// Extract `width` bits of `word` starting at bit `pos` (LSB = bit 0).
constexpr std::uint64_t extract_bits(std::uint64_t word, unsigned pos,
                                     unsigned width) noexcept {
  assert(width >= 1 && width <= 64 && pos < 64 && pos + width <= 64);
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  return (word >> pos) & mask;
}

/// Return `word` with `width` bits at `pos` replaced by the low bits of `value`.
constexpr std::uint64_t deposit_bits(std::uint64_t word, unsigned pos,
                                     unsigned width,
                                     std::uint64_t value) noexcept {
  assert(width >= 1 && width <= 64 && pos < 64 && pos + width <= 64);
  const std::uint64_t mask =
      (width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1))
      << pos;
  return (word & ~mask) | ((value << pos) & mask);
}

/// Test a single bit.
constexpr bool test_bit(std::uint64_t word, unsigned pos) noexcept {
  assert(pos < 64);
  return (word >> pos) & 1u;
}

constexpr std::uint64_t set_bit(std::uint64_t word, unsigned pos) noexcept {
  assert(pos < 64);
  return word | (std::uint64_t{1} << pos);
}

constexpr std::uint64_t clear_bit(std::uint64_t word, unsigned pos) noexcept {
  assert(pos < 64);
  return word & ~(std::uint64_t{1} << pos);
}

/// Number of set bits (popcount); constexpr-friendly wrapper.
constexpr unsigned popcount64(std::uint64_t word) noexcept {
  unsigned count = 0;
  while (word != 0) {
    word &= word - 1;
    ++count;
  }
  return count;
}

// ---- packed-bin-array geometry (env::PackedBins, src/env/env.h) ----
//
// A packed bin array stores 64 of the paper's 1-based binary registers
// A[1..K] per 64-bit word: bin v lives at bit (v-1) % 64 of word
// (v-1) / 64. These helpers are the single place that encodes that layout;
// the three execution environments and the word-scan library all go through
// them, so the 1-based-bin ↔ word/bit arithmetic cannot diverge.

/// Word index holding 1-based bin `v`.
constexpr std::uint32_t bin_word(std::uint32_t v) noexcept {
  assert(v >= 1);
  return (v - 1) >> 6;
}

/// Bit position of 1-based bin `v` inside its word.
constexpr unsigned bin_bit(std::uint32_t v) noexcept {
  assert(v >= 1);
  return (v - 1) & 63u;
}

/// Single-bit mask of 1-based bin `v` inside its word.
constexpr std::uint64_t bin_mask(std::uint32_t v) noexcept {
  return std::uint64_t{1} << bin_bit(v);
}

/// Number of 64-bit words needed for `count` bins.
constexpr std::uint32_t bin_words(std::uint32_t count) noexcept {
  return (count + 63u) >> 6;
}

/// Mask of bit positions [0, pos] (inclusive).
constexpr std::uint64_t mask_upto(unsigned pos) noexcept {
  assert(pos < 64);
  return pos == 63 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << (pos + 1)) - 1);
}

/// Mask of the bit positions of word `w` that hold live bins (1..count):
/// all-ones for interior words, a low-bit prefix for the tail word when
/// count % 64 != 0, zero for words past the array.
constexpr std::uint64_t bin_live_mask(std::uint32_t count,
                                      std::uint32_t w) noexcept {
  if (std::uint64_t{w} * 64 >= count) return 0;
  if (std::uint64_t{w} * 64 + 64 <= count) return ~std::uint64_t{0};
  return mask_upto(bin_bit(count));
}

/// Word `w` of a multi-word bin initializer: words[w] when present (missing
/// trailing words read as all-zero), with bits beyond `count` dropped so
/// tail bins stay 0. The single source for the >64-bin make_bits factories
/// of all three execution environments — generalizing the historical
/// single-word `if (count < 64) bits &= (1 << count) - 1` masking.
constexpr std::uint64_t init_word(std::span<const std::uint64_t> words,
                                  std::uint32_t count,
                                  std::uint32_t w) noexcept {
  const std::uint64_t raw = w < words.size() ? words[w] : 0;
  return raw & bin_live_mask(count, w);
}

/// Membership of 1-based bin `v` in a multi-word bitmap (bins past the
/// vector read as 0). Observer-side shadow-model helper.
constexpr bool bin_test(std::span<const std::uint64_t> words,
                        std::uint32_t v) noexcept {
  const std::uint32_t w = bin_word(v);
  return w < words.size() && ((words[w] >> bin_bit(v)) & 1u) != 0;
}

/// Set / clear 1-based bin `v` in a multi-word bitmap (shadow-model side;
/// the vector must already span bin v).
constexpr void bin_set(std::span<std::uint64_t> words,
                       std::uint32_t v) noexcept {
  assert(bin_word(v) < words.size());
  words[bin_word(v)] |= bin_mask(v);
}
constexpr void bin_clear(std::span<std::uint64_t> words,
                         std::uint32_t v) noexcept {
  assert(bin_word(v) < words.size());
  words[bin_word(v)] &= ~bin_mask(v);
}

/// Multi-word bin initializer with only 1-based bin `v` set (v == 0: no
/// bin set) — the one-hot start of env::PaddedBins/PackedBins::make.
inline std::vector<std::uint64_t> one_hot_words(std::uint32_t v) {
  if (v == 0) return {};
  std::vector<std::uint64_t> words(bin_word(v) + 1, 0);
  bin_set(words, v);
  return words;
}

/// Mask of bit positions [pos, 63] (inclusive).
constexpr std::uint64_t mask_from(unsigned pos) noexcept {
  assert(pos < 64);
  return ~std::uint64_t{0} << pos;
}

/// Index (0-based) of the lowest set bit (one TZCNT); word must be nonzero.
constexpr unsigned lowest_set(std::uint64_t word) noexcept {
  assert(word != 0);
  return static_cast<unsigned>(std::countr_zero(word));
}

/// Index (0-based) of the highest set bit (one LZCNT); word must be nonzero.
constexpr unsigned highest_set(std::uint64_t word) noexcept {
  assert(word != 0);
  return 63u - static_cast<unsigned>(std::countl_zero(word));
}

}  // namespace hi::util
