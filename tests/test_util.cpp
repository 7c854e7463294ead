// Unit tests for src/util: bit packing and RNG determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/bits.h"
#include "util/rng.h"

namespace hi::util {
namespace {

TEST(Bits, ExtractDepositRoundTrip) {
  std::uint64_t word = 0;
  word = deposit_bits(word, 0, 32, 0xdeadbeef);
  word = deposit_bits(word, 32, 16, 0x1234);
  word = deposit_bits(word, 48, 8, 0xab);
  word = deposit_bits(word, 56, 8, 0xcd);
  EXPECT_EQ(extract_bits(word, 0, 32), 0xdeadbeefu);
  EXPECT_EQ(extract_bits(word, 32, 16), 0x1234u);
  EXPECT_EQ(extract_bits(word, 48, 8), 0xabu);
  EXPECT_EQ(extract_bits(word, 56, 8), 0xcdu);
}

TEST(Bits, DepositOverwritesOnlyItsField) {
  std::uint64_t word = ~std::uint64_t{0};
  word = deposit_bits(word, 8, 8, 0);
  EXPECT_EQ(extract_bits(word, 0, 8), 0xffu);
  EXPECT_EQ(extract_bits(word, 8, 8), 0u);
  EXPECT_EQ(extract_bits(word, 16, 48), (std::uint64_t{1} << 48) - 1);
}

TEST(Bits, DepositTruncatesValueToWidth) {
  const std::uint64_t word = deposit_bits(0, 4, 4, 0xff);
  EXPECT_EQ(extract_bits(word, 4, 4), 0xfu);
  EXPECT_EQ(extract_bits(word, 0, 4), 0u);
  EXPECT_EQ(extract_bits(word, 8, 8), 0u);
}

TEST(Bits, FullWidthField) {
  const std::uint64_t value = 0x0123456789abcdefULL;
  EXPECT_EQ(extract_bits(deposit_bits(0, 0, 64, value), 0, 64), value);
}

TEST(Bits, SetClearTest) {
  std::uint64_t word = 0;
  word = set_bit(word, 0);
  word = set_bit(word, 63);
  EXPECT_TRUE(test_bit(word, 0));
  EXPECT_TRUE(test_bit(word, 63));
  EXPECT_FALSE(test_bit(word, 32));
  word = clear_bit(word, 63);
  EXPECT_FALSE(test_bit(word, 63));
  EXPECT_TRUE(test_bit(word, 0));
}

TEST(Bits, Popcount) {
  EXPECT_EQ(popcount64(0), 0u);
  EXPECT_EQ(popcount64(~std::uint64_t{0}), 64u);
  EXPECT_EQ(popcount64(0b1011), 3u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextInInclusiveBounds) {
  Xoshiro256 rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, HashCombineSensitiveToOrder) {
  const std::uint64_t ab = hash_combine(hash_combine(0, 1), 2);
  const std::uint64_t ba = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace hi::util
