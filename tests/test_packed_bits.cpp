// Packed bin arrays (env::PackedBins over SimEnv/RtEnv): geometry edge
// cases — K not a multiple of 64, the 1-based §5.1 indexing at the word
// boundary (bins 64/65), the bitmap-initialization round-trip, scans over
// all-zero arrays — plus the re-derived sim step-count expectations for the
// packed §4/§5.1 hot paths (the packed analogue of the padded layout's
// step-exact tests: one word load per 64 bins, one masked fetch_and per
// word, so a K=70 scan is 2 steps where the padded layout pays 70; an
// audit is one load per word whatever the membership).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "algo/hi_set.h"
#include "algo/sharded_set.h"

#include "algo/max_register.h"
#include "algo/registers.h"
#include "env/replay_env.h"
#include "env/rt_env.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/max_register_spec.h"
#include "spec/set_spec.h"
#include "util/bits.h"
#include "util/rng.h"

namespace hi {
namespace {

using testing::kReaderPid;
using testing::kWriterPid;

using SimBins = env::PackedBins<env::SimEnv>;
using RtBins = env::PackedBins<env::RtEnv>;
using SimArray = env::SimEnv::PackedBinArray;
using RtArray = env::RtEnv::PackedBinArray;

// ---- geometry helpers under test ----

TEST(PackedGeometry, WordAndBitOfOneBasedBins) {
  // Bin 1 is bit 0 of word 0; bin 64 is bit 63 of word 0; bin 65 is bit 0
  // of word 1 — the §5.1 1-based indexing against 0-based machine words.
  EXPECT_EQ(util::bin_word(1), 0u);
  EXPECT_EQ(util::bin_bit(1), 0u);
  EXPECT_EQ(util::bin_word(64), 0u);
  EXPECT_EQ(util::bin_bit(64), 63u);
  EXPECT_EQ(util::bin_word(65), 1u);
  EXPECT_EQ(util::bin_bit(65), 0u);
  EXPECT_EQ(util::bin_words(64), 1u);
  EXPECT_EQ(util::bin_words(65), 2u);
  EXPECT_EQ(util::bin_words(70), 2u);
  EXPECT_EQ(util::bin_words(1024), 16u);
  EXPECT_EQ(util::mask_upto(63), ~std::uint64_t{0});
  EXPECT_EQ(util::mask_from(0), ~std::uint64_t{0});
  EXPECT_EQ(util::lowest_set(0b1010), 1u);
  EXPECT_EQ(util::highest_set(0b1010), 3u);
}

// ---- sim-side primitive wrappers (primitives must run inside a scheduled
// process; each wrapper lifts one Bins operation into a schedulable Op) ----

sim::OpTask<std::uint32_t> op_scan_up(SimArray& a, std::uint32_t from) {
  const std::uint32_t hit = co_await SimBins::scan_up(a, from);
  co_return hit;
}
sim::OpTask<std::uint32_t> op_scan_down(SimArray& a, std::uint32_t from) {
  const std::uint32_t hit = co_await SimBins::scan_down(a, from);
  co_return hit;
}
sim::OpTask<std::uint32_t> op_scan_members(SimArray& a,
                                           std::vector<std::uint32_t>& out) {
  const std::uint32_t found = co_await SimBins::scan_members(
      a, [&out](std::uint32_t v) { out.push_back(v); });
  co_return found;
}
sim::OpTask<std::uint32_t> op_read(SimArray& a, std::uint32_t v) {
  const std::uint8_t bit = co_await SimBins::read(a, v);
  co_return bit;
}
sim::OpTask<std::uint32_t> op_set(SimArray& a, std::uint32_t v) {
  co_await SimBins::set(a, v);
  co_return 0;
}
sim::OpTask<std::uint32_t> op_clear(SimArray& a, std::uint32_t v) {
  co_await SimBins::clear(a, v);
  co_return 0;
}
sim::OpTask<std::uint32_t> op_clear_down(SimArray& a, std::uint32_t from) {
  co_await SimBins::clear_down(a, from);
  co_return 0;
}
sim::OpTask<std::uint32_t> op_clear_up(SimArray& a, std::uint32_t from) {
  co_await SimBins::clear_up(a, from);
  co_return 0;
}

struct SimPackedFixture {
  sim::Memory mem;
  sim::Scheduler sched{1};

  std::uint32_t run(sim::OpTask<std::uint32_t> task) {
    return sim::run_solo(sched, 0, std::move(task));
  }
};

TEST(PackedSim, NonMultipleOf64SizesAndWordBoundaryBins) {
  SimPackedFixture sys;
  // K=70 (not a multiple of 64): 2 words, tail bits stay zero.
  SimArray a = SimBins::make(sys.mem, "A", 70, 65);
  ASSERT_EQ(env::SimEnv::packed_words(a), 2u);
  ASSERT_EQ(env::SimEnv::packed_bins(a), 70u);
  // one_index=65 lands on word 1, bit 0 (the boundary crossing).
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 0), 0u);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 1), 1u);
  EXPECT_EQ(SimBins::peek(a, 65), 1u);
  EXPECT_EQ(SimBins::peek(a, 64), 0u);

  // Writes at both sides of the boundary touch the right words.
  EXPECT_EQ(sys.run(op_set(a, 64)), 0u);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 0), std::uint64_t{1} << 63);
  EXPECT_EQ(sys.run(op_read(a, 64)), 1u);
  EXPECT_EQ(sys.run(op_read(a, 65)), 1u);
  EXPECT_EQ(sys.run(op_clear(a, 65)), 0u);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 1), 0u);
  EXPECT_EQ(SimBins::peek(a, 64), 1u) << "clear(65) must not touch word 0";

  // scan_up crosses the word boundary; scan_down crosses it backwards.
  EXPECT_EQ(sys.run(op_set(a, 70)), 0u);
  EXPECT_EQ(sys.run(op_scan_up(a, 1)), 64u);
  EXPECT_EQ(sys.run(op_scan_up(a, 65)), 70u);
  EXPECT_EQ(sys.run(op_scan_down(a, 70)), 70u);
  EXPECT_EQ(sys.run(op_scan_down(a, 69)), 64u);
  EXPECT_EQ(sys.run(op_scan_down(a, 63)), 0u);

  std::vector<std::uint32_t> members;
  EXPECT_EQ(sys.run(op_scan_members(a, members)), 2u);
  EXPECT_EQ(members, (std::vector<std::uint32_t>{64, 70}));
}

TEST(PackedSim, BitsInitializationRoundTrip) {
  SimPackedFixture sys;
  const std::uint64_t bits = 0xdeadbeefcafef00dull;
  SimArray a = SimBins::make_bits(sys.mem, "S", 64, {bits});
  ASSERT_EQ(env::SimEnv::packed_words(a), 1u);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 0), bits);
  for (std::uint32_t v = 1; v <= 64; ++v) {
    EXPECT_EQ(SimBins::peek(a, v), (bits >> (v - 1)) & 1) << "bin " << v;
  }
  // Bits beyond a short domain are dropped so tail bins stay 0.
  const std::uint64_t all = ~std::uint64_t{0};
  SimArray b = SimBins::make_bits(sys.mem, "T", 10, {all});
  EXPECT_EQ(env::SimEnv::peek_packed_word(b, 0), (std::uint64_t{1} << 10) - 1);
}

TEST(PackedSim, MultiWordBitsInitializationRoundTrip) {
  SimPackedFixture sys;
  const std::vector<std::uint64_t> words{0xdeadbeefcafef00dull,
                                         0x0123456789abcdefull};
  // Two full words: every bin round-trips through util::bin_test geometry.
  SimArray a =
      env::SimEnv::make_packed_bin_array_words(sys.mem, "S", 128, words);
  ASSERT_EQ(env::SimEnv::packed_words(a), 2u);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 0), words[0]);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 1), words[1]);
  for (std::uint32_t v = 1; v <= 128; ++v) {
    EXPECT_EQ(SimBins::peek(a, v), util::bin_test(words, v) ? 1u : 0u)
        << "bin " << v;
  }
  // 65 bins: word 1 keeps ONLY bit 0 (bin 65) of the initializer.
  SimArray b =
      env::SimEnv::make_packed_bin_array_words(sys.mem, "B", 65, words);
  EXPECT_EQ(env::SimEnv::peek_packed_word(b, 0), words[0]);
  EXPECT_EQ(env::SimEnv::peek_packed_word(b, 1), words[1] & 1u);
  // K%64 != 0 tail masking: 70 bins of all-ones leave 6 live tail bits.
  const std::vector<std::uint64_t> ones{~std::uint64_t{0}, ~std::uint64_t{0}};
  SimArray c =
      env::SimEnv::make_packed_bin_array_words(sys.mem, "C", 70, ones);
  EXPECT_EQ(env::SimEnv::peek_packed_word(c, 1), 0x3fu);
  // Missing trailing words read as all-zero.
  const std::vector<std::uint64_t> short_init{~std::uint64_t{0}};
  SimArray d = env::SimEnv::make_packed_bin_array_words(sys.mem, "D", 128,
                                                        short_init);
  EXPECT_EQ(env::SimEnv::peek_packed_word(d, 0), ~std::uint64_t{0});
  EXPECT_EQ(env::SimEnv::peek_packed_word(d, 1), 0u);

  // The padded layout shares the same initializer geometry.
  auto padded =
      env::SimEnv::make_bin_array_words(sys.mem, "P", 70, words);
  for (std::uint32_t v = 1; v <= 70; ++v) {
    EXPECT_EQ(env::SimEnv::peek_bit(padded, v),
              util::bin_test(words, v) ? 1u : 0u)
        << "bin " << v;
  }
}

TEST(PackedSim, MultiWordHiSetAcrossWordBoundary) {
  // The lifted §5.1 set past 64 bins: membership ops address word v/64
  // directly (still one primitive each) and snapshot_members walks word
  // scans across the boundary.
  sim::Memory memory;
  sim::Scheduler sched{1};
  algo::HiSetAlgPacked<env::SimEnv> set(memory, 128,
                                        std::span<const std::uint64_t>{});

  const std::uint64_t before = sched.steps_of(0);
  EXPECT_TRUE(sim::run_solo(sched, 0, set.insert(64)));
  EXPECT_TRUE(sim::run_solo(sched, 0, set.insert(65)));
  EXPECT_TRUE(sim::run_solo(sched, 0, set.insert(128)));
  EXPECT_TRUE(sim::run_solo(sched, 0, set.lookup(65)));
  EXPECT_FALSE(sim::run_solo(sched, 0, set.lookup(66)));
  EXPECT_EQ(sched.steps_of(0) - before, 5u)
      << "multi-word ops stay one primitive each";

  std::vector<std::uint32_t> members;
  EXPECT_EQ(sim::run_solo(sched, 0, set.snapshot_members(members)), 3u);
  EXPECT_EQ(members, (std::vector<std::uint32_t>{64, 65, 128}));

  // Memory is the two-word membership bitmap — perfect HI across words.
  const auto snap = memory.snapshot();
  ASSERT_EQ(snap.words.size(), 2u);
  EXPECT_EQ(snap.words[0], std::uint64_t{1} << 63);
  EXPECT_EQ(snap.words[1], (std::uint64_t{1} << 63) | 1u);

  EXPECT_TRUE(sim::run_solo(sched, 0, set.remove(65)));
  EXPECT_FALSE(sim::run_solo(sched, 0, set.lookup(65)));
}

TEST(PackedSim, ScansOnAllZeroArrayReturnZero) {
  SimPackedFixture sys;
  SimArray a = SimBins::make(sys.mem, "A", 130, 0);
  ASSERT_EQ(env::SimEnv::packed_words(a), 3u);
  EXPECT_EQ(sys.run(op_scan_up(a, 1)), 0u);
  EXPECT_EQ(sys.run(op_scan_up(a, 128)), 0u);
  EXPECT_EQ(sys.run(op_scan_down(a, 130)), 0u);
  EXPECT_EQ(sys.run(op_scan_down(a, 1)), 0u);
  std::vector<std::uint32_t> members;
  EXPECT_EQ(sys.run(op_scan_members(a, members)), 0u);
  EXPECT_TRUE(members.empty());
}

TEST(PackedSim, ClearRangesRespectWordBoundaries) {
  SimPackedFixture sys;
  const std::uint64_t all = ~std::uint64_t{0};
  SimArray a = SimBins::make_bits(sys.mem, "A", 70, {all});
  for (std::uint32_t v = 65; v <= 70; ++v) {
    (void)sys.run(op_set(a, v));
  }
  // clear_down(64): word 0 fully cleared, word 1 untouched.
  (void)sys.run(op_clear_down(a, 64));
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 0), 0u);
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 1), 0x3fu);
  // clear_up(66): bins 66..70 cleared, bin 65 kept.
  (void)sys.run(op_clear_up(a, 66));
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 1), 1u);
  // Partial clear inside word 0.
  for (std::uint32_t v = 1; v <= 10; ++v) {
    (void)sys.run(op_set(a, v));
  }
  (void)sys.run(op_clear_down(a, 5));
  EXPECT_EQ(env::SimEnv::peek_packed_word(a, 0), 0x3e0u);  // bins 6..10
}

TEST(PackedSim, SnapshotIsThePackedWordVector) {
  // mem(C) of a packed array is one 64-bit word per cell — the packed
  // representation is itself the memory representation the HI definitions
  // compare.
  SimPackedFixture sys;
  SimArray a = SimBins::make(sys.mem, "A", 70, 3);
  const auto snap = sys.mem.snapshot();
  ASSERT_EQ(snap.words.size(), 2u);
  EXPECT_EQ(snap.words[0], 4u);
  EXPECT_EQ(snap.words[1], 0u);
  EXPECT_EQ(sys.mem.object(0).name(), "A.w[0]");
  EXPECT_EQ(sys.mem.object(1).name(), "A.w[1]");
}

// ---- the same edge cases over RtEnv's eager atomics ----

TEST(PackedRt, NonMultipleOf64SizesAndWordBoundaryBins) {
  RtArray a = RtBins::make(env::RtEnv::Ctx{}, "A", 70, 65);
  ASSERT_EQ(env::RtEnv::packed_words(a), 2u);
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 0), 0u);
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 1), 1u);

  (void)RtBins::set(a, 64).await_resume();
  (void)RtBins::set(a, 70).await_resume();
  EXPECT_EQ(RtBins::peek(a, 64), 1u);
  EXPECT_EQ(RtBins::peek(a, 65), 1u);
  EXPECT_EQ(RtBins::scan_up(a, 1).get(), 64u);
  EXPECT_EQ(RtBins::scan_up(a, 65).get(), 65u);
  EXPECT_EQ(RtBins::scan_up(a, 66).get(), 70u);
  EXPECT_EQ(RtBins::scan_down(a, 69).get(), 65u);
  EXPECT_EQ(RtBins::scan_down(a, 63).get(), 0u);

  (void)RtBins::clear(a, 65).await_resume();
  EXPECT_EQ(RtBins::peek(a, 64), 1u) << "clear(65) must not touch word 0";
  EXPECT_EQ(RtBins::scan_down(a, 70).get(), 70u);

  (void)RtBins::clear_down(a, 64).get();
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 0), 0u);
  (void)RtBins::clear_up(a, 66).get();
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 1), 0u);
  EXPECT_EQ(RtBins::scan_up(a, 1).get(), 0u) << "all-zero scan";
}

TEST(PackedRt, BitsInitializationRoundTrip) {
  const std::uint64_t bits = 0x123456789abcdef0ull;
  RtArray a = RtBins::make_bits(env::RtEnv::Ctx{}, "S", 64, {bits});
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 0), bits);
  for (std::uint32_t v = 1; v <= 64; ++v) {
    EXPECT_EQ(RtBins::peek(a, v), (bits >> (v - 1)) & 1) << "bin " << v;
  }
  const std::uint64_t all = ~std::uint64_t{0};
  RtArray b = RtBins::make_bits(env::RtEnv::Ctx{}, "T", 10, {all});
  EXPECT_EQ(env::RtEnv::peek_packed_word(b, 0), (std::uint64_t{1} << 10) - 1);
}

TEST(PackedRt, MultiWordBitsInitializationRoundTrip) {
  const std::vector<std::uint64_t> words{0xdeadbeefcafef00dull,
                                         0x0123456789abcdefull};
  RtArray a = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "S",
                                                      128, words);
  ASSERT_EQ(env::RtEnv::packed_words(a), 2u);
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 0), words[0]);
  EXPECT_EQ(env::RtEnv::peek_packed_word(a, 1), words[1]);
  for (std::uint32_t v = 1; v <= 128; ++v) {
    EXPECT_EQ(RtBins::peek(a, v), util::bin_test(words, v) ? 1u : 0u)
        << "bin " << v;
  }
  // K%64 != 0 tail masking across the boundary (65 and 70 bins).
  const std::vector<std::uint64_t> ones{~std::uint64_t{0}, ~std::uint64_t{0}};
  RtArray b = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "B",
                                                      65, ones);
  EXPECT_EQ(env::RtEnv::peek_packed_word(b, 1), 1u);
  RtArray c = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "C",
                                                      70, ones);
  EXPECT_EQ(env::RtEnv::peek_packed_word(c, 1), 0x3fu);
  // Words past the array are ignored; missing trailing words read as 0.
  RtArray d = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "D",
                                                      64, ones);
  ASSERT_EQ(env::RtEnv::packed_words(d), 1u);
  EXPECT_EQ(env::RtEnv::peek_packed_word(d, 0), ~std::uint64_t{0});
  RtArray e = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "E",
                                                      130, ones);
  ASSERT_EQ(env::RtEnv::packed_words(e), 3u);
  EXPECT_EQ(env::RtEnv::peek_packed_word(e, 1), ~std::uint64_t{0});
  EXPECT_EQ(env::RtEnv::peek_packed_word(e, 2), 0u);

  // Moved-in words become the array's storage, not a copy of it. Exact,
  // extra and fewer words end as the copies above: tail-masked, truncated,
  // zero-extended.
  std::vector<std::uint64_t> exact = ones;
  const std::uint64_t* const exact_buffer = exact.data();
  RtArray f = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "F",
                                                      70, std::move(exact));
  EXPECT_EQ(f.words.data(), exact_buffer);
  EXPECT_EQ(f.words, c.words);
  std::vector<std::uint64_t> extra = ones;
  const std::uint64_t* const extra_buffer = extra.data();
  RtArray g = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "G",
                                                      64, std::move(extra));
  EXPECT_EQ(g.words.data(), extra_buffer);
  EXPECT_EQ(g.words, d.words);
  std::vector<std::uint64_t> fewer = ones;
  RtArray h = env::RtEnv::make_packed_bin_array_words(env::RtEnv::Ctx{}, "H",
                                                      130, std::move(fewer));
  EXPECT_EQ(h.words, e.words);
}

TEST(PackedRt, MultiWordHiSetSnapshotMembers) {
  // Same lifted-set coverage as the sim twin, over eager hardware atomics,
  // with a >64-bit initial membership.
  const std::vector<std::uint64_t> init{std::uint64_t{1} << 63,  // bin 64
                                        0x5u};                   // bins 65, 67
  algo::HiSetAlgPacked<env::RtEnv> set(env::RtEnv::Ctx{}, 130, init);
  EXPECT_TRUE(set.lookup(64).get());
  EXPECT_TRUE(set.lookup(65).get());
  EXPECT_TRUE(set.lookup(67).get());
  EXPECT_FALSE(set.lookup(66).get());
  EXPECT_TRUE(set.insert(130).get());
  EXPECT_TRUE(set.remove(65).get());

  std::vector<std::uint32_t> members;
  EXPECT_EQ(set.snapshot_members(members).get(), 3u);
  EXPECT_EQ(members, (std::vector<std::uint32_t>{64, 67, 130}));
  EXPECT_EQ(set.memory_bytes(), 3u * sizeof(std::uint64_t));

  // The count is what this call appended, not out.size().
  members = {7};
  EXPECT_EQ(set.snapshot_members(members).get(), 3u);
  EXPECT_EQ(members, (std::vector<std::uint32_t>{7, 64, 67, 130}));
}

TEST(PackedRt, FootprintIsTwoCacheLinesAtK1024) {
  // The representation/bit-complexity tradeoff the packing buys: K=1024
  // bins in 128 contiguous bytes, vs 64 KiB of padded per-bit cells.
  RtArray packed = RtBins::make(env::RtEnv::Ctx{}, "A", 1024, 1);
  EXPECT_EQ(RtBins::footprint_bytes(packed), 128u);
  auto padded =
      env::PaddedBins<env::RtEnv>::make(env::RtEnv::Ctx{}, "A", 1024, 1);
  EXPECT_EQ(env::PaddedBins<env::RtEnv>::footprint_bytes(padded),
            1024u * sizeof(rt::BinCell));
  EXPECT_GE(sizeof(rt::BinCell), 64u);
}

// ---- re-derived sim step counts for the packed hot paths ----
//
// The padded layout's counterparts: an Algorithm 2 Write is exactly K
// steps, a solo Read 2m-1 steps (m = value read). Packed: a Write is
// 1 fetch_or + one fetch_and per word below + one per word at-or-above,
// a solo Read one word load per 64 bins scanned in each direction.

TEST(PackedStepCounts, LockFreeWriteIsPerWordNotPerBin) {
  const std::uint32_t k = 70;  // 2 words
  testing::RegisterSystem<algo::LockFreeHiAlgPacked<env::SimEnv>> sys(k);

  // Write(2): set(2) = 1 fetch_or; clear_down(1) = 1 fetch_and (word 0);
  // clear_up(3) = 2 fetch_ands (words 0 and 1). Total 4 (padded: 70).
  std::uint64_t before = sys.sched.steps_of(kWriterPid);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  EXPECT_EQ(sys.sched.steps_of(kWriterPid) - before, 4u);

  // Write(70): set = 1; clear_down(69) = 2 fetch_ands (words 1, 0);
  // clear_up(71) is out of range = 0. Total 3.
  before = sys.sched.steps_of(kWriterPid);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 70));
  EXPECT_EQ(sys.sched.steps_of(kWriterPid) - before, 3u);

  // Write(1): set = 1; clear_down(0) = 0; clear_up(2) = 2. Total 3.
  before = sys.sched.steps_of(kWriterPid);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 1));
  EXPECT_EQ(sys.sched.steps_of(kWriterPid) - before, 3u);
}

TEST(PackedStepCounts, LockFreeTryReadScansWordsNotBins) {
  // The re-derived Algorithm 2/3 TryRead upward-scan expectation: a solo
  // Read is ONE TryRead; with the value at bin 65 of K=70 the upward scan
  // loads word 0 (zero) then word 1 (hit), and the downward confirmation
  // loads word 0 once more — 3 steps total (padded: 2·65−1 = 129).
  const std::uint32_t k = 70;
  testing::RegisterSystem<algo::LockFreeHiAlgPacked<env::SimEnv>> sys(k);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 65));

  std::uint64_t before = sys.sched.steps_of(kReaderPid);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            65u);
  EXPECT_EQ(sys.sched.steps_of(kReaderPid) - before, 3u);

  // Value in word 0 (bin 2): scan_up hits word 0 immediately; the
  // confirmation scan_down(1) re-loads word 0. 2 steps.
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  before = sys.sched.steps_of(kReaderPid);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            2u);
  EXPECT_EQ(sys.sched.steps_of(kReaderPid) - before, 2u);

  // Value 1: scan_up hits word 0; no bins below. 1 step.
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 1));
  before = sys.sched.steps_of(kReaderPid);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            1u);
  EXPECT_EQ(sys.sched.steps_of(kReaderPid) - before, 1u);
}

TEST(PackedStepCounts, MaxRegisterAbsorbedWriteStaysZeroSteps) {
  const std::uint32_t k = 70;
  const spec::MaxRegisterSpec spec(k, 1);
  sim::Memory memory;
  sim::Scheduler sched(2);
  algo::HiMaxRegisterAlgPacked<env::SimEnv> reg(memory, spec, kWriterPid,
                                                kReaderPid);

  // Raise the maximum to 65: set(65) = 1 fetch_or; clear_down(64) = 1
  // fetch_and (word 0 only — word 1 keeps the new maximum). 2 steps.
  std::uint64_t before = sched.steps_of(kWriterPid);
  (void)sim::run_solo(sched, kWriterPid, reg.write_max(kWriterPid, 65));
  EXPECT_EQ(sched.steps_of(kWriterPid) - before, 2u);

  // Absorbed write: still ZERO shared-memory steps — packing must not add
  // a footprint to the §5.1 absorbed fast path.
  before = sched.steps_of(kWriterPid);
  (void)sim::run_solo(sched, kWriterPid, reg.write_max(kWriterPid, 30));
  EXPECT_EQ(sched.steps_of(kWriterPid) - before, 0u);

  // ReadMax at m=65: 2 loads up + 1 confirmation load. 3 steps.
  before = sched.steps_of(kReaderPid);
  EXPECT_EQ(sim::run_solo(sched, kReaderPid, reg.read_max(kReaderPid)), 65u);
  EXPECT_EQ(sched.steps_of(kReaderPid) - before, 3u);

  // Canonical at quiescence: can(65) = e_65, as one word image.
  const auto snap = memory.snapshot();
  ASSERT_EQ(snap.words.size(), 2u);
  EXPECT_EQ(snap.words[0], 0u);
  EXPECT_EQ(snap.words[1], 1u);
}

TEST(PackedStepCounts, HiSetOpsAreOnePrimitiveEach) {
  const std::uint32_t domain = 64;
  const spec::SetSpec spec(domain);
  sim::Memory memory;
  sim::Scheduler sched(1);
  algo::HiSetAlgPacked<env::SimEnv> set(memory, spec);

  const std::uint64_t before = sched.steps_of(0);
  EXPECT_TRUE(sim::run_solo(sched, 0, set.insert(64)));
  EXPECT_TRUE(sim::run_solo(sched, 0, set.lookup(64)));
  EXPECT_TRUE(sim::run_solo(sched, 0, set.remove(64)));
  EXPECT_FALSE(sim::run_solo(sched, 0, set.lookup(64)));
  EXPECT_EQ(sched.steps_of(0) - before, 4u);

  // Perfect HI, packed edition: the single word IS the membership bitmap.
  EXPECT_TRUE(sim::run_solo(sched, 0, set.insert(3)));
  EXPECT_TRUE(sim::run_solo(sched, 0, set.insert(64)));
  const auto snap = memory.snapshot();
  ASSERT_EQ(snap.words.size(), 1u);
  EXPECT_EQ(snap.words[0], (std::uint64_t{1} << 63) | 0x4u);
}

/// Steps one solo snapshot_members costs; `members` holds its output.
template <typename Set>
std::uint64_t audit_steps(sim::Scheduler& sched, Set& set,
                          std::vector<std::uint32_t>& members) {
  members.clear();
  const std::uint64_t before = sched.steps_of(0);
  const std::uint32_t count =
      sim::run_solo(sched, 0, set.snapshot_members(members));
  EXPECT_EQ(count, members.size());
  return sched.steps_of(0) - before;
}

TEST(PackedStepCounts, AuditIsOneLoadPerWordWhateverTheMembership) {
  // A 130-bin set is 3 packed words. The packed audit loads each word once
  // and takes every member of a word from that load, so it costs 3 steps
  // with six members (three sharing word 0) and 3 steps empty. The padded
  // audit reads each bin once: 130 steps either way.
  constexpr std::uint32_t kDomain = 130;
  const std::vector<std::uint32_t> keys{1, 2, 3, 64, 65, 130};
  std::vector<std::uint64_t> seeded(util::bin_words(kDomain), 0);
  for (const std::uint32_t k : keys) util::bin_set(seeded, k);

  for (const bool empty : {false, true}) {
    SCOPED_TRACE(empty ? "empty set" : "six members");
    const std::span<const std::uint64_t> init =
        empty ? std::span<const std::uint64_t>{} : seeded;
    sim::Memory memory;
    sim::Scheduler sched{1};
    std::vector<std::uint32_t> members;

    algo::HiSetAlgPacked<env::SimEnv> packed(memory, kDomain, init, "S");
    EXPECT_EQ(audit_steps(sched, packed, members), 3u);
    EXPECT_EQ(members, empty ? std::vector<std::uint32_t>{} : keys);

    algo::HiSetAlgPadded<env::SimEnv> padded(memory, kDomain, init, "P");
    EXPECT_EQ(audit_steps(sched, padded, members), kDomain);
    EXPECT_EQ(members, empty ? std::vector<std::uint32_t>{} : keys);

    // Two striped shards of 65 bins, 2 words each: the store audits in
    // the sum of its shards' word counts, shard by shard (odd keys, then
    // even keys), each shard ascending.
    algo::ShardedHiSetPacked<env::SimEnv> store(
        memory, kDomain, 2, algo::ShardPlacement::kStriped, init);
    std::uint64_t words = 0;
    for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
      words += util::bin_words(store.shard_domain(s));
    }
    ASSERT_EQ(words, 4u);
    EXPECT_EQ(audit_steps(sched, store, members), words);
    const std::vector<std::uint32_t> by_shard{1, 3, 65, 2, 64, 130};
    EXPECT_EQ(members, empty ? std::vector<std::uint32_t>{} : by_shard);
  }
}

// ---- the audit's decode on every backend, against per-bin peeks ----
//
// scan_members decodes each loaded word into a 128-entry local buffer and
// flushes to `emit` once 64 members are pending, so a word's members can
// wait across loads. These cases cross every edge of that decode: no
// member, the top bit of a word, a partly filled buffer followed by full
// words (127 pending, the most there can be), a partial tail word, and a
// sparse random set at the benchmark's density.

struct AuditCase {
  const char* name;
  std::uint32_t domain;
  std::vector<std::uint64_t> words;
};

std::vector<AuditCase> audit_cases() {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  std::vector<AuditCase> cases{
      {"empty", 256, {}},
      {"only bin 64", 64, {std::uint64_t{1} << 63}},
      {"four full words", 256, {kAll, kAll, kAll, kAll}},
      {"one member, then full words", 320, {0x1, kAll, kAll, kAll, 0x2}},
      {"63 members, then full words", 320, {kAll << 1, kAll, kAll, kAll}},
      {"bin 130 of 130", 130, {0x1, std::uint64_t{1} << 63, 0x2}},
  };
  AuditCase random{"4096 bins at density 1/256", 4096,
                   std::vector<std::uint64_t>(util::bin_words(4096), 0)};
  util::Xoshiro256 rng(0x5eed);
  for (std::uint32_t v = 1; v <= random.domain; ++v) {
    if (rng.next() % 256 == 0) util::bin_set(random.words, v);
  }
  cases.push_back(std::move(random));
  return cases;
}

template <typename E>
class PackedAuditDecode : public ::testing::Test {
 protected:
  typename E::Ctx ctx() {
    if constexpr (std::is_same_v<E, env::RtEnv>) {
      return typename E::Ctx{};
    } else {
      return memory_;
    }
  }

  /// One solo audit of `set`, appending to `out`; returns its count.
  std::uint32_t audit(algo::HiSetAlgPacked<E>& set,
                      std::vector<std::uint32_t>& out) {
    if constexpr (std::is_same_v<E, env::RtEnv>) {
      return set.snapshot_members(out).get();
    } else {
      return sim::run_solo(sched_, 0, set.snapshot_members(out));
    }
  }

 private:
  sim::Memory memory_;
  sim::Scheduler sched_{1};
};

using AuditEnvs = ::testing::Types<env::SimEnv, env::ReplayEnv, env::RtEnv>;
TYPED_TEST_SUITE(PackedAuditDecode, AuditEnvs);

TYPED_TEST(PackedAuditDecode, MatchesPerBinPeeks) {
  for (const AuditCase& c : audit_cases()) {
    SCOPED_TRACE(c.name);
    algo::HiSetAlgPacked<TypeParam> set(this->ctx(), c.domain, c.words);
    std::vector<std::uint8_t> image;
    set.encode_memory(image);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t v = 1; v <= c.domain; ++v) {
      if (image[v - 1] == 1) expected.push_back(v);
    }

    std::vector<std::uint32_t> members;
    EXPECT_EQ(this->audit(set, members), expected.size());
    EXPECT_EQ(members, expected);
  }
}

}  // namespace
}  // namespace hi
