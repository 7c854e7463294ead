// Real-thread audits of the sharded perfect-HI store (rt::RtShardedHiSet):
// two mutators churn keys inside a fixed window while an auditor loops
// snapshot_members. Keys outside the window are never written, so every
// audit — whatever it observes inside the window — must return exactly the
// seeded members outside it, each shard's keys ascending and each key once.
// The store's shared footprint is pinned exactly as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "algo/sharded_set.h"
#include "env/rt_env.h"
#include "fuzz_common.h"
#include "rt/sharded_set_rt.h"
#include "util/bits.h"
#include "util/rng.h"

namespace hi {
namespace {

constexpr std::uint32_t kDomain = 1u << 16;
constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kWindowLo = 20'001;  // churned keys: [lo, hi)
constexpr std::uint32_t kWindowHi = 20'513;
constexpr int kMutators = 2;

/// Audits per placement: 200 at the default HI_RT_FUZZ_ITERS (20), ten per
/// fuzz iteration, so the nightly soak's 400 iterations run 4000.
int audit_count() { return 10 * testing::rt_fuzz_iters(20); }

bool in_window(std::uint32_t key) {
  return key >= kWindowLo && key < kWindowHi;
}

/// Runs audit_count() audits of `store`; each must return exactly `expected`
/// outside the window, shards in shard order, each strictly ascending
/// (hence no key twice). Returns at the first failed check.
void check_audits(rt::RtShardedHiSet& store,
                  const std::vector<std::uint32_t>& expected) {
  std::vector<std::uint32_t> members;
  members.reserve(kDomain);
  std::vector<std::uint32_t> outside;
  const int audits = audit_count();
  for (int audit = 0; audit < audits; ++audit) {
    members.clear();
    const std::uint32_t count = store.snapshot_members(members);
    ASSERT_EQ(count, members.size()) << "audit " << audit;
    std::uint32_t shard = 0;
    std::uint32_t last = 0;
    outside.clear();
    for (const std::uint32_t key : members) {
      ASSERT_TRUE(key >= 1 && key <= kDomain) << key;
      const std::uint32_t s = store.shard_of(key);
      ASSERT_GE(s, shard) << "audit " << audit << ": shard order broken at "
                          << key;
      if (s != shard) {
        shard = s;
        last = 0;
      }
      ASSERT_GT(key, last) << "audit " << audit << ": shard " << s
                           << " not strictly ascending at " << key;
      last = key;
      if (!in_window(key)) outside.push_back(key);
    }
    std::sort(outside.begin(), outside.end());
    ASSERT_EQ(outside, expected) << "audit " << audit;
  }
}

void audit_under_churn(algo::ShardPlacement placement) {
  // Seed every 7th key, plus the keys on both sides of the window edges.
  std::vector<std::uint64_t> seed(util::bin_words(kDomain), 0);
  for (std::uint32_t k = 1; k <= kDomain; k += 7) util::bin_set(seed, k);
  for (const std::uint32_t k : {kWindowLo - 1, kWindowLo, kWindowHi - 1,
                                kWindowHi}) {
    util::bin_set(seed, k);
  }
  std::vector<std::uint32_t> expected;  // seeded members outside the window
  for (std::uint32_t k = 1; k <= kDomain; ++k) {
    if (util::bin_test(seed, k) && !in_window(k)) expected.push_back(k);
  }

  rt::RtShardedHiSet store(kDomain, kShards, placement, seed);
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      started.fetch_add(1);
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto key = static_cast<std::uint32_t>(
            rng.next_in(kWindowLo, kWindowHi - 1));
        if (i % 2 == 0) {
          store.insert(key);
        } else {
          store.remove(key);
        }
      }
    });
  }
  while (started.load() < kMutators) std::this_thread::yield();

  check_audits(store, expected);
  stop.store(true);
  for (std::thread& m : mutators) m.join();
}

TEST(RtShardedAudit, ChurnedWindowLeavesTheRestExactStriped) {
  audit_under_churn(algo::ShardPlacement::kStriped);
}

TEST(RtShardedAudit, ChurnedWindowLeavesTheRestExactBlocked) {
  audit_under_churn(algo::ShardPlacement::kBlocked);
}

TEST(RtShardedFootprint, OneWordPer64KeysOfEachShard) {
  // Each shard is bin_words(its key count) unpadded 8-byte words, so the
  // store costs exactly domain/8 bytes whenever every shard's key count is
  // a multiple of 64, and one partial tail word per shard otherwise.
  using Store = algo::ShardedHiSet<env::RtEnv, env::PackedBins<env::RtEnv>>;
  for (const std::uint32_t domain : {1'000'000u, 16'000'000u}) {
    for (const std::uint32_t shards : {1u, 4u, 16u}) {
      for (const algo::ShardPlacement placement :
           {algo::ShardPlacement::kStriped, algo::ShardPlacement::kBlocked}) {
        const Store store(env::RtEnv::Ctx{}, domain, shards, placement);
        std::uint64_t keys = 0;
        std::size_t words = 0;
        for (std::uint32_t s = 0; s < shards; ++s) {
          keys += store.shard_domain(s);
          words += util::bin_words(store.shard_domain(s));
        }
        const auto where = ::testing::Message()
                           << "domain " << domain << ", " << shards
                           << " shards, placement "
                           << static_cast<int>(placement);
        EXPECT_EQ(keys, domain) << where;
        EXPECT_EQ(store.memory_bytes(), 8 * words) << where;
        if (domain % (64 * shards) == 0) {
          EXPECT_EQ(store.memory_bytes(), domain / 8) << where;
        }
      }
    }
  }
  // The benchmark's store: 4M keys over 16 striped shards.
  const rt::RtShardedHiSet bench_store(1u << 22, 16,
                                       algo::ShardPlacement::kStriped);
  EXPECT_EQ(bench_store.memory_bytes(), 524'288u);
}

}  // namespace
}  // namespace hi
