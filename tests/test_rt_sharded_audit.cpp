// Real-thread audits of the sharded perfect-HI store (rt::RtShardedHiSet):
// two mutators churn keys inside a fixed window while an auditor loops
// snapshot_members. Keys outside the window are never written, so every
// audit — whatever it observes inside the window — must return exactly the
// seeded members outside it, each shard's keys ascending and each key once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

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
constexpr int kAudits = 200;

bool in_window(std::uint32_t key) {
  return key >= kWindowLo && key < kWindowHi;
}

/// Runs kAudits audits of `store`; each must return exactly `expected`
/// outside the window, shards in shard order, each strictly ascending
/// (hence no key twice). Returns at the first failed check.
void check_audits(rt::RtShardedHiSet& store,
                  const std::vector<std::uint32_t>& expected) {
  std::vector<std::uint32_t> members;
  members.reserve(kDomain);
  std::vector<std::uint32_t> outside;
  for (int audit = 0; audit < kAudits; ++audit) {
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

}  // namespace
}  // namespace hi
