// Auditable access-control store at production scale: the sharded
// perfect-HI set (algo/sharded_set.h) on real hardware — one million users
// striped over 16 multi-word packed shards, concurrent administrator
// threads churning memberships while an auditor runs periodic
// full-membership scans.
//
// Think of a revocation list or an access-control group: it is often
// essential that an investigator (or an attacker with a memory-dump
// primitive) cannot learn that a user was added and hastily removed. Every
// shard's memory IS its membership bitmap after every instruction (perfect
// history independence, Definition 5), and the shard map is a pure function
// of the user id, so the concatenated store memory is a pure function of
// the current membership — never of the churn that produced it.
//
//   $ ./examples/audit_set
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "rt/sharded_set_rt.h"

namespace {

constexpr std::uint32_t kUsers = 1'000'000;
constexpr std::uint32_t kShards = 16;
constexpr int kAdmins = 4;
constexpr int kAudits = 8;
constexpr std::uint32_t kChurnPerAdmin = 400'000;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

int main() {
  hi::rt::RtShardedHiSet store(kUsers, kShards,
                               hi::algo::ShardPlacement::kStriped);

  std::printf("=== Auditable access store: %u users, %u shards ===\n",
              kUsers, store.shard_count());
  std::printf("footprint: %zu bytes of shared membership words "
              "(domain/8 floor = %u bytes)\n\n",
              store.memory_bytes(), kUsers / 8);

  // Seed a stable membership: every 10th user enrolled.
  for (std::uint32_t user = 1; user <= kUsers; user += 10) store.insert(user);

  // kAdmins administrator threads churn random users — enrol, revoke,
  // re-check — while the main thread audits the FULL membership
  // periodically via per-shard word scans. No locks anywhere: every
  // membership operation is one atomic word access in one shard.
  std::vector<std::thread> admins;
  admins.reserve(kAdmins);
  for (int a = 0; a < kAdmins; ++a) {
    admins.emplace_back([&store, a] {
      for (std::uint32_t i = 0; i < kChurnPerAdmin; ++i) {
        const std::uint64_t r =
            mix((static_cast<std::uint64_t>(a) << 32) | i);
        const std::uint32_t user =
            static_cast<std::uint32_t>(r % kUsers) + 1;
        switch (i & 3) {
          case 0: store.insert(user); break;
          case 1: store.remove(user); break;
          default: store.lookup(user); break;
        }
      }
    });
  }

  std::vector<std::uint32_t> members;
  members.reserve(kUsers / 8);
  double total_audit_ms = 0.0;
  for (int audit = 0; audit < kAudits; ++audit) {
    members.clear();
    const auto start = std::chrono::steady_clock::now();
    const std::uint32_t count = store.snapshot_members(members);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    total_audit_ms += ms;
    std::printf("audit %d: %u members enrolled, scanned %zu words of shared "
                "memory in %.2f ms\n",
                audit + 1, count, store.memory_bytes() / 8, ms);
  }

  for (auto& admin : admins) admin.join();

  members.clear();
  const std::uint32_t final_count = store.snapshot_members(members);
  std::printf("\nfinal membership after churn: %u users; mean audit latency "
              "%.2f ms over %d mid-churn audits.\n",
              final_count, total_audit_ms / kAudits, kAudits);
  // At quiescence the audit must count exactly the set bins in memory.
  const std::vector<std::uint8_t> image = store.memory_image();
  const auto set_bins = static_cast<std::size_t>(
      std::count(image.begin(), image.end(), std::uint8_t{1}));
  if (final_count != set_bins) {
    std::printf("AUDIT MISMATCH: %u members audited, %zu bins set\n",
                final_count, set_bins);
    return 1;
  }
  std::printf(
      "The store's memory is the concatenation of per-shard membership\n"
      "bitmaps — a pure function of WHO is enrolled now. No trace remains\n"
      "of users that were added and removed, at any instant the auditor\n"
      "(or an attacker) dumps it.\n");
  return 0;
}
