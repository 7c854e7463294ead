// Env-layer parity suite: each single-source algorithm (algo/*.h over the
// Env abstraction) is instantiated by BOTH execution environments, so for
// any *sequential* operation sequence the simulator instantiation and the
// hardware instantiation must march through identical memory states — the
// two observer-side images are the same vector, and every response
// matches. This pins the two backends to one semantics: a future edit that
// diverges them (or a codec/packing bug) fails here before any HI property
// is even consulted.
//
// The rows are tests/objects.h's parity_rows(): one test per row, named
// EnvParity.<entry>_seed<seed>. A row whose sim entry is padded pins it
// against the packed rt layout (so the packed layout agrees with the padded
// one on the abstract bins), and a padded sim side's mem(C) snapshot must
// itself equal the image. Packed register rows use K=70 so scans and
// clearing passes cross the two-word boundary. An entry's object-specific
// per-op checks (parity_extra) run inside its rows; the checks that build
// their own objects follow the loop as TESTs, and the table's coverage test
// closes the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "env/rt_env.h"
#include "env/sim_env.h"
#include "objects.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "util/bits.h"
#include "util/rng.h"

namespace hi {
namespace {

using env::RtEnv;
using testing::kWriterPid;

/// A solo rt operation. An object with a bounded read runs its reads as one
/// TryRead, which a solo read cannot fail.
template <typename Obj, typename Op>
auto rt_solo(Obj& obj, int pid, const Op& op) {
  if constexpr (requires { obj.read_bounded(pid, 1); }) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) {
      const auto got = obj.read_bounded(pid, 1).get();
      EXPECT_TRUE(got.has_value()) << "solo TryRead cannot fail";
      return got.value_or(0);
    }
  }
  return obj.apply(pid, op).get();
}

template <typename Row>
using SimImpl = typename Row::Entry::template Impl<env::SimEnv>;
template <typename Row>
using RtImpl = typename Row::RtEntry::template Impl<RtEnv>;
template <typename Row>
using OnStep =
    std::function<void(int, const typename Row::Entry::Spec::Op&,
                       SimImpl<Row>&, RtImpl<Row>&, sim::Scheduler&)>;

/// True iff the sim mem(C) holds exactly `image`, one word per element.
template <typename Image>
bool memory_is(const sim::Memory& memory, const Image& image) {
  const std::vector<std::uint64_t> words = memory.snapshot().words;
  return std::equal(words.begin(), words.end(), image.begin(), image.end(),
                    [](std::uint64_t w, auto v) { return w == v; });
}

/// The loop of a parity run: identical random solo sequences through the
/// sim and rt instantiations, comparing responses and images after every
/// op. Keyed on the classes, not the row, so rows that differ only in
/// construction (both universal modes, both WFS fast limits) share it.
template <typename Spec, typename SimObj, typename RtObj, typename Image>
void drive_parity(
    const Spec& spec, int processes, std::uint64_t seed, int steps,
    sim::Memory& memory, sim::Scheduler& sched, SimObj& sim_obj, RtObj& rt_obj,
    std::pair<int, typename Spec::Op> (*step_of)(const Spec&,
                                                 util::Xoshiro256&, int),
    Image (*sim_image_of)(const SimObj&), Image (*rt_image_of)(const RtObj&),
    bool image_is_memory,
    const std::function<void(int, const typename Spec::Op&, SimObj&, RtObj&,
                             sim::Scheduler&)>& on_step) {
  EXPECT_EQ(sim_image_of(sim_obj), rt_image_of(rt_obj))
      << "initial memory diverges";
  util::Xoshiro256 rng(seed);
  for (int step = 0; step < steps; ++step) {
    const auto [pid, op] = step_of(spec, rng, processes);
    const auto sim_got = sim::run_solo(sched, pid, sim_obj.apply(pid, op));
    EXPECT_EQ(sim_got, rt_solo(rt_obj, pid, op))
        << "response diverges at " << step;
    const Image sim_image = sim_image_of(sim_obj);
    ASSERT_EQ(sim_image, rt_image_of(rt_obj))
        << "memory diverges after op " << step;
    if (image_is_memory) {
      ASSERT_TRUE(memory_is(memory, sim_image))
          << "sim mem(C) " << memory.dump() << " is not the image after op "
          << step;
    }
    if (on_step) on_step(step, op, sim_obj, rt_obj, sched);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// An entry's object-specific checks, run after each op's parity checks:
/// (step, op, sim_obj, rt_obj, sched). Empty for most entries.
template <typename Row>
OnStep<Row> parity_extra(const Row& row) {
  using E = typename Row::Entry;
  if constexpr (requires { E::kFastLimit; }) {
    // Wait-free-sim combinator: beyond the inner bins, the combinator's own
    // shared words (operation records, help-queue ring, head/tail) are in
    // the image, and its slow-path counters march in lockstep too. The
    // fast_limit=0 row forces EVERY read through announce/enqueue/self-help,
    // so on hardware too each read enters the slow path and writes never
    // do.
    return [reads = std::uint64_t{0}, steps = row.steps](
               int step, const auto& op, auto& sim_obj, auto& rt_obj,
               sim::Scheduler&) mutable {
      if (op.kind == spec::RegisterSpec::Kind::kRead) ++reads;
      if (step + 1 < steps) return;
      EXPECT_EQ(sim_obj.slow_path_entries(), rt_obj.slow_path_entries());
      EXPECT_EQ(sim_obj.total_ops(), rt_obj.total_ops());
      if (E::kFastLimit == 0) EXPECT_EQ(rt_obj.slow_path_entries(), reads);
    };
  } else if constexpr (std::is_same_v<E, testing::UniversalPlain> ||
                       std::is_same_v<E, testing::UniversalCombine>) {
    // Universal construction (Algorithm 5 over 6): every backend packs the
    // head/announce tuples through the ONE Word64HeadCodec (a sim value is
    // the codec word in lo with hi ≡ 0), so the images are word-exact. At
    // every quiescent point no response sits in head, and the batch
    // accounting marches in lockstep (sequential solo updates are batches
    // of one in both modes, on both backends).
    return [steps = row.steps](int step, const auto&, auto& sim_obj,
                               auto& rt_obj, sim::Scheduler&) {
      EXPECT_FALSE(sim_obj.head_has_response());
      EXPECT_FALSE(rt_obj.head_has_response());
      if (step + 1 < steps) return;
      EXPECT_EQ(sim_obj.batches_installed(), rt_obj.batches_installed());
      EXPECT_EQ(sim_obj.ops_combined(), rt_obj.ops_combined());
      EXPECT_EQ(sim_obj.ops_combined(), sim_obj.batches_installed());
      EXPECT_GT(sim_obj.batches_installed(), 0u);
    };
  } else if constexpr (std::is_same_v<E, testing::LeakyUniversal>) {
    // The leak itself reproduces identically (the image holds both
    // versions): each counts every state-changing operation ever applied.
    return [steps = row.steps](int step, const auto&, auto& sim_obj, auto&,
                               sim::Scheduler&) {
      if (step + 1 == steps) EXPECT_GT(sim_obj.version(), 0u);
    };
  } else {
    return {};
  }
}

/// Runs one parity row, with its entry's parity_extra.
template <typename Row>
void run_parity(const Row& row) {
  using SimE = typename Row::Entry;
  using RtE = typename Row::RtEntry;
  sim::Memory memory;
  sim::Scheduler sched(row.processes);
  auto sim_obj =
      SimE::template make<env::SimEnv>(memory, row.spec, row.processes);
  auto rt_obj = RtE::template make<RtEnv>(RtEnv::Ctx{}, row.spec,
                                          row.processes);
  drive_parity(row.spec, row.processes, row.seed, row.steps, memory, sched,
               sim_obj, rt_obj, &SimE::step,
               &SimE::template image<SimImpl<Row>>,
               &RtE::template image<RtImpl<Row>>,
               testing::kImageIsMemory<SimE>, parity_extra(row));
}

const bool kRowsRegistered = testing::register_rows<testing::parity_rows<>>(
    "EnvParity",
    [](const auto& row) {
      return std::string(std::decay_t<decltype(row)>::Entry::kName) +
             "_seed" + std::to_string(row.seed);
    },
    [](const auto& row) { run_parity(row); });
// ---- object-specific checks ----

TEST(EnvParity, VidyasankarLeakReproducesIdentically) {
  // The signature non-HI behaviour must be bit-identical across backends:
  // Write(2); Write(1) leaves [1,1,0...] in both environments.
  const spec::RegisterSpec spec(3, 1);
  sim::Memory memory;
  sim::Scheduler sched(2);
  auto sim_reg =
      testing::VidyasankarPadded::make<env::SimEnv>(memory, spec, 2);
  auto rt_reg = testing::VidyasankarPacked::make<RtEnv>(RtEnv::Ctx{}, spec, 2);
  for (const std::uint32_t v : {2u, 1u}) {
    (void)sim::run_solo(sched, kWriterPid, sim_reg.write(kWriterPid, v));
    rt_reg.write(kWriterPid, v).get();
  }
  EXPECT_EQ(memory.snapshot().words, (std::vector<std::uint64_t>{1, 1, 0}));
  EXPECT_EQ(algo::memory_image(rt_reg), (std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(EnvParity, ShardedHiSetAuditsEvery50Ops) {
  // The sharded multi-word store: domain 150 over 2 striped shards — 75
  // bins = 2 packed words per shard, so parity covers the word-boundary
  // arithmetic AND the shard scatter of a non-trivial initial bitmap
  // (150 live bits: the tail word's high 42 bits must be masked off
  // identically on both backends). Every 50 ops, full-membership audits
  // agree too (same per-shard scan order).
  using E = testing::ShardedHiSet;
  const std::uint32_t domain = 150;
  const std::vector<std::uint64_t> init = {0x5555555555555555ull,
                                           0x0123456789abcdefull,
                                           0xffffffffffffffffull};
  sim::Memory memory;
  sim::Scheduler sched(2);
  E::Impl<env::SimEnv> sim_set(memory, domain, 2,
                               algo::ShardPlacement::kStriped,
                               std::span<const std::uint64_t>(init));
  E::Impl<RtEnv> rt_set(RtEnv::Ctx{}, domain, 2,
                        algo::ShardPlacement::kStriped,
                        std::span<const std::uint64_t>(init));
  EXPECT_EQ(algo::memory_image(sim_set), algo::memory_image(rt_set));

  util::Xoshiro256 rng(91);
  for (int step = 0; step < 300; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
    spec::SetSpec::Op op;
    switch (rng.next_below(3)) {
      case 0: op = spec::SetSpec::insert(v); break;
      case 1: op = spec::SetSpec::remove(v); break;
      default: op = spec::SetSpec::lookup(v); break;
    }
    EXPECT_EQ(sim::run_solo(sched, 0, sim_set.apply(0, op)),
              rt_set.apply(0, op).get())
        << "response diverges at " << step;
    ASSERT_EQ(algo::memory_image(sim_set), algo::memory_image(rt_set))
        << "memory diverges after op " << step;
    if (step % 50 == 49) {
      std::vector<std::uint32_t> sim_members;
      std::vector<std::uint32_t> rt_members;
      const auto sim_count =
          sim::run_solo(sched, 0, sim_set.snapshot_members(sim_members));
      const auto rt_count = rt_set.snapshot_members(rt_members).get();
      EXPECT_EQ(sim_count, rt_count);
      EXPECT_EQ(sim_members, rt_members)
          << "audit diverges after op " << step;
    }
  }
}

/// The keys a seed bitmap names inside 1..domain, ascending, read one key
/// at a time — the definition the constructor's bulk scatter must match.
std::vector<std::uint32_t> seeded_keys(std::span<const std::uint64_t> seed,
                                       std::uint32_t domain) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 1; k <= domain; ++k) {
    if (util::bin_test(seed, k)) keys.push_back(k);
  }
  return keys;
}

/// A seeded store and an empty one given each seeded key by insert() have
/// the same image, and the seeded store's audit names exactly those keys.
template <typename Env, typename Drive>
void expect_seed_is_inserts(typename Env::Ctx seeded_ctx,
                            typename Env::Ctx built_ctx, std::uint32_t domain,
                            std::uint32_t shards,
                            algo::ShardPlacement placement,
                            std::span<const std::uint64_t> seed,
                            const std::vector<std::uint32_t>& keys,
                            Drive&& drive) {
  using Impl = testing::ShardedHiSet::Impl<Env>;
  Impl seeded(seeded_ctx, domain, shards, placement, seed);
  Impl built(built_ctx, domain, shards, placement);
  for (const std::uint32_t k : keys) (void)drive(built.insert(k));
  EXPECT_EQ(algo::memory_image(seeded), algo::memory_image(built)) << "image";
  std::vector<std::uint32_t> members;
  (void)drive(seeded.snapshot_members(members));
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, keys) << "audit";
}

TEST(EnvParity, ShardedSeedIsInsertsOfSeededKeys) {
  // A store seeded with a bitmap must be, byte for byte, an empty store
  // after inserting each seeded key, and its audit must name exactly those
  // keys. The seeds carry bits past the domain (dropped) or fall short of
  // the domain's word count (missing words read as 0). The all-ones seed
  // gives every word 64 members (the build decoder's fullest buffer); the
  // all-zero seed gives none.
  util::Xoshiro256 rng(15);
  const auto random_words = [&rng](std::uint32_t count) {
    std::vector<std::uint64_t> words(count);
    for (std::uint64_t& w : words) w = rng.next();
    return words;
  };
  for (const auto placement :
       {algo::ShardPlacement::kBlocked, algo::ShardPlacement::kStriped}) {
    for (const std::uint32_t shards : {1u, 3u, 16u, 100u}) {
      for (const std::uint32_t domain : {150u, 1000u, 4097u}) {
        const std::uint32_t words = util::bin_words(domain);
        for (const auto& seed :
             {random_words(words + 2), random_words(words / 2),
              std::vector<std::uint64_t>(words + 2, ~std::uint64_t{0}),
              std::vector<std::uint64_t>(words, 0)}) {
          SCOPED_TRACE(::testing::Message()
                       << "placement " << static_cast<int>(placement)
                       << ", shards " << shards << ", domain " << domain
                       << ", seed words " << seed.size() << ", first word "
                       << seed.front());
          const std::vector<std::uint32_t> keys = seeded_keys(seed, domain);
          sim::Memory seeded_memory;
          sim::Memory built_memory;
          sim::Scheduler sched(1);
          {
            SCOPED_TRACE("sim");
            expect_seed_is_inserts<env::SimEnv>(
                seeded_memory, built_memory, domain, shards, placement, seed,
                keys, [&sched](auto task) {
                  return sim::run_solo(sched, 0, std::move(task));
                });
          }
          {
            SCOPED_TRACE("rt");
            expect_seed_is_inserts<RtEnv>(
                RtEnv::Ctx{}, RtEnv::Ctx{}, domain, shards, placement, seed,
                keys, [](auto task) { return task.get(); });
          }
        }
      }
    }
  }
}

TEST(EnvParity, UniversalCombineForcedBatchScript) {
  // Deterministic batch on BOTH backends: park announcements for p0 and p1
  // (the announce_only test hook = line 4 then stall), then run p2's
  // increment to completion. The winner sweep must apply all three ops in
  // one install on each backend, leave the identical memory image, and pin
  // the helped responses in the announce cells — whose expected words come
  // straight from Word64HeadCodec (10 and 11: the batch folds ascending
  // pid from initial state 10).
  using E = testing::UniversalCombine;
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 3;
  sim::Memory memory;
  sim::Scheduler sched(n);
  auto sim_obj = E::make<env::SimEnv>(memory, spec, n);
  auto rt_obj = E::make<RtEnv>(RtEnv::Ctx{}, spec, n);

  for (int pid : {0, 1}) {
    (void)sim::run_solo(sched, pid,
                        sim_obj.announce_only(pid, spec::CounterSpec::inc()));
    (void)rt_obj.announce_only(pid, spec::CounterSpec::inc()).get();
  }
  EXPECT_EQ(E::image(sim_obj), E::image(rt_obj));

  const auto sim_resp =
      sim::run_solo(sched, 2, sim_obj.apply(2, spec::CounterSpec::inc()));
  const auto rt_resp = rt_obj.apply(2, spec::CounterSpec::inc()).get();
  EXPECT_EQ(sim_resp, 12u);
  EXPECT_EQ(rt_resp, 12u);

  EXPECT_EQ(sim_obj.batches_installed(), 1u);
  EXPECT_EQ(sim_obj.ops_combined(), 3u);
  EXPECT_EQ(rt_obj.batches_installed(), 1u);
  EXPECT_EQ(rt_obj.ops_combined(), 3u);
  EXPECT_EQ(sim_obj.head_state_encoded(), 13u);
  EXPECT_EQ(rt_obj.head_state_encoded(), 13u);

  // The helped responses sit in the parked cells, bit-exactly as the codec
  // specifies, with clean contexts; p2's own cell is back to ⊥.
  const auto rt_words = rt_obj.memory_words();
  ASSERT_EQ(rt_words.size(), 4u);  // head + 3 announce cells
  EXPECT_EQ(rt_words[1].value, algo::Word64HeadCodec::announce_resp(10));
  EXPECT_EQ(rt_words[2].value, algo::Word64HeadCodec::announce_resp(11));
  EXPECT_EQ(rt_words[3].value, algo::Word64HeadCodec::bottom());
  for (const auto& word : rt_words) EXPECT_EQ(word.ctx, 0u);
  EXPECT_EQ(E::image(sim_obj), E::image(rt_obj));
}

// ---- the object table's coverage ----

/// Rows of entry E in a rung's row tuple (counted from the types alone).
template <typename E, typename... Rows>
constexpr int rows_of(std::type_identity<std::tuple<Rows...>>) {
  return (0 + ... + std::is_same_v<typename Rows::Entry, E>);
}

template <typename E, auto RowsFn>
constexpr int rows_of() {
  return rows_of<E>(std::type_identity<decltype(RowsFn())>{});
}

const testing::Exemption* exemption(std::string_view entry,
                                    testing::Rung rung) {
  for (const testing::Exemption& e : testing::kExemptions) {
    if (e.entry == entry && e.rung == rung) return &e;
  }
  return nullptr;
}

constexpr const char* kRungNames[] = {"parity", "replay fuzz",
                                     "rt yield fuzz", "explore", "crash"};

/// One matrix cell: the entry's row count in a rung, or "exempt".
void print_cell(std::ostream& out, std::string_view entry, testing::Rung rung,
                int rows) {
  const testing::Exemption* ex = exemption(entry, rung);
  if (ex != nullptr) {
    EXPECT_EQ(rows, 0) << entry << ": stale exemption";
    EXPECT_FALSE(ex->reason.empty()) << entry << ": exemption needs a reason";
    out << " exempt |";
    return;
  }
  EXPECT_GT(rows, 0) << entry << " has no "
                     << kRungNames[static_cast<int>(rung)]
                     << " row and no exemption";
  out << ' ' << rows << " |";
}

TEST(ObjectTable, CoverageMatrix) {
  // Prints the entry × rung matrix (row counts per rung) and the
  // exemptions that docs/TESTING.md shows; CI diffs the two. An entry with
  // no row in a rung fails unless kExemptions excuses it with a reason, and
  // an exemption for an entry that has rows there is stale.
  std::ostringstream out;
  std::set<std::string_view> names;
  using testing::ExploreSuite;
  out << "| entry | HI level | parity | replay fuzz | rt yield fuzz | explore "
         "| crash |\n"
      << "|---|---|---|---|---|---|---|\n";
  std::apply(
      [&](auto... entry) {
        ((names.insert(decltype(entry)::kName),
          out << "| " << decltype(entry)::kName << " | "
              << testing::hi_level_name(decltype(entry)::kHi) << " |",
          print_cell(out, decltype(entry)::kName, testing::Rung::kParity,
                     rows_of<decltype(entry), testing::parity_rows<>>()),
          print_cell(out, decltype(entry)::kName, testing::Rung::kReplay,
                     rows_of<decltype(entry), testing::replay_rows<>>()),
          print_cell(out, decltype(entry)::kName, testing::Rung::kYield,
                     rows_of<decltype(entry), testing::yield_rows<>>()),
          print_cell(
              out, decltype(entry)::kName, testing::Rung::kExplore,
              rows_of<decltype(entry),
                      testing::explore_rows<ExploreSuite::kExhaustive>>() +
                  rows_of<decltype(entry),
                          testing::explore_rows<ExploreSuite::kDpor>>() +
                  rows_of<decltype(entry),
                          testing::explore_rows<ExploreSuite::kWaitFreeSim>>()),
          print_cell(out, decltype(entry)::kName, testing::Rung::kCrash,
                     rows_of<decltype(entry), testing::crash_rows<>>()),
          out << '\n'),
         ...);
      },
      testing::Entries{});
  out << "\n| exempt entry | rung | reason |\n|---|---|---|\n";
  for (const testing::Exemption& e : testing::kExemptions) {
    EXPECT_TRUE(names.contains(e.entry)) << e.entry << ": not in the table";
    out << "| " << e.entry << " | " << kRungNames[static_cast<int>(e.rung)]
        << " | " << e.reason << " |\n";
  }
  std::cout << out.str();
}

}  // namespace
}  // namespace hi
