// Bounded model checking (experiments E4/E5/E10/E11/E12 strengthened): for
// small workloads we enumerate EVERY schedule and check linearizability on
// every complete execution plus canonical-memory history independence at
// every state-quiescent/quiescent configuration of every branch. This is
// exhaustive within the stated op mixes — not sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "algo/hi_set.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/sharded_set.h"
#include "core/rllsc.h"
#include "core/universal.h"
#include "env/sim_env.h"
#include "sim/explorer.h"
#include "sim/harness.h"
#include "sim_system.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "util/bits.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

// ------------------------------------------------ register systems (SWSR)

template <typename Impl>
struct RegSystem : testing::SimSystem<spec::RegisterSpec, Impl> {
  explicit RegSystem(std::uint32_t k)
      : testing::SimSystem<spec::RegisterSpec, Impl>(
            spec::RegisterSpec(k, 1), 2, /*writer=*/0, /*reader=*/1) {}
};

template <typename Impl>
void exhaustive_register_check(std::uint32_t k,
                               std::vector<spec::RegisterSpec::Op> writes,
                               std::size_t num_reads, std::size_t max_depth,
                               bool check_state_quiescent,
                               std::uint64_t min_complete) {
  const spec::RegisterSpec spec(k, 1);
  std::vector<std::vector<spec::RegisterSpec::Op>> work(2);
  work[0] = std::move(writes);
  work[1].assign(num_reads, spec::RegisterSpec::read());

  // Canonical map from solo runs.
  verify::HiChecker checker;
  for (std::uint32_t v = 1; v <= k; ++v) {
    RegSystem<Impl> sys(k);
    if (v != 1) {
      (void)sim::run_solo(sys.sched, 0, sys.impl.write(0, v));
    }
    ASSERT_TRUE(checker.set_canonical(v, sys.mem.snapshot()));
  }

  sim::Explorer<spec::RegisterSpec, RegSystem<Impl>> explorer(
      spec, [k] { return std::make_unique<RegSystem<Impl>>(k); }, work);

  std::uint64_t lin_failures = 0;
  const auto stats = explorer.explore(
      {.max_depth = max_depth, .max_executions = 400'000},
      [&](RegSystem<Impl>& sys, const auto& hist, int pending,
          int state_changing_pending) {
        const bool observable =
            check_state_quiescent ? state_changing_pending == 0 : pending == 0;
        if (!observable) return;
        std::uint64_t state = 1;
        for (const auto& entry : hist.entries()) {
          if (entry.op.kind == spec::RegisterSpec::Kind::kWrite &&
              entry.completed()) {
            state = entry.op.value;
          }
        }
        checker.observe(state, sys.mem.snapshot(), "explored");
      },
      [&](RegSystem<Impl>& sys, const auto& hist) {
        (void)sys;
        if (!verify::check_linearizable(spec, hist).ok()) ++lin_failures;
      });

  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_EQ(lin_failures, 0u);
  EXPECT_GE(stats.executions_complete, min_complete);
  EXPECT_TRUE(stats.exhausted) << "hit the execution cap — raise limits";
}

TEST(Exhaustive, Alg2_WriteVsRead_AllSchedules) {
  // Write(2) ‖ Read over K=3: every interleaving is linearizable and every
  // state-quiescent configuration is canonical. Fully exhaustive.
  exhaustive_register_check<algo::LockFreeHiAlgPadded<env::SimEnv>>(
      3, {spec::RegisterSpec::write(2)}, 1, /*max_depth=*/40,
      /*state_quiescent=*/true, /*min_complete=*/20);
}

TEST(Exhaustive, Alg2_TwoWritesOneRead_AllSchedules) {
  exhaustive_register_check<algo::LockFreeHiAlgPadded<env::SimEnv>>(
      3, {spec::RegisterSpec::write(3), spec::RegisterSpec::write(1)}, 1,
      /*max_depth=*/40, /*state_quiescent=*/true, /*min_complete=*/500);
}

TEST(Exhaustive, Alg2Packed_WriteVsRead_AllSchedules) {
  // The packed-layout twin of Alg2_WriteVsRead_AllSchedules: Write(2) ‖
  // Read over K=3 packed into ONE word cell, so the explorer enumerates
  // every WORD-granularity interleaving (fetch_or/fetch_and vs word loads)
  // and checks linearizability + canonical state-quiescent memory on each.
  // Fewer schedules than the padded run (a write is 3 word RMWs instead of
  // 3 bit writes ... but a read is 1–2 word loads instead of up to 2K-1 bit
  // reads), all of them exhausted.
  exhaustive_register_check<algo::LockFreeHiAlgPacked<env::SimEnv>>(
      3, {spec::RegisterSpec::write(2)}, 1, /*max_depth=*/40,
      /*state_quiescent=*/true, /*min_complete=*/10);
}

TEST(Exhaustive, Alg2Packed_TwoWordArray_AllSchedules) {
  // K=70 spans two packed words: the upward scan's word-0/word-1 boundary
  // and the clearing passes' two-word masks are the interesting
  // interleaving points; Write(65) ‖ Read crosses them all.
  exhaustive_register_check<algo::LockFreeHiAlgPacked<env::SimEnv>>(
      70, {spec::RegisterSpec::write(65)}, 1, /*max_depth=*/40,
      /*state_quiescent=*/true, /*min_complete=*/10);
}

TEST(Exhaustive, Alg4_WriteVsRead_AllSchedules) {
  // Algorithm 4 with one Write(3) ‖ one Read over K=3: every interleaving
  // linearizable; every fully-quiescent configuration canonical.
  exhaustive_register_check<algo::WaitFreeHiAlgPadded<env::SimEnv>>(
      3, {spec::RegisterSpec::write(3)}, 1, /*max_depth=*/46,
      /*state_quiescent=*/false, /*min_complete=*/1000);
}

TEST(Exhaustive, Alg1Control_LeakIsFoundByExploration) {
  // Negative control: the same exhaustive harness must CATCH Algorithm 1's
  // leak (two writes reaching state 1 with different memory).
  const spec::RegisterSpec spec(3, 1);
  verify::HiChecker checker;
  {
    // Seed the canonical representation of state 1 from a solo Write(1), so
    // the explored Write(2);Write(1) path has something to conflict with.
    RegSystem<algo::VidyasankarAlgPadded<env::SimEnv>> solo(3);
    (void)sim::run_solo(solo.sched, 0, solo.impl.write(0, 1));
    ASSERT_TRUE(checker.set_canonical(1, solo.mem.snapshot()));
  }
  using Vidyasankar = RegSystem<algo::VidyasankarAlgPadded<env::SimEnv>>;
  sim::Explorer<spec::RegisterSpec, Vidyasankar>
      explorer(
          spec,
          [] { return std::make_unique<Vidyasankar>(3); },
          {{spec::RegisterSpec::write(2), spec::RegisterSpec::write(1)}, {}});
  (void)explorer.explore(
      {.max_depth = 20, .max_executions = 10'000},
      [&](auto& sys, const auto& hist, int, int state_changing_pending) {
        if (state_changing_pending != 0) return;
        std::uint64_t state = 1;
        for (const auto& e : hist.entries()) {
          if (e.completed() && e.op.kind == spec::RegisterSpec::Kind::kWrite) {
            state = e.op.value;
          }
        }
        checker.observe(state, sys.mem.snapshot(), "explored");
      },
      nullptr);
  EXPECT_FALSE(checker.consistent()) << "exploration missed the Alg 1 leak";
}

// ------------------------------------------------------------- perfect-HI set

struct SetSystem
    : testing::SimSystem<spec::SetSpec, algo::HiSetAlgPadded<env::SimEnv>> {
  SetSystem() : SimSystem(spec::SetSpec(4), 2) {}
};

TEST(Exhaustive, HiSet_AllSchedules_PerfectHI) {
  const spec::SetSpec spec(4);
  verify::HiChecker checker;
  std::uint64_t lin_failures = 0;
  sim::Explorer<spec::SetSpec, SetSystem> explorer(
      spec, [] { return std::make_unique<SetSystem>(); },
      {{spec::SetSpec::insert(1), spec::SetSpec::remove(2),
        spec::SetSpec::lookup(1)},
       {spec::SetSpec::insert(2), spec::SetSpec::remove(1),
        spec::SetSpec::lookup(2)}});
  const auto stats = explorer.explore(
      {.max_depth = 20, .max_executions = 500'000},
      [&](SetSystem& sys, const auto&, int, int) {
        // PERFECT HI: every configuration observable; state == memory bitmap
        // (the implementation's canonical map is the identity).
        std::uint64_t bitmap = 0;
        const auto snap = sys.mem.snapshot();
        for (std::size_t i = 0; i < snap.words.size(); ++i) {
          if (snap.words[i]) bitmap |= 1ull << i;
        }
        checker.observe(bitmap, snap, "explored");
      },
      [&](SetSystem&, const auto& hist) {
        if (!verify::check_linearizable(spec, hist).ok()) ++lin_failures;
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_EQ(lin_failures, 0u);
  EXPECT_GE(stats.executions_complete, 800u);
}

// ------------------------------------------------------- sharded perfect-HI

struct ShardedSetSystem
    : testing::SimSystem<spec::SetSpec, algo::ShardedHiSetPacked<env::SimEnv>> {
  ShardedSetSystem()
      : SimSystem(spec::SetSpec(8), 2, /*shard_count=*/2,
                  algo::ShardPlacement::kStriped) {}
};

TEST(Exhaustive, ShardedHiSet_AllSchedules_PerfectHI) {
  // The sharded facade under every schedule: keys 1 and 3 share shard 0
  // (same packed word — real word contention through the facade), key 2
  // lives in shard 1 (cross-shard commuting ops). Perfect HI: at EVERY
  // configuration the memory must be the concatenated shard bitmaps of the
  // current abstract membership — we decode the abstract state back through
  // the placement map, so a routing bug (key in the wrong shard/word) shows
  // up as a checker violation even before it breaks a lookup response.
  const spec::SetSpec spec(8);
  verify::HiChecker checker;
  std::uint64_t lin_failures = 0;
  sim::Explorer<spec::SetSpec, ShardedSetSystem> explorer(
      spec, [] { return std::make_unique<ShardedSetSystem>(); },
      {{spec::SetSpec::insert(1), spec::SetSpec::remove(3),
        spec::SetSpec::lookup(2)},
       {spec::SetSpec::insert(3), spec::SetSpec::remove(1),
        spec::SetSpec::lookup(1)}});
  const auto stats = explorer.explore(
      {.max_depth = 20, .max_executions = 500'000},
      [&](ShardedSetSystem& sys, const auto&, int, int) {
        // Decode the abstract membership from the per-shard packed words:
        // snapshot word order is shard construction order (shard s owns
        // bin_words(shard_domain(s)) consecutive words).
        std::uint64_t members = 0;
        const auto snap = sys.mem.snapshot();
        std::size_t w = 0;
        for (std::uint32_t s = 0; s < sys.impl.shard_count(); ++s) {
          const std::uint32_t size = sys.impl.shard_domain(s);
          for (std::uint32_t sw = 0; sw < util::bin_words(size); ++sw, ++w) {
            ASSERT_LT(w, snap.words.size());
            for (std::uint64_t word = snap.words[w]; word != 0;
                 word &= word - 1) {
              const std::uint32_t local =
                  sw * 64 + util::lowest_set(word) + 1;
              members |= 1ull << (sys.impl.global_key(s, local) - 1);
            }
          }
        }
        checker.observe(members, snap, "explored");
      },
      [&](ShardedSetSystem&, const auto& hist) {
        if (!verify::check_linearizable(spec, hist).ok()) ++lin_failures;
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_EQ(lin_failures, 0u);
  EXPECT_GE(stats.executions_complete, 800u);
}

TEST(Exhaustive, ShardedHiSet_TwoShardTwoWord_AllInterleavings) {
  // The spec harness caps domains at 64 keys, so the explorer above cannot
  // reach a shard that spans MULTIPLE packed words. This test drives the
  // algo-layer facade directly at domain 256 with 2 striped shards — 128
  // bins = 2 words per shard — and enumerates ALL interleavings of
  // Insert(129) ‖ Remove(2) ‖ Contains(129) by hand (each op is exactly one
  // primitive step, so the 6 step orders ARE the full schedule space).
  // After EVERY step, the 4 words of memory must equal the shadow
  // membership scattered through the placement map (perfect HI at every
  // configuration), and responses must match the shadow at the step that
  // linearizes them. Key 129 sits at word 1 / bit 0 of shard 0 — the
  // word-boundary crossing the multi-word lift exists for.
  constexpr std::uint32_t kDomain = 256;
  constexpr std::uint32_t kShards = 2;
  // Initial membership {2, 129}: global bitmap over 4 words.
  const std::vector<std::uint64_t> init = {0b10, 0, 1, 0};

  struct Step {
    enum Kind { kInsert, kRemove, kContains } kind;
    std::uint32_t key;
  };
  const std::vector<std::vector<Step>> workloads = {
      // Cross-shard + word-boundary mix.
      {{Step::kInsert, 129}, {Step::kRemove, 2}, {Step::kContains, 129}},
      // All three ops racing on ONE bin of the second word of shard 0.
      {{Step::kInsert, 129}, {Step::kRemove, 129}, {Step::kContains, 129}},
  };

  int perm[3] = {0, 1, 2};
  for (const auto& ops : workloads) {
    std::sort(perm, perm + 3);
    do {
      sim::Memory mem;
      sim::Scheduler sched(3);
      algo::ShardedHiSetPacked<env::SimEnv> set(
          mem, kDomain, kShards, algo::ShardPlacement::kStriped,
          std::span<const std::uint64_t>(init));

      // Shadow abstract state: the global membership bitmap.
      std::vector<std::uint64_t> shadow = init;

      // Expected memory words from the shadow, through the placement map.
      const auto expected_words = [&] {
        std::vector<std::uint64_t> words;
        for (std::uint32_t s = 0; s < kShards; ++s) {
          std::vector<std::uint64_t> sw(util::bin_words(set.shard_domain(s)),
                                        0);
          for (std::uint32_t local = 1; local <= set.shard_domain(s);
               ++local) {
            if (util::bin_test(shadow, set.global_key(s, local))) {
              util::bin_set(sw, local);
            }
          }
          words.insert(words.end(), sw.begin(), sw.end());
        }
        return words;
      };

      // Start all three ops (start consumes no step; each suspends at its
      // single primitive).
      std::vector<sim::OpTask<bool>> tasks;
      tasks.reserve(3);
      for (const Step& op : ops) {
        switch (op.kind) {
          case Step::kInsert: tasks.push_back(set.insert(op.key)); break;
          case Step::kRemove: tasks.push_back(set.remove(op.key)); break;
          case Step::kContains: tasks.push_back(set.lookup(op.key)); break;
        }
      }
      for (int pid = 0; pid < 3; ++pid) sched.start(pid, tasks[pid]);
      ASSERT_EQ(mem.snapshot().words, expected_words())
          << "initial image wrong";

      for (const int pid : perm) {
        const Step& op = ops[pid];
        const bool was_member = util::bin_test(shadow, op.key);
        sched.step(pid);  // the op's one primitive — its linearization point
        ASSERT_TRUE(sched.op_finished(pid));
        sched.finish(pid);
        switch (op.kind) {
          case Step::kInsert:
            util::bin_set(shadow, op.key);
            EXPECT_TRUE(tasks[pid].take_result());
            break;
          case Step::kRemove:
            util::bin_clear(shadow, op.key);
            EXPECT_TRUE(tasks[pid].take_result());
            break;
          case Step::kContains:
            EXPECT_EQ(tasks[pid].take_result(), was_member)
                << "Contains(" << op.key << ") disagrees with the shadow "
                << "at its linearization step";
            break;
        }
        EXPECT_EQ(mem.snapshot().words, expected_words())
            << "memory is not the canonical image after stepping pid "
            << pid;
      }
    } while (std::next_permutation(perm, perm + 3));
  }
}

// ----------------------------------------------------------------- R-LLSC

struct RllscSystem
    : testing::SimSystem<spec::RllscSpec, algo::CasRllscAlg<env::SimEnv>> {
  RllscSystem()
      : SimSystem(spec::RllscSpec(8, 2), 2, "X", algo::RllscValue{0, 0}) {}
};

TEST(Exhaustive, CasRllsc_LlScVsLlSc_AllSchedules) {
  // Both processes run LL;SC — every interleaving must linearize against the
  // R-LLSC spec, and the memory must always equal the (val, ctx) state.
  const spec::RllscSpec spec(8, 2);
  std::uint64_t lin_failures = 0;
  std::uint64_t mem_mismatch = 0;
  sim::Explorer<spec::RllscSpec, RllscSystem> explorer(
      spec, [] { return std::make_unique<RllscSystem>(); },
      {{spec::RllscSpec::ll(0), spec::RllscSpec::sc(0, 3)},
       {spec::RllscSpec::ll(1), spec::RllscSpec::sc(1, 5)}});
  const auto stats = explorer.explore(
      {.max_depth = 30, .max_executions = 500'000},
      [&](RllscSystem& sys, const auto&, int, int) {
        const auto snap = sys.mem.snapshot();
        if (snap.words.size() != 3 ||
            snap.words[0] != sys.impl.peek_value().lo ||
            snap.words[2] != sys.impl.peek_context()) {
          ++mem_mismatch;
        }
      },
      [&](RllscSystem&, const auto& hist) {
        if (!verify::check_linearizable(spec, hist).ok()) ++lin_failures;
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(lin_failures, 0u);
  EXPECT_EQ(mem_mismatch, 0u);
  EXPECT_GE(stats.executions_complete, 100u);
}

TEST(Exhaustive, CasRllsc_StoreVsLl_AllSchedules) {
  const spec::RllscSpec spec(8, 2);
  std::uint64_t lin_failures = 0;
  sim::Explorer<spec::RllscSpec, RllscSystem> explorer(
      spec, [] { return std::make_unique<RllscSystem>(); },
      {{spec::RllscSpec::store(0, 7), spec::RllscSpec::vl(0)},
       {spec::RllscSpec::ll(1), spec::RllscSpec::sc(1, 5),
        spec::RllscSpec::rl(1)}});
  const auto stats = explorer.explore(
      {.max_depth = 30, .max_executions = 500'000}, nullptr,
      [&](RllscSystem&, const auto& hist) {
        if (!verify::check_linearizable(spec, hist).ok()) ++lin_failures;
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(lin_failures, 0u);
}

// ----------------------------------------------------- universal construction

template <typename Cell>
struct UniSystem
    : testing::SimSystem<spec::CounterSpec,
                         core::Universal<spec::CounterSpec, Cell>> {
  UniSystem() : UniSystem::SimSystem(spec::CounterSpec(100, 5), 2, 2) {}
};

template <typename Cell>
void exhaustive_universal(std::uint64_t max_exec, bool expect_exhausted) {
  const spec::CounterSpec spec(100, 5);
  verify::HiChecker checker;
  std::uint64_t lin_failures = 0;
  std::uint64_t invariant_failures = 0;
  sim::Explorer<spec::CounterSpec, UniSystem<Cell>> explorer(
      spec, [] { return std::make_unique<UniSystem<Cell>>(); },
      {{spec::CounterSpec::inc()}, {spec::CounterSpec::dec()}});
  const auto stats = explorer.explore(
      {.max_depth = 120, .max_executions = max_exec},
      [&](UniSystem<Cell>& sys, const auto&, int, int state_changing_pending) {
        if (state_changing_pending != 0) return;
        // Lemmas 26/27 at every state-quiescent configuration reached by ANY
        // schedule prefix.
        if (sys.impl.head_has_response() || sys.impl.context_union() != 0 ||
            !sys.impl.announce_is_bottom(0) || !sys.impl.announce_is_bottom(1)) {
          ++invariant_failures;
        }
        checker.observe(sys.impl.head_state_encoded(), sys.mem.snapshot(),
                        "explored");
      },
      [&](UniSystem<Cell>&, const auto& hist) {
        if (!verify::check_linearizable(spec, hist).ok()) ++lin_failures;
      });
  EXPECT_EQ(stats.exhausted, expect_exhausted);
  EXPECT_EQ(lin_failures, 0u);
  EXPECT_EQ(invariant_failures, 0u);
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_GE(stats.executions_complete, 100u);
}

TEST(Exhaustive, UniversalNativeCells_IncVsDec_Bounded) {
  // Native R-LLSC backend. Even with single-step cells the helping paths
  // make the full schedule space larger than 2M executions, so this run is
  // capped: a prefix-closed subset of all schedules, every one checked.
  exhaustive_universal<core::NativeRllsc>(300'000, /*expect_exhausted=*/false);
}

TEST(Exhaustive, UniversalCasCells_IncVsDec_Bounded) {
  // Full Algorithm 5-over-6 composition: the CAS retry loops blow up the
  // schedule space, so this run is capped — a prefix-closed subset of all
  // schedules, every one of which must still pass.
  exhaustive_universal<algo::CasRllscAlg<env::SimEnv>>(
      150'000, /*expect_exhausted=*/false);
}

}  // namespace
}  // namespace hi
