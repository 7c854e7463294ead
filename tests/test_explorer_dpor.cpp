// Dynamic partial-order reduction in the exhaustive explorer
// (sim/explorer.h, ExploreMode::kDpor), plus the explorer's limit paths.
//
// The load-bearing claims, each asserted here:
//   1. SOUNDNESS — on a workload small enough for naive DFS to finish, DPOR
//      produces EXACTLY the same set of complete-execution histories
//      (canonical per-operation keys + the real-time precedence relation),
//      while exploring strictly fewer executions.
//   2. SCALE — a 3-process cross-shard workload whose naive enumeration
//      blows a deliberately tight max_executions cap exhausts under DPOR
//      (the point of the reduction: sharded/multi-word compositions were
//      already at the naive explorer's practical depth limit).
//   3. BUG PRESERVATION — the broken counter's lost update is still caught
//      when exploring only DPOR representatives (Algorithm 1's HI leak:
//      Exhaustive.Alg1Control_LeakStillFoundUnderDpor).
//   4. LIMITS — max_executions clears `exhausted`, max_depth counts
//      truncated walks, try_execute rejects invalid sequences, and
//      trace_of(current_prefix()) round-trips through verify/replay.h.
//   5. CRASH DECISIONS — ExploreLimits::max_crashes enumerates ≤ k-crash
//      configurations, naive and DPOR agree on the complete-history set,
//      and max_crashes = 0 stays exactly crash-free (docs/FAULTS.md).
//
// Claims 1 and 2 on table objects are explore_rows<kDpor>() (tests/
// objects.h), named ExplorerDpor.<entry>_<label>, beside the set's naive
// 2-process row, which shares this TU's set explorer; the rest are TESTs
// through the same explore(), with the off-table 2-shard store, which
// shares this TU's sharded explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/sharded_set.h"
#include "env/replay_env.h"
#include "env/sim_env.h"
#include "explore.h"
#include "fuzz_common.h"
#include "objects.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "sim_system.h"
#include "spec/set_spec.h"
#include "util/bits.h"
#include "verify/replay.h"

namespace hi {
namespace {

const bool kRowsRegistered = testing::register_rows<
    testing::explore_rows<testing::ExploreSuite::kDpor>>(
    "ExplorerDpor", [](const auto& row) { return testing::row_name(row); },
    [](const auto& row) { testing::run_explore(row); });

// --------------------------------------------------------- positive controls

TEST(ExplorerDpor, BrokenCounter_SameHistorySetIncludingViolations) {
  // inc ‖ inc ‖ read on the lost-update counter: the history set contains
  // non-linearizable members; the rung's exploration must count them in
  // both modes, and DPOR must preserve the set exactly.
  using Spec = testing::NaiveCounterSpec;
  const Spec spec;
  const auto run = [&spec](sim::ExploreMode mode) {
    return testing::explore<testing::BrokenCounterSystem>(
        spec, [] { return std::make_unique<testing::BrokenCounterSystem>(3); },
        {{Spec::inc()}, {Spec::inc()}, {Spec::read()}},
        {.max_depth = 64, .mode = mode}, {.keys = true});
  };
  const auto naive = run(sim::ExploreMode::kNaive);
  const auto dpor = run(sim::ExploreMode::kDpor);

  ASSERT_TRUE(naive.stats.exhausted);
  ASSERT_TRUE(dpor.stats.exhausted);
  EXPECT_GT(naive.lin_failures, 0u) << "positive control lost its bug";
  EXPECT_GT(dpor.lin_failures, 0u)
      << "DPOR pruned every execution exhibiting the seeded lost update";
  EXPECT_LT(dpor.stats.executions_complete, naive.stats.executions_complete);
  EXPECT_EQ(naive.keys, dpor.keys);
}

// ------------------------------------------------- the 2-shard sharded store

TEST(ShardedHiSet, TwoShards_AllSchedules_PerfectHI) {
  // The sharded facade at 2 striped shards over domain 8, under every
  // schedule: keys 1 and 3 share shard 0 (same packed word — real word
  // contention through the facade), key 2 lives in shard 1 (cross-shard
  // commuting ops). Perfect HI: at EVERY configuration the memory must be
  // the canonical image of the abstract membership.
  using System = testing::EntrySystem<testing::ShardedHiSet>;
  const spec::SetSpec spec(8);
  const auto naive = testing::explore<System>(
      spec,
      [&spec] {
        return std::make_unique<System>(spec, 2, /*shard_count=*/2,
                                        algo::ShardPlacement::kStriped);
      },
      {{spec::SetSpec::insert(1), spec::SetSpec::remove(3),
        spec::SetSpec::lookup(2)},
       {spec::SetSpec::insert(3), spec::SetSpec::remove(1),
        spec::SetSpec::lookup(1)}},
      {.max_depth = 20, .max_executions = 500'000},
      {.hi = testing::HiLevel::kPerfect});
  testing::expect_clean(naive, /*exhausts=*/true, /*min_complete=*/800);
}

TEST(ShardedHiSet, TwoShardTwoWord_AllInterleavings) {
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

// ------------------------------------------------------------------- limits

using Set2 = testing::EntrySystem<testing::HiSetPadded>;

std::vector<std::vector<spec::SetSpec::Op>> two_proc_set_work() {
  return {{spec::SetSpec::insert(1), spec::SetSpec::remove(2)},
          {spec::SetSpec::insert(2), spec::SetSpec::lookup(1)}};
}

/// The 2-process HI set of the limit tests, explored within `limits`.
testing::Explored<spec::SetSpec, Set2> explore_set2(
    const spec::SetSpec& spec,
    std::vector<std::vector<spec::SetSpec::Op>> work,
    const sim::ExploreLimits& limits,
    const testing::ExploreChecks<spec::SetSpec, Set2>& checks = {}) {
  return testing::explore<Set2>(
      spec, testing::entry_factory<testing::HiSetPadded>(spec, 2),
      std::move(work), limits, checks);
}

TEST(ExplorerLimits, MaxExecutionsCapClearsExhausted) {
  const spec::SetSpec spec(4);
  const auto stats =
      explore_set2(spec, two_proc_set_work(),
                   {.max_depth = 64, .max_executions = 5})
          .stats;
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.executions_complete + stats.executions_truncated +
                stats.executions_pruned,
            5u)
      << "the cap must stop enumeration exactly at max_executions";
}

TEST(ExplorerLimits, MaxDepthCountsTruncatedExecutions) {
  // Every walk of this workload needs >3 decisions, so with max_depth=3
  // nothing completes and every walk counts as truncated.
  const spec::SetSpec spec(4);
  const auto stats =
      explore_set2(spec, two_proc_set_work(),
                   {.max_depth = 3, .max_executions = 1'000'000})
          .stats;
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.executions_complete, 0u);
  EXPECT_GT(stats.executions_truncated, 0u);
}

TEST(ExplorerLimits, TryExecuteRejectsInvalidSequences) {
  const spec::SetSpec spec(4);
  // A run capped at its first execution leaves the explorer to probe.
  const auto out = explore_set2(spec, two_proc_set_work(),
                                {.max_depth = 64, .max_executions = 1});
  auto& explorer = *out.explorer;
  // Stepping a process with no pending operation.
  EXPECT_FALSE(explorer.try_execute({{0, false}}).has_value());
  // Out-of-range pid.
  EXPECT_FALSE(explorer.try_execute({{7, true}}).has_value());
  // Starting a third operation on a 2-op process.
  EXPECT_FALSE(
      explorer.try_execute({{0, true}, {0, true}, {0, true}}).has_value());
  // A valid solo run of process 0's first op: start, then step to completion.
  const auto hist = explorer.try_execute({{0, true}, {0, false}});
  ASSERT_TRUE(hist.has_value());
  ASSERT_EQ(hist->size(), 1u);
  EXPECT_TRUE(hist->entries()[0].completed());
}

TEST(ExplorerLimits, TraceOfCurrentPrefixRoundTripsThroughReplay) {
  // Capture the decision path of one complete execution, render it as a
  // ScheduleTrace, and re-execute it differentially over ReplayEnv
  // (hardware atomics) — the verify/replay.h round trip for
  // explorer-captured schedules.
  const spec::SetSpec spec(4);
  const auto work = two_proc_set_work();

  std::optional<std::vector<sim::Decision>> captured;
  std::uint64_t seen = 0;
  const auto out = explore_set2(
      spec, work, {.max_depth = 64, .max_executions = 200},
      {.complete = [&](Set2&, const auto&,
                       const std::vector<sim::Decision>& prefix) {
        // Skip a few executions so the captured path is not the all-p0
        // leftmost walk.
        if (++seen == 7 && !captured.has_value()) captured = prefix;
      }});
  ASSERT_TRUE(captured.has_value());
  const sim::ScheduleTrace trace = out.explorer->trace_of(*captured);
  ASSERT_EQ(trace.steps.size(), captured->size());

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  auto sim_impl =
      testing::HiSetPadded::make<env::SimEnv>(sim_memory, spec, 2);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  auto replay_impl =
      testing::HiSetPadded::make<env::ReplayEnv>(replay_memory, spec, 2);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, work, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  // steps_executed counts granted primitive steps, not invocation events.
  const auto granted_steps = static_cast<std::uint64_t>(std::count_if(
      trace.steps.begin(), trace.steps.end(),
      [](const sim::TraceStep& s) { return !s.start; }));
  EXPECT_EQ(report.steps_executed, granted_steps);
  EXPECT_EQ(report.responses_compared, 4u);
}

TEST(ExplorerDpor, SingleProcessChainMatchesNaive) {
  // One process ⇒ one interleaving: both modes must walk exactly one
  // execution over the incremental straight-line path, with nothing pruned.
  const spec::SetSpec spec(4);
  for (const auto mode : {sim::ExploreMode::kNaive, sim::ExploreMode::kDpor}) {
    const auto out = explore_set2(
        spec,
        {{spec::SetSpec::insert(1), spec::SetSpec::lookup(1),
          spec::SetSpec::remove(1)}},
        {.max_depth = 64, .mode = mode}, {.keys = true});
    EXPECT_TRUE(out.stats.exhausted);
    EXPECT_EQ(out.stats.executions_complete, 1u);
    EXPECT_EQ(out.stats.executions_pruned, 0u);
    EXPECT_EQ(out.lin_failures, 0u);
    EXPECT_EQ(out.keys.size(), 1u);
  }
}

// ------------------------------------------------------------ crash decisions

struct CrashExploreOutcome {
  sim::ExploreStats stats;
  std::set<std::string> keys;
  std::uint64_t lin_failures = 0;
  std::uint64_t crash_walks = 0;
  std::uint64_t max_crashes_seen = 0;
};

CrashExploreOutcome explore_set_with_crashes(sim::ExploreMode mode,
                                             std::uint32_t max_crashes) {
  const spec::SetSpec spec(4);
  CrashExploreOutcome out;
  auto explored = explore_set2(
      spec, {{spec::SetSpec::insert(1)}, {spec::SetSpec::insert(2)}},
      {.max_depth = 64,
       .max_executions = 2'000'000,
       .mode = mode,
       .max_crashes = max_crashes},
      {.complete = [&out](Set2&, const auto&,
                          const std::vector<sim::Decision>& prefix) {
         const auto crashes = static_cast<std::uint64_t>(std::count_if(
             prefix.begin(), prefix.end(),
             [](const sim::Decision& d) { return d.crash; }));
         if (crashes > 0) ++out.crash_walks;
         out.max_crashes_seen = std::max(out.max_crashes_seen, crashes);
       },
       .keys = true});
  out.stats = explored.stats;
  out.keys = std::move(explored.keys);
  out.lin_failures = explored.lin_failures;
  return out;
}

TEST(CrashExplorer, EnumeratesCrashConfigurationsNaiveAndDporAgree) {
  const auto naive0 = explore_set_with_crashes(sim::ExploreMode::kNaive, 0);
  const auto naive1 = explore_set_with_crashes(sim::ExploreMode::kNaive, 1);
  const auto dpor1 = explore_set_with_crashes(sim::ExploreMode::kDpor, 1);
  ASSERT_TRUE(naive0.stats.exhausted);
  ASSERT_TRUE(naive1.stats.exhausted);
  ASSERT_TRUE(dpor1.stats.exhausted);

  // max_crashes = 0 (the default) stays exactly crash-free.
  EXPECT_EQ(naive0.crash_walks, 0u);
  EXPECT_EQ(naive0.max_crashes_seen, 0u);

  // k = 1 enumerates strictly more configurations, every walk respects the
  // budget, and crashed histories stay linearizable (pending op may or may
  // not take effect — the checker's existing semantics).
  EXPECT_GT(naive1.crash_walks, 0u);
  EXPECT_LE(naive1.max_crashes_seen, 1u);
  EXPECT_GT(naive1.stats.executions_complete, naive0.stats.executions_complete);
  EXPECT_EQ(naive0.lin_failures, 0u);
  EXPECT_EQ(naive1.lin_failures, 0u);
  EXPECT_EQ(dpor1.lin_failures, 0u);

  // Crash-free histories are a subset of the crash-enabled set (every
  // crash-free walk is still enumerated).
  EXPECT_TRUE(std::includes(naive1.keys.begin(), naive1.keys.end(),
                            naive0.keys.begin(), naive0.keys.end()));

  // DPOR with crash decisions: fewer (or equal) executions, the SAME
  // complete-history set — crashes are conservatively dependent on
  // everything, so pruning must never drop a crash configuration class.
  EXPECT_LE(dpor1.stats.executions_complete, naive1.stats.executions_complete);
  EXPECT_EQ(naive1.keys, dpor1.keys)
      << "DPOR pruned (or invented) a crash-configuration history class";
}

}  // namespace
}  // namespace hi
