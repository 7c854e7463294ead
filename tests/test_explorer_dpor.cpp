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
//   3. BUG PRESERVATION — the two known positive controls (Algorithm 1's
//      HI leak, the broken counter's lost update) are still caught when
//      exploring only DPOR representatives.
//   4. LIMITS — max_executions clears `exhausted`, max_depth counts
//      truncated walks, try_execute rejects invalid sequences, and
//      trace_of(current_prefix()) round-trips through verify/replay.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/hi_set.h"
#include "core/sharded_set.h"
#include "core/universal.h"
#include "core/vidyasankar.h"
#include "env/replay_env.h"
#include "fuzz_common.h"
#include "sim/explorer.h"
#include "sim/harness.h"
#include "sim_system.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"
#include "verify/replay.h"

namespace hi {
namespace {

// ---------------------------------------------------------------- history keys

/// Canonical key of a history: per-operation (pid, encoded op, encoded
/// response) labelled in (pid, invocation-order) order, plus the real-time
/// precedence relation over those labels. Invariant under exactly the
/// reorderings DPOR prunes (swaps of adjacent independent events preserve
/// per-process order, responses, and precedence), so equality of key SETS
/// across modes is the soundness assertion.
template <typename S, typename Hist>
std::string history_key(const S& spec, const Hist& hist) {
  const auto& entries = hist.entries();
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries[a].pid != entries[b].pid) return entries[a].pid < entries[b].pid;
    return entries[a].invoked_at < entries[b].invoked_at;
  });
  std::vector<std::size_t> label(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) label[order[i]] = i;

  std::ostringstream out;
  for (const std::size_t idx : order) {
    const auto& e = entries[idx];
    out << 'p' << e.pid << ':' << spec.encode_op(e.op) << ':';
    if (e.completed()) {
      out << spec.encode_resp(e.resp);
    } else {
      out << '?';
    }
    out << ';';
  }
  out << '|';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (i != j && entries[i].precedes(entries[j])) {
        out << label[i] << '<' << label[j] << ';';
      }
    }
  }
  return out.str();
}

// ------------------------------------------------------------------- systems

struct Set3System : testing::SimSystem<spec::SetSpec, core::HiSet> {
  Set3System() : SimSystem(spec::SetSpec(6), 3) {}
};

/// 3 processes × 4 striped shards, each process working a key in its OWN
/// shard (kStriped: key k → shard (k-1) % 4, so keys 1/2/3 are pairwise
/// cross-shard): maximal inter-process independence, the configuration DPOR
/// is for.
struct CrossShard3System
    : testing::SimSystem<spec::SetSpec, core::ShardedHiSet> {
  CrossShard3System()
      : SimSystem(spec::SetSpec(12), 3, /*shard_count=*/4,
                  algo::ShardPlacement::kStriped) {}
};

template <typename System>
struct ExploreOutcome {
  sim::ExploreStats stats;
  std::set<std::string> history_keys;
  std::uint64_t lin_failures = 0;
};

template <typename S, typename System>
ExploreOutcome<System> explore_mode(
    const S& spec, std::vector<std::vector<typename S::Op>> work,
    sim::ExploreMode mode, std::uint64_t max_executions = 2'000'000,
    typename sim::Explorer<S, System>::Factory factory = nullptr,
    std::size_t max_depth = 64) {
  if (!factory) {
    if constexpr (std::default_initializable<System>) {
      factory = [] { return std::make_unique<System>(); };
    }
  }
  sim::Explorer<S, System> explorer(spec, std::move(factory), std::move(work));
  ExploreOutcome<System> outcome;
  outcome.stats = explorer.explore(
      {.max_depth = max_depth, .max_executions = max_executions, .mode = mode},
      nullptr, [&](System&, const auto& hist) {
        outcome.history_keys.insert(history_key(spec, hist));
        if (!verify::check_linearizable(spec, hist).ok()) {
          ++outcome.lin_failures;
        }
      });
  return outcome;
}

// ------------------------------------------------- soundness + reduction ratio

TEST(ExplorerDpor, HiSet3Proc_SameHistorySetStrictlyFewerExecutions) {
  const spec::SetSpec spec(6);
  const std::vector<std::vector<spec::SetSpec::Op>> work = {
      {spec::SetSpec::insert(1), spec::SetSpec::remove(2)},
      {spec::SetSpec::insert(2), spec::SetSpec::lookup(1)},
      {spec::SetSpec::insert(3)}};

  const auto naive =
      explore_mode<spec::SetSpec, Set3System>(spec, work, sim::ExploreMode::kNaive);
  const auto dpor =
      explore_mode<spec::SetSpec, Set3System>(spec, work, sim::ExploreMode::kDpor);

  ASSERT_TRUE(naive.stats.exhausted);
  ASSERT_TRUE(dpor.stats.exhausted);
  EXPECT_EQ(naive.lin_failures, 0u);
  EXPECT_EQ(dpor.lin_failures, 0u);

  // Strict reduction: DPOR must complete fewer walks than the unreduced
  // enumeration (the ratio on this workload is well over 2×; assert the
  // direction, not the brittle exact counts).
  EXPECT_GT(naive.stats.executions_complete, 0u);
  EXPECT_LT(dpor.stats.executions_complete, naive.stats.executions_complete)
      << "DPOR explored as many executions as naive DFS — no reduction";

  // Soundness: identical complete-execution history sets.
  EXPECT_FALSE(naive.history_keys.empty());
  EXPECT_EQ(naive.history_keys, dpor.history_keys)
      << "DPOR pruned a non-equivalent interleaving (or invented one)";
}

TEST(ExplorerDpor, BrokenCounter_SameHistorySetIncludingViolations) {
  // inc ‖ inc ‖ read on the lost-update counter: the history set contains
  // non-linearizable members; DPOR must preserve them exactly.
  const testing::NaiveCounterSpec spec;
  const std::vector<std::vector<testing::NaiveCounterSpec::Op>> work = {
      {testing::NaiveCounterSpec::inc()},
      {testing::NaiveCounterSpec::inc()},
      {testing::NaiveCounterSpec::read()}};

  const auto factory = [] {
    return std::make_unique<testing::BrokenCounterSystem>(3);
  };
  const auto naive = explore_mode<testing::NaiveCounterSpec,
                                  testing::BrokenCounterSystem>(
      spec, work, sim::ExploreMode::kNaive, 2'000'000, factory);
  const auto dpor = explore_mode<testing::NaiveCounterSpec,
                                 testing::BrokenCounterSystem>(
      spec, work, sim::ExploreMode::kDpor, 2'000'000, factory);

  ASSERT_TRUE(naive.stats.exhausted);
  ASSERT_TRUE(dpor.stats.exhausted);
  EXPECT_GT(naive.lin_failures, 0u) << "positive control lost its bug";
  EXPECT_GT(dpor.lin_failures, 0u)
      << "DPOR pruned every execution exhibiting the seeded lost update";
  EXPECT_LT(dpor.stats.executions_complete, naive.stats.executions_complete);
  EXPECT_EQ(naive.history_keys, dpor.history_keys);
}

// -------------------------------------------------------------------- scale

TEST(ExplorerDpor, CrossShard3Proc_ExhaustsUnderCapWhereNaiveCannot) {
  // 3 processes × (insert k; remove k) on pairwise cross-shard keys: 12
  // decisions, 12!/(4!)³ = 34650 naive complete executions. kCap is sized
  // between the DPOR and naive counts, so the SAME limits exhaust under
  // DPOR and overflow under naive DFS — the "previously exceeded
  // max_executions, now exhausts" acceptance criterion, in miniature.
  const spec::SetSpec spec(12);
  const std::vector<std::vector<spec::SetSpec::Op>> work = {
      {spec::SetSpec::insert(1), spec::SetSpec::remove(1)},
      {spec::SetSpec::insert(2), spec::SetSpec::remove(2)},
      {spec::SetSpec::insert(3), spec::SetSpec::remove(3)}};
  constexpr std::uint64_t kCap = 20'000;

  const auto dpor = explore_mode<spec::SetSpec, CrossShard3System>(
      spec, work, sim::ExploreMode::kDpor, kCap);
  ASSERT_TRUE(dpor.stats.exhausted)
      << "DPOR needed more than " << kCap << " executions ("
      << dpor.stats.executions_complete << " complete, "
      << dpor.stats.executions_pruned << " pruned)";
  EXPECT_EQ(dpor.lin_failures, 0u);

  const auto naive = explore_mode<spec::SetSpec, CrossShard3System>(
      spec, work, sim::ExploreMode::kNaive, kCap);
  EXPECT_FALSE(naive.stats.exhausted)
      << "the cap is no longer tight for naive DFS — shrink kCap";

  // And the reduced run still covers the full history set: every complete
  // history naive found below the cap is (a representative of) one DPOR
  // found, and the full naive enumeration is known to be 34650 executions.
  const auto naive_full = explore_mode<spec::SetSpec, CrossShard3System>(
      spec, work, sim::ExploreMode::kNaive, 100'000);
  ASSERT_TRUE(naive_full.stats.exhausted);
  EXPECT_EQ(naive_full.stats.executions_complete, 34650u);
  EXPECT_EQ(naive_full.history_keys, dpor.history_keys);
}

// ------------------------------------------------- flat-combining universal

/// 2-process flat-combining universal counter over native R-LLSC cells (the
/// shallowest step count, which is what bounds the naive tree).
struct UniversalCombine2System
    : testing::SimSystem<spec::CounterSpec,
                         core::Universal<spec::CounterSpec, core::NativeRllsc>> {
  UniversalCombine2System()
      : SimSystem(spec::CounterSpec(1u << 20, 10), 2, /*num_processes=*/2,
                  /*clear_contexts=*/true, /*combine=*/true) {}
};

TEST(ExplorerDpor, CombiningUniversal_DporExhaustsAndCoversNaiveHistories) {
  // inc ‖ inc over the combine=true universal. Combining is lock-free, not
  // wait-free: a process scheduled against a parked winner spins on the
  // combining record, so at ANY depth admitting completions (~30 decisions)
  // the unreduced tree holds millions of starvation walks — naive DFS
  // cannot exhaust it under a practical cap (measured: >5M leaves at depth
  // 32 and 36 alike). DPOR exhausts it outright. So the history-set
  // comparison runs in two directions that ARE decidable:
  //   * DPOR's complete-history set is exactly the 4 analytically possible
  //     classes for inc ‖ inc from state 10 — responses a permutation of
  //     {10, 11}, precedence p0<p1 / p1<p0 (assignment forced) or
  //     concurrent (both assignments) — i.e. batching invented nothing and
  //     lost nothing;
  //   * every history the capped naive walk DID reach is one DPOR kept.
  const spec::CounterSpec spec(1u << 20, 10);
  const std::vector<std::vector<spec::CounterSpec::Op>> work = {
      {spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}};
  constexpr std::size_t kDepth = 36;
  constexpr std::uint64_t kCap = 400'000;

  const auto dpor = explore_mode<spec::CounterSpec, UniversalCombine2System>(
      spec, work, sim::ExploreMode::kDpor, kCap, nullptr, kDepth);
  ASSERT_TRUE(dpor.stats.exhausted)
      << "DPOR needed more than " << kCap << " executions";
  EXPECT_EQ(dpor.lin_failures, 0u);
  EXPECT_EQ(dpor.history_keys.size(), 4u)
      << "expected exactly the 4 response/precedence classes of inc ‖ inc";

  const auto naive = explore_mode<spec::CounterSpec, UniversalCombine2System>(
      spec, work, sim::ExploreMode::kNaive, kCap, nullptr, kDepth);
  EXPECT_FALSE(naive.stats.exhausted)
      << "naive DFS exhausted the combining tree — the spin blowup is gone, "
         "tighten this test back to full set equality";
  EXPECT_EQ(naive.lin_failures, 0u);
  EXPECT_FALSE(naive.history_keys.empty());
  EXPECT_TRUE(std::includes(dpor.history_keys.begin(), dpor.history_keys.end(),
                            naive.history_keys.begin(),
                            naive.history_keys.end()))
      << "naive DFS reached a history DPOR pruned away";
}

// --------------------------------------------------------- bug preservation

struct VidySystem
    : testing::SimSystem<spec::RegisterSpec, core::VidyasankarRegister> {
  VidySystem()
      : SimSystem(spec::RegisterSpec(3, 1), 2, /*writer=*/0, /*reader=*/1) {}
};

TEST(ExplorerDpor, Alg1Control_LeakStillFoundUnderDpor) {
  // The Exhaustive.Alg1Control negative control, re-run over DPOR
  // representatives only: equivalent executions share quiescent memory
  // images, so one representative per class must still expose the leak.
  const spec::RegisterSpec spec(3, 1);
  using System = VidySystem;
  verify::HiChecker checker;
  {
    System solo;
    (void)sim::run_solo(solo.sched, 0, solo.impl.write(0, 1));
    ASSERT_TRUE(checker.set_canonical(1, solo.mem.snapshot()));
  }
  sim::Explorer<spec::RegisterSpec, System> explorer(
      spec, [] { return std::make_unique<System>(); },
      {{spec::RegisterSpec::write(2), spec::RegisterSpec::write(1)}, {}});
  (void)explorer.explore(
      {.max_depth = 20, .max_executions = 10'000,
       .mode = sim::ExploreMode::kDpor},
      [&](System& sys, const auto& hist, int, int state_changing_pending) {
        if (state_changing_pending != 0) return;
        std::uint64_t state = 1;
        for (const auto& e : hist.entries()) {
          if (e.completed() && e.op.kind == spec::RegisterSpec::Kind::kWrite) {
            state = e.op.value;
          }
        }
        checker.observe(state, sys.mem.snapshot(), "dpor-explored");
      },
      nullptr);
  EXPECT_FALSE(checker.consistent()) << "DPOR exploration missed the Alg 1 leak";
}

// ------------------------------------------------------------------- limits

struct Set2System : testing::SimSystem<spec::SetSpec, core::HiSet> {
  Set2System() : SimSystem(spec::SetSpec(4), 2) {}
};

std::vector<std::vector<spec::SetSpec::Op>> two_proc_set_work() {
  return {{spec::SetSpec::insert(1), spec::SetSpec::remove(2)},
          {spec::SetSpec::insert(2), spec::SetSpec::lookup(1)}};
}

TEST(ExplorerLimits, MaxExecutionsCapClearsExhausted) {
  const spec::SetSpec spec(4);
  sim::Explorer<spec::SetSpec, Set2System> explorer(
      spec, [] { return std::make_unique<Set2System>(); },
      two_proc_set_work());
  const auto stats =
      explorer.explore({.max_depth = 64, .max_executions = 5}, nullptr, nullptr);
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
  sim::Explorer<spec::SetSpec, Set2System> explorer(
      spec, [] { return std::make_unique<Set2System>(); },
      two_proc_set_work());
  const auto stats = explorer.explore(
      {.max_depth = 3, .max_executions = 1'000'000}, nullptr, nullptr);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.executions_complete, 0u);
  EXPECT_GT(stats.executions_truncated, 0u);
}

TEST(ExplorerLimits, TryExecuteRejectsInvalidSequences) {
  const spec::SetSpec spec(4);
  sim::Explorer<spec::SetSpec, Set2System> explorer(
      spec, [] { return std::make_unique<Set2System>(); },
      two_proc_set_work());
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
  const std::uint32_t domain = 4;
  const spec::SetSpec spec(domain);
  const auto work = two_proc_set_work();
  sim::Explorer<spec::SetSpec, Set2System> explorer(
      spec, [] { return std::make_unique<Set2System>(); }, work);

  std::optional<std::vector<sim::Decision>> captured;
  std::uint64_t seen = 0;
  (void)explorer.explore(
      {.max_depth = 64, .max_executions = 200}, nullptr,
      [&](Set2System&, const auto&) {
        // Skip a few executions so the captured path is not the all-p0
        // leftmost walk.
        if (++seen == 7 && !captured.has_value()) {
          captured = explorer.current_prefix();
        }
      });
  ASSERT_TRUE(captured.has_value());
  const sim::ScheduleTrace trace = explorer.trace_of(*captured);
  ASSERT_EQ(trace.steps.size(), captured->size());

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  core::HiSet sim_impl(sim_memory, spec);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::HiSetAlgPadded<env::ReplayEnv> replay_impl(replay_memory, spec);
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
  const std::vector<std::vector<spec::SetSpec::Op>> work = {
      {spec::SetSpec::insert(1), spec::SetSpec::lookup(1),
       spec::SetSpec::remove(1)}};
  for (const auto mode : {sim::ExploreMode::kNaive, sim::ExploreMode::kDpor}) {
    const auto outcome =
        explore_mode<spec::SetSpec, Set2System>(spec, work, mode);
    EXPECT_TRUE(outcome.stats.exhausted);
    EXPECT_EQ(outcome.stats.executions_complete, 1u);
    EXPECT_EQ(outcome.stats.executions_pruned, 0u);
    EXPECT_EQ(outcome.lin_failures, 0u);
    EXPECT_EQ(outcome.history_keys.size(), 1u);
  }
}

}  // namespace
}  // namespace hi
