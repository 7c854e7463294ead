// Bounded model checking (experiments E4/E5/E10/E11/E12 strengthened): for
// small workloads we enumerate EVERY schedule and check linearizability on
// every complete execution plus canonical-memory history independence at
// every configuration the object's HI level makes observable — not
// sampling. The rows are explore_rows<kExhaustive>() (tests/objects.h),
// named Exhaustive.<entry>_<label>, with the R-LLSC and universal checks
// hooked in (explore_extra); Algorithm 1's controls and the off-table
// native-cell universal (plain, and combining under DPOR) follow as TESTs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "algo/universal.h"
#include "env/sim_env.h"
#include "explore.h"
#include "objects.h"
#include "sim/native_rllsc.h"
#include "sim_system.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"

namespace hi {
namespace {

/// Lemmas 26/27: at every state-quiescent configuration reached by any
/// schedule prefix, head holds no response, no process is in head's
/// context, and every announce cell is ⊥.
template <typename S, typename System>
std::function<void()> lemmas_26_27(testing::ExploreChecks<S, System>& checks) {
  auto failures = std::make_shared<std::uint64_t>(0);
  checks.observe = [failures](System& sys, const auto&, int,
                              int state_changing) {
    if (state_changing != 0) return;
    bool ok = !sys.impl.head_has_response() && sys.impl.context_union() == 0;
    for (int pid = 0; pid < sys.sched.num_processes(); ++pid) {
      ok = ok && sys.impl.announce_is_bottom(pid);
    }
    if (!ok) ++*failures;
  };
  return [failures] {
    EXPECT_EQ(*failures, 0u) << "Lemma 26/27 broken at a state-quiescent "
                                "configuration";
  };
}

template <typename Row>
testing::ExploreExtra<Row> explore_extra(const Row&) {
  using E = typename Row::Entry;
  if constexpr (std::is_same_v<E, testing::CasRllsc>) {
    // The cell's mem(C) words are exactly (value, ctx) at every
    // configuration.
    return [](auto& checks) -> std::function<void()> {
      auto mismatches = std::make_shared<std::uint64_t>(0);
      checks.observe = [mismatches](auto& sys, const auto&, int, int) {
        const auto snap = sys.mem.snapshot();
        if (snap.words.size() != 3 ||
            snap.words[0] != sys.impl.peek_value().lo ||
            snap.words[2] != sys.impl.peek_context()) {
          ++*mismatches;
        }
      };
      return [mismatches] { EXPECT_EQ(*mismatches, 0u); };
    };
  } else if constexpr (std::is_same_v<E, testing::UniversalPlain>) {
    return [](auto& checks) { return lemmas_26_27(checks); };
  } else {
    return nullptr;
  }
}

const bool kRowsRegistered = testing::register_rows<
    testing::explore_rows<testing::ExploreSuite::kExhaustive>>(
    "Exhaustive", [](const auto& row) { return testing::row_name(row); },
    [](const auto& row) { testing::run_explore(row, explore_extra(row)); });

// ---- negative control and off-table objects ----

TEST(Exhaustive, Alg1Control_LeakIsFoundByExploration) {
  // Negative control: the rung's own exploration, with state-quiescent HI
  // demanded of Algorithm 1, must CATCH its leak — Write(2); Write(1)
  // reaches state 1 with memory the initial state 1 does not have.
  using E = testing::VidyasankarPadded;
  const spec::RegisterSpec spec(3, 1);
  const auto out = testing::explore<testing::EntrySystem<E>>(
      spec, testing::entry_factory<E>(spec, 2),
      {{spec::RegisterSpec::write(2), spec::RegisterSpec::write(1)}, {}},
      {.max_depth = 20, .max_executions = 10'000},
      {.hi = testing::HiLevel::kStateQuiescent});
  EXPECT_FALSE(out.hi.consistent()) << "exploration missed the Alg 1 leak";
}

TEST(Exhaustive, Alg1Control_LeakStillFoundUnderDpor) {
  // The same negative control over DPOR representatives only: equivalent
  // executions share quiescent memory images, so one representative per
  // class must still expose the leak.
  using E = testing::VidyasankarPadded;
  const spec::RegisterSpec spec(3, 1);
  const auto out = testing::explore<testing::EntrySystem<E>>(
      spec, testing::entry_factory<E>(spec, 2),
      {{spec::RegisterSpec::write(2), spec::RegisterSpec::write(1)}, {}},
      {.max_depth = 20, .max_executions = 10'000,
       .mode = sim::ExploreMode::kDpor},
      {.hi = testing::HiLevel::kStateQuiescent});
  EXPECT_FALSE(out.hi.consistent()) << "DPOR exploration missed the Alg 1 leak";
}

/// Algorithm 5 over native R-LLSC cells: an object the table does not hold.
using NativeUniversal = testing::SimSystem<
    spec::CounterSpec,
    algo::UniversalAlg<env::SimEnv, spec::CounterSpec, sim::NativeRllsc>>;

TEST(Exhaustive, UniversalNativeCells_IncVsDec_Bounded) {
  // Algorithm 5 over native R-LLSC cells. Even with single-step cells the
  // helping paths make the full schedule space larger than 2M executions,
  // so this run is capped: a prefix-closed subset of all schedules, every
  // one checked.
  using System = NativeUniversal;
  const spec::CounterSpec spec(100, 5);
  testing::ExploreChecks<spec::CounterSpec, System> checks{
      .hi = testing::HiLevel::kStateQuiescent};
  const auto lemmas = lemmas_26_27(checks);
  const auto out = testing::explore<System>(
      spec, [&spec] { return std::make_unique<System>(spec, 2, 2); },
      {{spec::CounterSpec::inc()}, {spec::CounterSpec::dec()}},
      {.max_depth = 120, .max_executions = 300'000}, checks);
  testing::expect_clean(out, /*exhausts=*/false, /*min_complete=*/100);
  lemmas();
}

TEST(Exhaustive, CombiningUniversal_DporExhaustsAndCoversNaiveHistories) {
  // inc ‖ inc over the combine=true universal, on native R-LLSC cells (the
  // shallowest step count, which is what bounds the naive tree; the same
  // system as the native run above, so this TU compiles its explorer once).
  // Combining is lock-free, not wait-free: a process scheduled against a
  // parked winner spins on the combining record, so at ANY depth admitting
  // completions (~30 decisions) the unreduced tree holds millions of
  // starvation walks — naive DFS cannot exhaust it under a practical cap
  // (measured: >5M leaves at depth 32 and 36 alike). DPOR exhausts it
  // outright. So the history-set comparison runs in two directions that ARE
  // decidable:
  //   * DPOR's complete-history set is exactly the 4 analytically possible
  //     classes for inc ‖ inc from state 10 — responses a permutation of
  //     {10, 11}, precedence p0<p1 / p1<p0 (assignment forced) or
  //     concurrent (both assignments) — i.e. batching invented nothing and
  //     lost nothing;
  //   * every history the capped naive walk DID reach is one DPOR kept.
  using System = NativeUniversal;
  const spec::CounterSpec spec(1u << 20, 10);
  const auto run = [&spec](sim::ExploreMode mode) {
    return testing::explore<System>(
        spec,
        [&spec] {
          return std::make_unique<System>(spec, 2, /*num_processes=*/2,
                                          /*clear_contexts=*/true,
                                          /*combine=*/true);
        },
        {{spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}},
        {.max_depth = 36, .max_executions = 400'000, .mode = mode},
        {.keys = true});
  };

  const auto dpor = run(sim::ExploreMode::kDpor);
  testing::expect_clean(dpor, /*exhausts=*/true, /*min_complete=*/1, "dpor");
  EXPECT_EQ(dpor.keys.size(), 4u)
      << "expected exactly the 4 response/precedence classes of inc ‖ inc";

  const auto naive = run(sim::ExploreMode::kNaive);
  EXPECT_FALSE(naive.stats.exhausted)
      << "naive DFS exhausted the combining tree — the spin blowup is gone, "
         "tighten this test back to full set equality";
  EXPECT_EQ(naive.lin_failures, 0u);
  EXPECT_FALSE(naive.keys.empty());
  EXPECT_TRUE(std::includes(dpor.keys.begin(), dpor.keys.end(),
                            naive.keys.begin(), naive.keys.end()))
      << "naive DFS reached a history DPOR pruned away";
}

}  // namespace
}  // namespace hi
