// Experiment E13: the non-HI baseline universal construction
// (Fatourou–Kallimanis-style, src/algo/leaky_universal.h) is
// linearizable and wait-free on the same workloads as Algorithm 5 — but the
// HI checker rejects it, and the leak is attributable: the version counter
// reveals the operation count, and the announce/result tables reveal each
// process's last operation and response. Algorithm 5 passes the identical
// workloads (test_universal.cpp); this file demonstrates the separation.
#include <gtest/gtest.h>

#include "algo/leaky_universal.h"
#include "algo/rllsc.h"
#include "env/sim_env.h"
#include "universal_common.h"
#include "sim_system.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using spec::CounterSpec;
using SimLeaky = algo::LeakyUniversalAlg<env::SimEnv, CounterSpec>;

struct LeakySys : testing::SimSystem<CounterSpec, SimLeaky> {
  explicit LeakySys(int n) : SimSystem(CounterSpec(1u << 20, 10), n, n) {}
};

TEST(LeakyUniversal, SequentialSemantics) {
  LeakySys sys(2);
  EXPECT_EQ(sim::run_solo(sys.sched, 0,
                          sys.impl.apply(0, CounterSpec::inc())),
            10u);
  EXPECT_EQ(sim::run_solo(sys.sched, 1,
                          sys.impl.apply(1, CounterSpec::inc())),
            11u);
  EXPECT_EQ(sim::run_solo(sys.sched, 0,
                          sys.impl.apply(0, CounterSpec::read())),
            12u);
  EXPECT_EQ(sim::run_solo(sys.sched, 0,
                          sys.impl.apply(0, CounterSpec::dec())),
            12u);
  EXPECT_EQ(sys.impl.head_state_encoded(), 11u);
}

TEST(LeakyUniversal, LinearizableUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int n = 3;
    LeakySys sys(n);
    sim::Runner<CounterSpec, SimLeaky> runner(
        sys.spec, sys.mem, sys.sched, sys.impl,
        [&](const auto&) { return sys.impl.head_state_encoded(); });
    auto result = runner.run(
        testing::universal_workload<CounterSpec>(n, 12, seed * 5),
        {.seed = seed});
    ASSERT_FALSE(result.timed_out);
    ASSERT_EQ(result.history.num_pending(), 0u);
    EXPECT_TRUE(verify::check_linearizable(sys.spec, result.history).ok())
        << "seed=" << seed;
  }
}

TEST(LeakyUniversal, VersionCounterLeaksOperationCount) {
  // Two histories reaching the same abstract state with different numbers of
  // operations: inc vs inc,inc,dec. Same state, different memory — the §6.1
  // counter example, realized by the baseline.
  LeakySys short_run(2);
  (void)sim::run_solo(short_run.sched, 0,
                      short_run.impl.apply(0, CounterSpec::inc()));

  LeakySys long_run(2);
  (void)sim::run_solo(long_run.sched, 0,
                      long_run.impl.apply(0, CounterSpec::inc()));
  (void)sim::run_solo(long_run.sched, 0,
                      long_run.impl.apply(0, CounterSpec::inc()));
  (void)sim::run_solo(long_run.sched, 0,
                      long_run.impl.apply(0, CounterSpec::dec()));

  ASSERT_EQ(short_run.impl.head_state_encoded(),
            long_run.impl.head_state_encoded());
  EXPECT_NE(short_run.mem.snapshot(), long_run.mem.snapshot());
  EXPECT_EQ(short_run.impl.version(), 1u);
  EXPECT_EQ(long_run.impl.version(), 3u);
}

TEST(LeakyUniversal, HiCheckerRejectsQuiescentPoints) {
  verify::HiChecker checker;
  for (std::uint64_t seed = 1; seed <= 6 && checker.consistent(); ++seed) {
    const int n = 2;
    LeakySys sys(n);
    sim::Runner<CounterSpec, SimLeaky> runner(
        sys.spec, sys.mem, sys.sched, sys.impl,
        [&](const auto&) { return sys.impl.head_state_encoded(); });
    auto result = runner.run(
        testing::universal_workload<CounterSpec>(n, 10, seed * 11),
        {.seed = seed});
    ASSERT_FALSE(result.timed_out);
    for (const auto& obs : result.quiescent) {
      checker.observe(obs.state, obs.mem, "seed=" + std::to_string(seed));
    }
  }
  EXPECT_FALSE(checker.consistent())
      << "the baseline unexpectedly looked history independent";
}

TEST(LeakyUniversal, SideBySideWithAlgorithm5) {
  // The decisive comparison: identical workload, identical final state; the
  // baseline's memory depends on the path taken, Algorithm 5's does not.
  auto drive = [](auto& sys, const std::vector<CounterSpec::Op>& ops) {
    for (const auto& op : ops) {
      (void)sim::run_solo(sys.sched, 0, sys.impl.apply(0, op));
    }
  };
  const std::vector<CounterSpec::Op> path_a = {CounterSpec::inc()};
  const std::vector<CounterSpec::Op> path_b = {
      CounterSpec::inc(), CounterSpec::dec(), CounterSpec::inc()};

  LeakySys leaky_a(2), leaky_b(2);
  drive(leaky_a, path_a);
  drive(leaky_b, path_b);
  EXPECT_NE(leaky_a.mem.snapshot(), leaky_b.mem.snapshot())
      << "baseline should leak";

  testing::UniversalSystem<CounterSpec, algo::CasRllscAlg<env::SimEnv>> hi_a(2),
      hi_b(2);
  drive(hi_a, path_a);
  drive(hi_b, path_b);
  EXPECT_EQ(hi_a.mem.snapshot(), hi_b.mem.snapshot())
      << "Algorithm 5 must not leak";
}

}  // namespace
}  // namespace hi
