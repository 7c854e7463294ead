// §5.1's perfect-HI set (experiment E12b): the set over {1..t} escapes class
// C_t (update responses are constant, lookup is binary), and the trivial
// bitmap implementation from t binary registers is wait-free and *perfect*
// HI — memory equals the membership bitmap after every single step. These
// tests validate linearizability under full multi-process concurrency,
// perfect HI at every configuration, the Proposition 6 distance-1 property,
// and one-step wait-freedom.
#include <gtest/gtest.h>


#include "algo/hi_set.h"
#include "env/sim_env.h"
#include "sim/driver.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim_system.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using HiSet = algo::HiSetAlgPadded<env::SimEnv>;
using spec::SetSpec;

struct Sys : testing::SimSystem<SetSpec, HiSet> {
  explicit Sys(std::uint32_t domain, int num_procs)
      : SimSystem(SetSpec(domain), num_procs) {}
};

std::uint64_t bitmap_from_memory(const sim::MemorySnapshot& snap) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < snap.words.size(); ++i) {
    if (snap.words[i]) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

std::vector<std::vector<SetSpec::Op>> workload(std::uint32_t domain,
                                               int num_procs, std::size_t ops,
                                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<SetSpec::Op>> work(num_procs);
  for (auto& list : work) {
    for (std::size_t i = 0; i < ops; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
      switch (rng.next_below(3)) {
        case 0: list.push_back(SetSpec::insert(v)); break;
        case 1: list.push_back(SetSpec::remove(v)); break;
        default: list.push_back(SetSpec::lookup(v)); break;
      }
    }
  }
  return work;
}

TEST(HiSet, SoloSemantics) {
  Sys sys(10, 1);
  EXPECT_FALSE(sim::run_solo(sys.sched, 0, sys.impl.lookup(7)));
  EXPECT_TRUE(sim::run_solo(sys.sched, 0, sys.impl.insert(7)));
  EXPECT_TRUE(sim::run_solo(sys.sched, 0, sys.impl.lookup(7)));
  EXPECT_TRUE(sim::run_solo(sys.sched, 0, sys.impl.remove(7)));
  EXPECT_FALSE(sim::run_solo(sys.sched, 0, sys.impl.lookup(7)));
}

TEST(HiSet, EveryOperationIsOneStep) {
  Sys sys(8, 1);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto ops = workload(8, 1, 1, rng.next());
    const std::uint64_t before = sys.sched.steps_of(0);
    (void)sim::run_solo(sys.sched, 0, sys.impl.apply(0, ops[0][0]));
    EXPECT_EQ(sys.sched.steps_of(0) - before, 1u);
  }
}

TEST(HiSet, PerfectHiAtEveryStep) {
  // Definition 5: after every step of a fully concurrent execution, memory
  // equals the bitmap of the current abstract state. Because every op is a
  // single primitive, the abstract state after each step is exactly the
  // replayed prefix of applied primitives — which is the memory itself; we
  // verify the identity via a shadow model driven by op responses.
  const std::uint32_t domain = 10;
  const int n = 4;
  Sys sys(domain, n);
  const auto work = workload(domain, n, 20, 17);
  sim::Driver driver(sys.spec, sys.sched, sys.impl, work);
  util::Xoshiro256 rng(99);
  std::uint64_t shadow = 0;

  for (;;) {
    std::vector<int> enabled;
    for (int pid = 0; pid < n; ++pid) {
      if (driver.can_start(pid) || driver.can_step(pid)) {
        enabled.push_back(pid);
      }
    }
    if (enabled.empty()) break;
    const int pid = enabled[rng.next_below(enabled.size())];
    if (driver.can_start(pid)) {
      (void)driver.start(pid);
      continue;  // starting is not a step; memory unchanged
    }
    const auto op = driver.history()[driver.op_index(pid)].op;
    (void)driver.step(pid);
    // The single primitive just executed; update the shadow state.
    if (op.kind == SetSpec::Kind::kInsert) {
      shadow |= std::uint64_t{1} << (op.value - 1);
    } else if (op.kind == SetSpec::Kind::kRemove) {
      shadow &= ~(std::uint64_t{1} << (op.value - 1));
    }
    EXPECT_EQ(bitmap_from_memory(sys.mem.snapshot()), shadow);
  }
}

TEST(HiSet, Proposition6DistanceOne) {
  // Perfect HI requires adjacent states to have canonical representations at
  // distance ≤ 1 (Proposition 6); the bitmap layout achieves exactly that.
  const std::uint32_t domain = 8;
  const SetSpec spec(domain);
  auto canon = [&](std::uint64_t state) {
    Sys sys(domain, 1);
    for (std::uint32_t v = 1; v <= domain; ++v) {
      if ((state >> (v - 1)) & 1) {
        (void)sim::run_solo(sys.sched, 0, sys.impl.insert(v));
      }
    }
    return sys.mem.snapshot();
  };
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t state = rng.next_below(1u << domain);
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
    const auto op = rng.chance(1, 2) ? SetSpec::insert(v) : SetSpec::remove(v);
    const std::uint64_t next_state =
        spec.apply(state, op).first;
    EXPECT_LE(canon(state).distance(canon(next_state)), 1u);
  }
}

class HiSetRandom
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(HiSetRandom, LinearizableUnderFullConcurrency) {
  const auto [n, seed] = GetParam();
  Sys sys(10, n);
  sim::Runner<SetSpec, HiSet> runner(
      sys.spec, sys.mem, sys.sched, sys.impl,
      [&](const auto&) { return bitmap_from_memory(sys.mem.snapshot()); });
  auto result = runner.run(workload(10, n, 12, seed), {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.history.num_pending(), 0u);
  EXPECT_TRUE(verify::check_linearizable(sys.spec, result.history).ok())
      << "n=" << n << " seed=" << seed;
}

TEST_P(HiSetRandom, HiAcrossExecutions) {
  const auto [n, seed] = GetParam();
  verify::HiChecker checker;
  for (std::uint64_t sub = 0; sub < 8; ++sub) {
    Sys sys(10, n);
    sim::Runner<SetSpec, HiSet> runner(
        sys.spec, sys.mem, sys.sched, sys.impl, [&](const auto&) {
          return bitmap_from_memory(sys.mem.snapshot());
        });
    auto result =
        runner.run(workload(10, n, 10, seed * 50 + sub), {.seed = sub + 1});
    ASSERT_FALSE(result.timed_out);
    for (const auto& obs : result.state_quiescent) {
      checker.observe(obs.state, obs.mem, "sub=" + std::to_string(sub));
    }
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HiSetRandom,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace hi
