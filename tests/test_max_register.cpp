// §5.1's max register (experiment E12a): NOT in class C_t (state graph not
// strongly connected), and indeed the modified Algorithm 1 gives a wait-free
// *state-quiescent* HI implementation from binary registers — the very
// combination that Theorem 17 forbids for registers. These tests validate
// linearizability, the canonical one-hot representation at state-quiescent
// points, wait-freedom of both operations, and that the starvation adversary
// has no leverage (it cannot move the state freely).
#include <gtest/gtest.h>

#include "algo/max_register.h"
#include "env/sim_env.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/max_register_spec.h"
#include "util/rng.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using HiMaxRegister = algo::HiMaxRegisterAlgPadded<env::SimEnv>;
using spec::MaxRegisterSpec;

constexpr int kWriter = 0;
constexpr int kReader = 1;

struct Sys {
  MaxRegisterSpec spec;
  sim::Memory memory;
  sim::Scheduler sched;
  HiMaxRegister impl;

  explicit Sys(std::uint32_t k, std::uint32_t initial = 1)
      : spec(k, initial), sched(2), impl(memory, spec, kWriter, kReader) {}
};

template <typename Hist>
std::uint64_t max_oracle(const Hist& history, std::uint64_t initial) {
  std::uint64_t value = initial;
  for (const auto& entry : history.entries()) {
    if (entry.op.kind == MaxRegisterSpec::Kind::kWriteMax &&
        entry.completed()) {
      value = std::max<std::uint64_t>(value, entry.op.value);
    }
  }
  return value;
}

std::vector<std::vector<MaxRegisterSpec::Op>> workload(std::uint32_t k,
                                                       std::size_t ops,
                                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<MaxRegisterSpec::Op>> work(2);
  for (std::size_t i = 0; i < ops; ++i) {
    work[kWriter].push_back(MaxRegisterSpec::write_max(
        static_cast<std::uint32_t>(rng.next_in(1, k))));
    work[kReader].push_back(MaxRegisterSpec::read_max());
  }
  return work;
}

TEST(HiMaxRegister, SoloMonotoneSemantics) {
  Sys sys(8);
  (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, 5));
  EXPECT_EQ(sim::run_solo(sys.sched, kReader, sys.impl.read_max(kReader)), 5u);
  (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, 3));
  EXPECT_EQ(sim::run_solo(sys.sched, kReader, sys.impl.read_max(kReader)), 5u)
      << "smaller write must be absorbed";
  (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, 8));
  EXPECT_EQ(sim::run_solo(sys.sched, kReader, sys.impl.read_max(kReader)), 8u);
}

TEST(HiMaxRegister, AbsorbedWriteLeavesNoFootprint) {
  // WriteMax(v ≤ max) must not touch shared memory at all — otherwise the
  // footprint would reveal that the absorbed write happened.
  Sys sys(6);
  (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, 4));
  const auto before = sys.memory.snapshot();
  const std::uint64_t steps_before = sys.sched.steps_of(kWriter);
  (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, 2));
  EXPECT_EQ(sys.memory.snapshot(), before);
  EXPECT_EQ(sys.sched.steps_of(kWriter), steps_before);
}

TEST(HiMaxRegister, CanonicalOneHot) {
  for (std::uint32_t v = 1; v <= 6; ++v) {
    Sys sys(6);
    if (v > 1) {
      (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, v));
    }
    const auto snap = sys.memory.snapshot();
    for (std::uint32_t j = 1; j <= 6; ++j) {
      EXPECT_EQ(snap.words[j - 1], j == v ? 1u : 0u) << "v=" << v;
    }
  }
}

class HiMaxRegisterRandom
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(HiMaxRegisterRandom, Linearizable) {
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<MaxRegisterSpec, HiMaxRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return max_oracle(hist, 1); });
  auto result = runner.run(workload(k, 25, seed), {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.history.num_pending(), 0u);
  EXPECT_TRUE(verify::check_linearizable(sys.spec, result.history).ok())
      << "k=" << k << " seed=" << seed;
}

TEST_P(HiMaxRegisterRandom, StateQuiescentHI) {
  const auto [k, seed] = GetParam();
  verify::HiChecker checker;
  // Canonical map from sequential runs.
  for (std::uint32_t v = 1; v <= k; ++v) {
    Sys sys(k);
    if (v > 1) {
      (void)sim::run_solo(sys.sched, kWriter, sys.impl.write_max(kWriter, v));
    }
    ASSERT_TRUE(checker.set_canonical(v, sys.memory.snapshot()));
  }
  Sys sys(k);
  sim::Runner<MaxRegisterSpec, HiMaxRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return max_oracle(hist, 1); });
  auto result = runner.run(workload(k, 30, seed), {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  for (const auto& obs : result.state_quiescent) {
    checker.observe(obs.state, obs.mem, "seed=" + std::to_string(seed));
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
}

TEST_P(HiMaxRegisterRandom, BothOperationsWaitFree) {
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<MaxRegisterSpec, HiMaxRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return max_oracle(hist, 1); });
  auto result = runner.run(workload(k, 30, seed), {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_LE(result.op_steps[i], 2ull * k)
        << (result.history[i].op.kind == MaxRegisterSpec::Kind::kReadMax
                ? "read"
                : "write");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HiMaxRegisterRandom,
    ::testing::Combine(::testing::Values(3u, 6u, 10u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)));

}  // namespace
}  // namespace hi
