// Algorithm 2 (lock-free state-quiescent-HI SWSR register) — experiment E4
// validates Theorem 9 piece by piece: linearizability, state-quiescent
// history independence (canonical memory at every state-quiescent point,
// seeded from sequential canon), wait-freedom of the writer, and the
// *tightness* of lock-freedom for the reader (the Lemma 16 adversary starves
// it, which is experiment E7's positive case for this algorithm).
#include <gtest/gtest.h>

#include "adversary/reader_adversary.h"
#include "algo/registers.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using LockFreeHiRegister = algo::LockFreeHiAlgPadded<env::SimEnv>;
using spec::RegisterSpec;
using testing::kReaderPid;
using testing::kWriterPid;
using testing::RegisterSystem;
using Sys = RegisterSystem<LockFreeHiRegister>;

TEST(LockFreeHiRegister, SoloSemantics) {
  Sys sys(6, 2);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            2u);
  for (std::uint32_t v : {5u, 1u, 6u, 3u}) {
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
    EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
              v);
  }
}

TEST(LockFreeHiRegister, CanonicalRepresentationIsOneHot) {
  // After any quiescent Write(v): A[v] = 1 and everything else 0.
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(5);
  for (std::uint32_t v = 1; v <= 5; ++v) {
    const auto& snap = canon.at(v);
    for (std::uint32_t j = 1; j <= 5; ++j) {
      EXPECT_EQ(snap.words[j - 1], j == v ? 1u : 0u) << "v=" << v;
    }
  }
}

TEST(LockFreeHiRegister, RewritingSameValueLeavesCanonicalMemory) {
  // Write(v) twice in a row must leave the identical representation —
  // SHI's multi-observation requirement on a degenerate pair of points.
  Sys sys(4);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  const auto first = sys.mem.snapshot();
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  EXPECT_EQ(first, sys.mem.snapshot());
}

class LockFreeHiRegisterRandom
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(LockFreeHiRegisterRandom, Linearizable) {
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, LockFreeHiRegister> runner(
      sys.spec, sys.mem, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 25, 25, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.history.num_pending(), 0u);
  const auto lin = verify::check_linearizable(sys.spec, result.history);
  EXPECT_TRUE(lin.ok()) << "seed=" << seed << " K=" << k;
}

TEST_P(LockFreeHiRegisterRandom, StateQuiescentHI) {
  // Theorem 9's HI claim: at every state-quiescent configuration of every
  // execution, memory equals the sequential canonical representation.
  const auto [k, seed] = GetParam();
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(k);
  verify::HiChecker checker;
  for (const auto& [state, snap] : canon) {
    ASSERT_TRUE(checker.set_canonical(state, snap));
  }

  Sys sys(k);
  sim::Runner<RegisterSpec, LockFreeHiRegister> runner(
      sys.spec, sys.mem, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_GT(result.state_quiescent.size(), 0u);
  for (const auto& obs : result.state_quiescent) {
    checker.observe(obs.state, obs.mem,
                    "seed=" + std::to_string(seed) +
                        " step=" + std::to_string(obs.at_step));
  }
  EXPECT_TRUE(checker.consistent())
      << checker.violation()->message() << "\n(K=" << k << ")";
}

TEST_P(LockFreeHiRegisterRandom, WriterIsWaitFree) {
  // A Write performs exactly K low-level writes regardless of scheduling.
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, LockFreeHiRegister> runner(
      sys.spec, sys.mem, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    if (result.history[i].op.kind == RegisterSpec::Kind::kWrite) {
      EXPECT_EQ(result.op_steps[i], static_cast<std::uint64_t>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LockFreeHiRegisterRandom,
    ::testing::Combine(::testing::Values(3u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

TEST(LockFreeHiRegister, ReaderIsOnlyLockFree_AdversaryStarvesIt) {
  // E7 (Theorem 17, concrete case): the pigeonhole adversary keeps the
  // reader from ever returning, for as many rounds as we care to run. This
  // is precisely why Algorithm 2 must settle for lock-freedom.
  constexpr std::uint32_t kValues = 4;
  constexpr std::uint64_t kRounds = 3000;
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(kValues);

  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.mem, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, kRounds);

  EXPECT_FALSE(result.reader_returned);
  EXPECT_EQ(result.rounds_executed, kRounds);
  // The reader's step count grows with the rounds: one step per round.
  EXPECT_EQ(result.reader_steps, kRounds);
}

TEST(LockFreeHiRegister, ReaderCompletesWhenRunSolo) {
  // Lock-freedom's flip side: once the writer stops interfering, the pending
  // read finishes within one TryRead (≤ 2K-1 steps).
  constexpr std::uint32_t kValues = 4;
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(kValues);
  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  (void)adversary::run_starvation(sys.spec, sys.mem, sys.sched, sys.impl,
                                  plan, canon, kWriterPid, kReaderPid, 100);
  // The adversary abandoned the read. Start a fresh one and run it solo.
  const auto value =
      sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid));
  EXPECT_GE(value, 1u);
  EXPECT_LE(value, kValues);
  EXPECT_LE(sys.sched.steps_of(kReaderPid), 100 + 2 * kValues - 1);
}

}  // namespace
}  // namespace hi
