// Algorithm 1 (Vidyasankar's SWSR multi-valued register): linearizable and
// wait-free, but NOT history independent — experiment E3 reproduces the
// paper's §4 leak example verbatim, and the HI checker rejects it even on
// purely sequential executions.
#include <gtest/gtest.h>

#include "algo/registers.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using VidyasankarRegister = algo::VidyasankarAlgPadded<env::SimEnv>;
using spec::RegisterSpec;
using testing::kReaderPid;
using testing::kWriterPid;
using testing::RegisterSystem;
using Sys = RegisterSystem<VidyasankarRegister>;

TEST(Vidyasankar, SoloReadReturnsInitial) {
  Sys sys(5, 3);
  const auto value = sim::run_solo(sys.sched, kReaderPid,
                                   sys.impl.read(kReaderPid));
  EXPECT_EQ(value, 3u);
}

TEST(Vidyasankar, SoloWriteThenRead) {
  Sys sys(5);
  for (std::uint32_t v : {4u, 2u, 5u, 1u, 3u}) {
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
    const auto seen = sim::run_solo(sys.sched, kReaderPid,
                                    sys.impl.read(kReaderPid));
    EXPECT_EQ(seen, v);
  }
}

TEST(Vidyasankar, PaperLeakExampleK3) {
  // §4: "if K = 3 and there is a Write(2) followed by Write(1), we will have
  // A = [1,1,0], whereas if we have only a Write(1), the state will be
  // A = [1,0,0]."
  Sys with_history(3);
  (void)sim::run_solo(with_history.sched, kWriterPid,
                      with_history.impl.write(kWriterPid, 2));
  (void)sim::run_solo(with_history.sched, kWriterPid,
                      with_history.impl.write(kWriterPid, 1));
  const auto mem_with = with_history.mem.snapshot();
  EXPECT_EQ(mem_with.words, (std::vector<std::uint64_t>{1, 1, 0}));

  Sys without_history(3);
  (void)sim::run_solo(without_history.sched, kWriterPid,
                      without_history.impl.write(kWriterPid, 1));
  const auto mem_without = without_history.mem.snapshot();
  EXPECT_EQ(mem_without.words, (std::vector<std::uint64_t>{1, 0, 0}));

  // Same abstract state (1), different memory: the history leaks.
  EXPECT_NE(mem_with, mem_without);
}

TEST(Vidyasankar, HiCheckerRejectsSequentialExecutions) {
  // Not HI in even the weakest sense: Definition 4 fails already on
  // quiescent points of sequential executions.
  verify::HiChecker checker;
  for (std::uint64_t seed = 0; seed < 40 && checker.consistent(); ++seed) {
    Sys sys(4);
    util::Xoshiro256 rng(seed);
    std::uint64_t state = sys.spec.initial_state();
    for (int i = 0; i < 8; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next_in(1, 4));
      (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
      state = v;
      checker.observe(state, sys.mem.snapshot(),
                      "seq seed=" + std::to_string(seed));
    }
  }
  EXPECT_FALSE(checker.consistent())
      << "Algorithm 1 unexpectedly looked history independent";
}

class VidyasankarRandom : public ::testing::TestWithParam<
                              std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(VidyasankarRandom, LinearizableUnderRandomSchedules) {
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, VidyasankarRegister> runner(
      sys.spec, sys.mem, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 25, 25, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.history.num_pending(), 0u);
  const auto lin = verify::check_linearizable(sys.spec, result.history);
  EXPECT_TRUE(lin.ok()) << "seed=" << seed << " K=" << k;
}

TEST_P(VidyasankarRandom, WaitFreeStepBounds) {
  // Read scans up (≤K) then down (≤K-1); Write does ≤K writes. Both are
  // wait-free with bounds independent of scheduling.
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, VidyasankarRegister> runner(
      sys.spec, sys.mem, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed, .step_weight = 5});
  ASSERT_FALSE(result.timed_out);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const auto& entry = result.history[i];
    if (entry.op.kind == RegisterSpec::Kind::kRead) {
      EXPECT_LE(result.op_steps[i], 2u * k - 1);
    } else {
      EXPECT_LE(result.op_steps[i], static_cast<std::uint64_t>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VidyasankarRandom,
    ::testing::Combine(::testing::Values(3u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

}  // namespace
}  // namespace hi
