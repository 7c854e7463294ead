// The paper's two summary results for the SWSR K-valued register from binary
// registers, as exact assertions on the step model.
//
// Table 1 — progress × HI flavour:
//
//                Perfect HI    State-quiescent HI    Quiescent HI
//   Wait-free    Impossible    Impossible (Cor 18)   Possible (Alg 4)
//   Lock-free    Impossible    Possible (Alg 2)      Possible (Alg 2)
//
// Every cell is an executable check: the "possible" cells run the algorithm
// under seeded random schedules through the HI checker at the claimed
// observation points; the wait-free state-quiescent cell runs the Lemma 16
// pigeonhole adversary against Algorithm 2 (the reader starves, so a
// state-quiescent-HI register of this kind is not wait-free); the
// perfect-HI column runs the Proposition 14 distance argument over the
// canonical representations. Two witnesses pin that the checker is not
// vacuous: it rejects Algorithm 1 (no HI at all) at quiescent points and
// Algorithm 4 at state-quiescent points.
//
// Figure 1 — observation points, replayed on Algorithms 1, 2 and 4:
//
//     w:  |--- Write(2) ---|        |--- Write(4) ---|   |- Write(2) -|
//     r:            |--- Read ---|
//     points:  ①         ②        ③ (mid-Write)      ④               ⑤
//
// Each flavour fixes where an observer may look:
//   perfect HI          ①②③④⑤ (every configuration),
//   state-quiescent HI  ①②④⑤   (no state-changing op pending),
//   quiescent HI        ①④⑤     (nothing pending).
// Algorithm 1 claims no HI: at ⑤, quiescent, its image still carries A[4]
// from the earlier Write(4), because a descending write clears only below
// the new value. Algorithm 2 (state-quiescent HI) is canonical at ①②④⑤ and
// off-canon only at ③. Algorithm 4 (quiescent HI) is canonical at ①④⑤ and
// shows the pending reader's traces at ②. The replayed schedule is fixed,
// so the dumps are pinned verbatim.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "adversary/reader_adversary.h"
#include "algo/registers.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "sim/harness.h"
#include "verify/hi_checker.h"

namespace hi {
namespace {

using LockFreeHiRegister = algo::LockFreeHiAlgPadded<env::SimEnv>;
using VidyasankarRegister = algo::VidyasankarAlgPadded<env::SimEnv>;
using WaitFreeHiRegister = algo::WaitFreeHiAlgPadded<env::SimEnv>;
using testing::kReaderPid;
using testing::kWriterPid;
using testing::RegisterSystem;

constexpr std::uint32_t kValues = 5;

// ---- Table 1 ----

/// Runs `Impl` under 20 seeded random schedules (30 writes ‖ 30 reads each)
/// and reports whether every observation of the chosen class matched the
/// canonical representation of its state.
template <typename Impl>
bool hi_holds(bool state_quiescent_points) {
  verify::HiChecker checker;
  for (const auto& [state, snap] :
       testing::build_register_canon<Impl>(kValues)) {
    checker.set_canonical(state, snap);
  }
  for (std::uint64_t seed = 1; seed <= 20 && checker.consistent(); ++seed) {
    RegisterSystem<Impl> sys(kValues);
    sim::Runner<spec::RegisterSpec, Impl> runner(
        sys.spec, sys.mem, sys.sched, sys.impl,
        [](const auto& hist) { return testing::last_write_or(hist, 1); });
    const auto result = runner.run(
        testing::register_workload(kValues, 30, 30, seed), {.seed = seed});
    EXPECT_FALSE(result.timed_out) << "seed " << seed;
    if (result.timed_out) return false;
    const auto& points =
        state_quiescent_points ? result.state_quiescent : result.quiescent;
    for (const auto& obs : points) {
      checker.observe(obs.state, obs.mem, "seed=" + std::to_string(seed));
    }
  }
  return checker.consistent();
}

/// Theorem 17's adversary for `rounds` rounds; true iff the reader never
/// returned, i.e. `Impl`'s reader is not wait-free.
template <typename Impl>
bool adversary_starves_reader(std::uint64_t rounds) {
  const auto canon = testing::build_register_canon<Impl>(kValues);
  RegisterSystem<Impl> sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.mem, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, rounds);
  return !result.reader_returned;
}

/// Proposition 14's distance argument: some pair of canonical
/// representations is at distance ≥ 2, so no perfect-HI implementation
/// over this layout exists.
template <typename Impl>
bool perfect_hi_ruled_out() {
  const auto canon = testing::build_register_canon<Impl>(kValues);
  for (std::uint32_t a = 1; a <= kValues; ++a) {
    for (std::uint32_t b = a + 1; b <= kValues; ++b) {
      if (canon.at(a).distance(canon.at(b)) >= 2) return true;
    }
  }
  return false;
}

TEST(Table1, PerfectHiIsImpossibleOnBothRows) {
  EXPECT_TRUE(perfect_hi_ruled_out<WaitFreeHiRegister>()) << "wait-free row";
  EXPECT_TRUE(perfect_hi_ruled_out<LockFreeHiRegister>()) << "lock-free row";
}

TEST(Table1, WaitFreeStateQuiescentCellIsImpossible) {
  // Corollary 18: the state-quiescent-HI register (Alg 2) loses its
  // reader to the Lemma 16 adversary for as long as the adversary runs.
  EXPECT_TRUE(adversary_starves_reader<LockFreeHiRegister>(5000));
}

TEST(Table1, WaitFreeQuiescentCellIsAlgorithm4) {
  EXPECT_TRUE(hi_holds<WaitFreeHiRegister>(/*state_quiescent_points=*/false));
  EXPECT_FALSE(adversary_starves_reader<WaitFreeHiRegister>(5000))
      << "the adversary must not starve Algorithm 4's reader";
}

TEST(Table1, LockFreeRowIsAlgorithm2) {
  EXPECT_TRUE(hi_holds<LockFreeHiRegister>(/*state_quiescent_points=*/true))
      << "state-quiescent HI";
  EXPECT_TRUE(hi_holds<LockFreeHiRegister>(/*state_quiescent_points=*/false))
      << "quiescent HI";
}

TEST(Table1, WitnessesAreRejected) {
  EXPECT_FALSE(hi_holds<VidyasankarRegister>(/*state_quiescent_points=*/false))
      << "Algorithm 1 must fail quiescent HI";
  EXPECT_FALSE(hi_holds<WaitFreeHiRegister>(/*state_quiescent_points=*/true))
      << "Algorithm 4 must fail state-quiescent HI";
}

// ---- Figure 1 ----

constexpr std::uint32_t kInitial = 2;

struct Figure1Replay {
  std::array<std::string, 5> dumps;             // points ①–⑤
  std::array<sim::MemorySnapshot, 5> snapshots;
  std::uint32_t read_value = 0;
};

/// Replays the Figure 1 execution on `Impl` (K = 5, initial value 2).
template <typename Impl>
Figure1Replay replay_figure1() {
  RegisterSystem<Impl> sys(kValues, kInitial);
  auto& sched = sys.sched;
  Figure1Replay out;
  const auto observe = [&](int point) {
    out.dumps[point - 1] = sys.mem.dump();
    out.snapshots[point - 1] = sys.mem.snapshot();
  };
  observe(1);

  // Write(2) (the initial value, rewritten to make the execution concrete)
  // with a Read overlapping its tail.
  sim::OpTask<std::uint32_t> write2 = sys.impl.write(kWriterPid, 2);
  sched.start(kWriterPid, write2);
  sched.step(kWriterPid);
  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sched.start(kReaderPid, read);
  sched.step(kReaderPid);
  while (sched.runnable(kWriterPid)) sched.step(kWriterPid);
  sched.finish(kWriterPid);
  observe(2);  // Read pending, no Write pending: state-quiescent

  while (sched.runnable(kReaderPid)) sched.step(kReaderPid);
  sched.finish(kReaderPid);
  out.read_value = read.take_result();

  sim::OpTask<std::uint32_t> write4 = sys.impl.write(kWriterPid, 4);
  sched.start(kWriterPid, write4);
  for (int i = 0; i < 2 && sched.runnable(kWriterPid); ++i) {
    sched.step(kWriterPid);
  }
  observe(3);  // Write(4) pending: only perfect HI looks here
  while (sched.runnable(kWriterPid)) sched.step(kWriterPid);
  sched.finish(kWriterPid);
  observe(4);  // quiescent, value 4

  (void)sim::run_solo(sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  observe(5);  // quiescent, value 2 again
  return out;
}

constexpr const char* kA2 = "A[1]=0 A[2]=1 A[3]=0 A[4]=0 A[5]=0";
constexpr const char* kA4 = "A[1]=0 A[2]=0 A[3]=0 A[4]=1 A[5]=0";
constexpr const char* kA24 = "A[1]=0 A[2]=1 A[3]=0 A[4]=1 A[5]=0";

TEST(Figure1, Algorithm1LeaksAtAQuiescentPoint) {
  const auto run = replay_figure1<VidyasankarRegister>();
  EXPECT_EQ(run.dumps[0], kA2);
  EXPECT_EQ(run.dumps[1], kA2);
  EXPECT_EQ(run.dumps[2], kA24);
  EXPECT_EQ(run.dumps[3], kA4);
  EXPECT_EQ(run.dumps[4], kA24) << "A = [0,1,0,1,0]: the descending Write(2) "
                                   "leaves A[4] set";
  EXPECT_EQ(run.read_value, 2u);

  const auto canon =
      testing::build_register_canon<VidyasankarRegister>(kValues, kInitial);
  EXPECT_EQ(run.snapshots[3], canon.at(4));
  EXPECT_NE(run.snapshots[4], canon.at(2))
      << "same state as ①, different memory, nothing pending";
}

TEST(Figure1, Algorithm2IsCanonicalWhereStateQuiescentHiLooks) {
  const auto run = replay_figure1<LockFreeHiRegister>();
  EXPECT_EQ(run.dumps[0], kA2);
  EXPECT_EQ(run.dumps[1], kA2);
  EXPECT_EQ(run.dumps[2], kA24);
  EXPECT_EQ(run.dumps[3], kA4);
  EXPECT_EQ(run.dumps[4], kA2);
  EXPECT_EQ(run.read_value, 2u);

  const auto canon =
      testing::build_register_canon<LockFreeHiRegister>(kValues, kInitial);
  EXPECT_EQ(run.snapshots[0], canon.at(2));
  EXPECT_EQ(run.snapshots[1], canon.at(2));
  EXPECT_NE(run.snapshots[2], canon.at(2)) << "③ is off-canon (allowed)";
  EXPECT_EQ(run.snapshots[3], canon.at(4));
  EXPECT_EQ(run.snapshots[4], canon.at(2));
}

TEST(Figure1, Algorithm4IsCanonicalWhereQuiescentHiLooks) {
  const auto run = replay_figure1<WaitFreeHiRegister>();
  const std::string b0 = " B[1]=0 B[2]=0 B[3]=0 B[4]=0 B[5]=0";
  const std::string f00 = " flag[1]=0 flag[2]=0";
  EXPECT_EQ(run.dumps[0], kA2 + b0 + f00);
  EXPECT_EQ(run.dumps[1], std::string(kA2) +
                              " B[1]=0 B[2]=1 B[3]=0 B[4]=0 B[5]=0" +
                              " flag[1]=1 flag[2]=0");
  EXPECT_EQ(run.dumps[2], kA2 + b0 + f00);
  EXPECT_EQ(run.dumps[3], kA4 + b0 + f00);
  EXPECT_EQ(run.dumps[4], kA2 + b0 + f00);
  EXPECT_EQ(run.read_value, 2u);

  const auto canon =
      testing::build_register_canon<WaitFreeHiRegister>(kValues, kInitial);
  EXPECT_EQ(run.snapshots[0], canon.at(2));
  EXPECT_NE(run.snapshots[1], canon.at(2))
      << "② carries the pending reader's traces (allowed: quiescent HI)";
  EXPECT_EQ(run.snapshots[3], canon.at(4));
  EXPECT_EQ(run.snapshots[4], canon.at(2));
}

}  // namespace
}  // namespace hi
