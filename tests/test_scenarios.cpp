// Scripted scenarios from the paper's proofs (§4, Appendix B): precise
// interleavings that exercise Algorithm 4's helping choreography — the
// Lemma 35 case analysis of who clears the helped value in B, the Lemma 10
// two-failed-TryReads path, and the global B-array invariants that make the
// quiescent-HI argument work.
#include <gtest/gtest.h>

#include <functional>

#include "algo/registers.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "sim/driver.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using WaitFreeHiRegister = algo::WaitFreeHiAlgPadded<env::SimEnv>;
using spec::RegisterSpec;
using testing::kReaderPid;
using testing::kWriterPid;
using Sys = testing::RegisterSystem<WaitFreeHiRegister>;

/// Step `pid` until `pred()` holds or the op finishes; returns false if the
/// step cap was hit first.
bool step_until(sim::Scheduler& sched, int pid,
                const std::function<bool()>& pred, int cap = 10000) {
  for (int i = 0; i < cap; ++i) {
    if (pred()) return true;
    if (!sched.runnable(pid)) return pred();
    sched.step(pid);
  }
  return false;
}

/// B[j] words live right after the K A-words in Algorithm 4's layout.
std::uint64_t b_word(const Sys& sys, std::uint32_t k, std::uint32_t j) {
  return sys.mem.snapshot().words[k + (j - 1)];
}
std::uint64_t b_ones(const Sys& sys, std::uint32_t k) {
  std::uint64_t count = 0;
  const auto snap = sys.mem.snapshot();
  for (std::uint32_t j = 1; j <= k; ++j) count += snap.words[k + j - 1];
  return count;
}

TEST(Alg4Scenario, WriterHelpsByPublishingLastValInB) {
  // Lines 11–13: a writer that sees flag[1]=1 with B all-zero publishes its
  // previous value (last-val) in B before touching A.
  constexpr std::uint32_t kValues = 3;
  Sys sys(kValues);  // initial value 1

  // Reader announces itself (its first step writes flag[1]).
  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  sys.sched.step(kReaderPid);

  // Writer executes Write(2) up to (and including) its write to B[1].
  sim::OpTask<std::uint32_t> write = sys.impl.write(kWriterPid, 2);
  sys.sched.start(kWriterPid, write);
  ASSERT_TRUE(step_until(sys.sched, kWriterPid,
                         [&] { return b_word(sys, kValues, 1) == 1; }))
      << "writer never published last-val=1 in B[1]";

  // The helped value is the writer's previous value, not the one being
  // written.
  EXPECT_EQ(b_word(sys, kValues, 1), 1u);
  EXPECT_EQ(b_word(sys, kValues, 2), 0u);

  // Drain everything; at quiescence B must be all-zero again (Lemma 36).
  while (sys.sched.runnable(kWriterPid)) sys.sched.step(kWriterPid);
  sys.sched.finish(kWriterPid);
  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  sys.sched.finish(kReaderPid);
  EXPECT_EQ(b_ones(sys, kValues), 0u);
  const std::uint32_t got = read.take_result();
  EXPECT_TRUE(got == 1 || got == 2) << got;
}

TEST(Alg4Scenario, WriterClearsItsOwnHelpWhenReaderIsGone) {
  // Lines 14–15 (Lemma 35's first case): the writer wrote 1 to B[last-val],
  // but the reader finished in the meantime (flag[1] back to 0) — the writer
  // must clear its own help so no trace survives.
  constexpr std::uint32_t kValues = 3;
  Sys sys(kValues);

  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  sys.sched.step(kReaderPid);  // flag[1] <- 1

  sim::OpTask<std::uint32_t> write = sys.impl.write(kWriterPid, 3);
  sys.sched.start(kWriterPid, write);
  ASSERT_TRUE(step_until(sys.sched, kWriterPid,
                         [&] { return b_word(sys, kValues, 1) == 1; }));

  // Let the reader run to completion: its TryRead succeeds on A (value 1
  // still there), and it clears B and the flags on its way out.
  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  sys.sched.finish(kReaderPid);
  EXPECT_EQ(read.take_result(), 1u);
  EXPECT_EQ(b_ones(sys, kValues), 0u) << "reader's line-8 sweep clears B";

  // The writer proceeds: it reads flag[2]=0, flag[1]=0 -> line 15 executes
  // (writing 0 over the already-cleared cell — idempotent), then writes A.
  while (sys.sched.runnable(kWriterPid)) sys.sched.step(kWriterPid);
  sys.sched.finish(kWriterPid);
  EXPECT_EQ(b_ones(sys, kValues), 0u);
  // Canonical at quiescence.
  const auto canon = testing::build_register_canon<WaitFreeHiRegister>(kValues);
  EXPECT_EQ(sys.mem.snapshot(), canon.at(3));
}

TEST(Alg4Scenario, TwoFailedTryReadsFallBackToB_Lemma10) {
  // The Figure 4 schedule: between the reader's two TryReads, two writes
  // complete; the second sees flag[1]=1 and helps via B, so the reader
  // (whose scans keep missing the moving 1) finds a value in B.
  constexpr std::uint32_t kValues = 3;
  Sys sys(kValues);  // value 1, A=[1,0,0]

  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  sys.sched.step(kReaderPid);  // flag[1] <- 1; TryRead #1 pending at A[1]

  // Write(3) completes fully: A=[0,0,1], and it publishes B[1]=1 (helped
  // value = previous value 1) because the reader is announced.
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  ASSERT_EQ(b_word(sys, kValues, 1), 1u);

  // Reader's TryRead #1: reads A[1]=0, A[2]=0 — stop before A[3].
  sys.sched.step(kReaderPid);  // A[1] -> 0
  sys.sched.step(kReaderPid);  // A[2] -> 0

  // Write(2) completes: A=[0,1,0]. (B already non-zero: no new help.)
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));

  // Reader continues: A[3] is now 0 -> TryRead #1 returns ⊥. TryRead #2:
  // A[1]=0, A[2]... make it miss again by moving the value to 1 after it
  // passes A[2]... simpler: let Write(1) land first so A=[1,0,0], and step
  // the reader past A[1] BEFORE that write completes. Drive reader until it
  // is about to read A[1] for TryRead #2:
  sys.sched.step(kReaderPid);  // A[3] -> 0, TryRead #1 = ⊥; #2 pending A[1]
  sys.sched.step(kReaderPid);  // TryRead #2 reads A[1] = 0
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 1));
  // Now A=[1,0,0] but the reader already passed A[1]; A[2], A[3] read 0.
  sys.sched.step(kReaderPid);  // A[2] -> 0
  sys.sched.step(kReaderPid);  // A[3] -> 0 — TryRead #2 = ⊥

  // The reader must now take the B path (lines 5–6) and find B[1]=1.
  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  sys.sched.finish(kReaderPid);
  EXPECT_EQ(read.take_result(), 1u) << "helped value from B";

  // Linearizable: 1 was the register's value when the Read began, and the
  // Read overlaps all three writes. Verify with the checker for rigor.
  verify::History<RegisterSpec::Op, RegisterSpec::Resp> history;
  const auto r = history.invoke(kReaderPid, RegisterSpec::read());
  const auto w3 = history.invoke(kWriterPid, RegisterSpec::write(3));
  history.respond(w3, 0);
  const auto w2 = history.invoke(kWriterPid, RegisterSpec::write(2));
  history.respond(w2, 0);
  const auto w1 = history.invoke(kWriterPid, RegisterSpec::write(1));
  history.respond(w1, 0);
  history.respond(r, 1);
  EXPECT_TRUE(verify::check_linearizable(sys.spec, history).ok());
}

TEST(Alg4Scenario, BInvariantsUnderRandomWalks) {
  // Lemma 35 consequences, checked at every configuration of random runs:
  // at most one B cell is ever 1, and B is all-zero whenever no operation
  // is pending.
  constexpr std::uint32_t kValues = 4;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Sys sys(kValues);
    util::Xoshiro256 rng(seed);
    // Each op is appended as it is drawn; the driver reads it at its start.
    std::vector<std::vector<RegisterSpec::Op>> work(2);
    sim::Driver driver(sys.spec, sys.sched, sys.impl, work);
    int writes_left = 25, reads_left = 25;
    for (;;) {
      // Random event among {start writer, start reader, step either}.
      std::vector<int> choices;
      if (driver.can_step(kWriterPid)) {
        choices.push_back(0);
      } else if (writes_left > 0) {
        choices.push_back(1);
      }
      if (driver.can_step(kReaderPid)) {
        choices.push_back(2);
      } else if (reads_left > 0) {
        choices.push_back(3);
      }
      if (choices.empty()) break;
      switch (choices[rng.next_below(choices.size())]) {
        case 0:
          (void)driver.step(kWriterPid);
          break;
        case 1:
          --writes_left;
          work[kWriterPid].push_back(RegisterSpec::write(
              static_cast<std::uint32_t>(rng.next_in(1, kValues))));
          (void)driver.start(kWriterPid);
          break;
        case 2:
          (void)driver.step(kReaderPid);
          break;
        default:
          --reads_left;
          work[kReaderPid].push_back(RegisterSpec::read());
          (void)driver.start(kReaderPid);
          break;
      }
      const std::uint64_t ones = b_ones(sys, kValues);
      ASSERT_LE(ones, 1u) << "two helped values in B simultaneously";
      if (driver.pending() == 0) {
        ASSERT_EQ(ones, 0u) << "B not cleared at quiescence (Lemma 36)";
      }
    }
  }
}

TEST(Alg2Scenario, ReadSpanningManyWritesReturnsAWrittenValue) {
  // A read that overlaps a burst of writes must return one of the values in
  // flight (never an out-of-thin-air or long-stale value).
  constexpr std::uint32_t kValues = 5;
  using LockFree = algo::LockFreeHiAlgPadded<env::SimEnv>;
  testing::RegisterSystem<LockFree> sys(kValues);  // value 1

  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  sys.sched.step(kReaderPid);  // first low-level read of A[1] (value 1 seen?)

  for (std::uint32_t v : {4u, 2u, 5u}) {
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
    if (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  }
  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  sys.sched.finish(kReaderPid);
  const std::uint32_t got = read.take_result();
  EXPECT_TRUE(got == 1 || got == 4 || got == 2 || got == 5) << got;
}

}  // namespace
}  // namespace hi
