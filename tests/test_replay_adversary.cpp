// Replay regressions for the §5 impossibility/adversary scenarios: the
// Lemma 16 reader-starvation schedules (Theorem 17, reader_adversary) and
// the representative-state queue walks (Theorem 20, queue_adversary) are
// recorded as ScheduleTraces and differentially re-executed over the
// ReplayEnv hardware-atomics backend — the adversary's object-predicting
// power (it consults the base object the reader will access NEXT) is
// preserved exactly, because ReplayEnv exposes the same pending-primitive
// introspection as the simulator.
//
// Two flavors per scenario:
//   * live: run the adversary, record its schedule and the dynamically
//     chosen operations (verify::RecordingImpl), replay differentially —
//     the starvation must reproduce step-for-step on the atomic cells;
//   * persisted: a ScheduleTrace literal captured from a known adversary
//     run (the counterexample-as-regression format; regenerate by
//     re-recording if the algorithms' step sequences ever legitimately
//     change).
// Plus the positive control: against the wait-free Algorithm 4 the same
// adversary fails, and the completed read replays with an equal response.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/queue_adversary.h"
#include "adversary/reader_adversary.h"
#include "algo/registers.h"
#include "algo/strawman_queue.h"
#include "env/replay_env.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "spec/queue_spec.h"
#include "spec/register_spec.h"
#include "verify/replay.h"

namespace hi {
namespace {

using env::ReplayEnv;
using testing::kReaderPid;
using testing::kWriterPid;
using SimStrawmanQueue = algo::StrawmanQueueAlg<env::SimEnv>;

// ---- Theorem 17: reader adversary vs the lock-free HI register ----

std::uint64_t count_starts(const sim::ScheduleTrace& trace) {
  std::uint64_t starts = 0;
  for (const auto& step : trace.steps) starts += step.start ? 1 : 0;
  return starts;
}

/// Run the starvation adversary against SimImpl while recording schedule
/// and operations; differentially replay against ReplayImpl. Returns the
/// number of responses compared (== changer ops iff the reader starved).
template <typename SimImpl, typename ReplayImpl>
std::uint64_t starvation_roundtrip(std::uint32_t k, std::uint64_t max_rounds,
                                   bool expect_reader_returns) {
  const auto canon = testing::build_register_canon<SimImpl>(k);

  testing::RegisterSystem<SimImpl> sys(k);
  const auto plan = adversary::ct_plan(sys.spec);
  std::vector<std::vector<spec::RegisterSpec::Op>> workload(2);
  verify::RecordingImpl<spec::RegisterSpec, SimImpl> recorder(sys.impl,
                                                              workload);
  sim::ScheduleTrace trace;
  sys.sched.record_to(&trace);
  const auto result =
      adversary::run_starvation(sys.spec, sys.mem, sys.sched, recorder,
                                plan, canon, kWriterPid, kReaderPid, max_rounds);
  sys.sched.record_to(nullptr);
  EXPECT_EQ(result.reader_returned, expect_reader_returns);

  testing::RegisterSystem<SimImpl> sim_sys(k);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  ReplayImpl replay_impl(replay_memory, sim_sys.spec, kWriterPid, kReaderPid);

  const verify::ReplayReport report = verify::replay_differential(
      sim_sys.spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl,
      workload, trace,
      verify::snapshot_word_compare(sim_sys.mem, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  EXPECT_EQ(report.steps_executed, trace.size() - count_starts(trace));
  return report.responses_compared;
}

TEST(ReplayAdversary, ReaderStarvationReplaysOverHardwareAtomics) {
  // 50 rounds of the pigeonhole schedule: the reader completes on NEITHER
  // backend, and every changer operation responds identically. The changer
  // performs one initial o_change plus one per round.
  const std::uint64_t responses =
      starvation_roundtrip<algo::LockFreeHiAlgPadded<env::SimEnv>,
                           algo::LockFreeHiAlgPadded<ReplayEnv>>(
          3, /*max_rounds=*/50, /*expect_reader_returns=*/false);
  EXPECT_EQ(responses, 51u);  // changer ops only — the reader never returned
}

TEST(ReplayAdversary, WaitFreeControlReaderReturnsOnBothBackends) {
  // Positive control (Theorem 12 vs Theorem 17): Algorithm 4's reader
  // escapes the same adversary; its response must replay equal too.
  const std::uint64_t responses =
      starvation_roundtrip<algo::WaitFreeHiAlgPadded<env::SimEnv>,
                           algo::WaitFreeHiAlgPadded<ReplayEnv>>(
          3, /*max_rounds=*/50, /*expect_reader_returns=*/true);
  EXPECT_GE(responses, 2u);  // at least one changer op AND the reader's read
}

// Persisted counterexample: 8 rounds of the Lemma 16 schedule against the
// K=3 lock-free register (captured from run_starvation with trace
// recording). The changer walks 2→3→1→2→…, one complete Write between any
// two reader steps; the reader's TryRead chases the moving 1 and never
// returns — now pinned as a hardware-atomics regression.
TEST(ReplayAdversary, PersistedReaderStarvationTrace) {
  const spec::RegisterSpec spec(3, 1);
  std::vector<std::vector<spec::RegisterSpec::Op>> workload(2);
  for (int round = 0; round < 3; ++round) {
    workload[kWriterPid].push_back(spec::RegisterSpec::write(2));
    workload[kWriterPid].push_back(spec::RegisterSpec::write(3));
    workload[kWriterPid].push_back(spec::RegisterSpec::write(1));
  }
  workload[kReaderPid] = {spec::RegisterSpec::read()};
  const sim::ScheduleTrace trace{{
      {0, true}, {0, false, 1, "write"}, {0, false, 0, "write"},
      {0, false, 2, "write"}, {1, true}, {0, true}, {0, false, 2, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 1, "read"}, {0, true},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {0, false, 2, "write"},
      {1, false, 2, "read"}, {0, true}, {0, false, 2, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 1, "read"}, {0, true},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {0, false, 2, "write"},
      {1, false, 2, "read"}, {0, true}, {0, false, 2, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 1, "read"},
  }};

  testing::RegisterSystem<algo::LockFreeHiAlgPadded<env::SimEnv>> sim_sys(3);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::LockFreeHiAlgPadded<ReplayEnv> replay_impl(replay_memory, spec,
                                                   kWriterPid, kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl, workload,
      trace, verify::snapshot_word_compare(sim_sys.mem, replay_memory));
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.responses_compared, 9u);  // 9 writes; the read starves
  EXPECT_EQ(report.steps_executed, 35u);     // 27 write + 8 starved reads
}

// ---- Theorem 20: queue adversary vs the strawman queue ----

adversary::CanonicalMap strawman_canon(const spec::QueueSpec& spec) {
  adversary::CanonicalMap canon;
  for (std::uint32_t i = 0; i <= spec.domain(); ++i) {
    sim::Memory memory;
    sim::Scheduler sched(2);
    SimStrawmanQueue impl(memory, spec, kWriterPid, kReaderPid);
    if (i != 0) {
      for (const auto& op : spec.change_seq(0, i)) {
        (void)sim::run_solo(sched, kWriterPid, impl.apply(kWriterPid, op));
      }
    }
    canon.emplace(spec.encode_state(spec.representative(i)),
                  memory.snapshot());
  }
  return canon;
}

TEST(ReplayAdversary, QueuePeekStarvationReplaysOverHardwareAtomics) {
  const spec::QueueSpec spec(4, 4);
  const auto canon = strawman_canon(spec);

  sim::Memory memory;
  sim::Scheduler sched(2);
  SimStrawmanQueue impl(memory, spec, kWriterPid, kReaderPid);
  const auto plan = adversary::queue_plan(spec);
  std::vector<std::vector<spec::QueueSpec::Op>> workload(2);
  verify::RecordingImpl<spec::QueueSpec, SimStrawmanQueue> recorder(
      impl, workload);
  sim::ScheduleTrace trace;
  sched.record_to(&trace);
  const auto result = adversary::run_starvation(
      spec, memory, sched, recorder, plan, canon, kWriterPid, kReaderPid,
      /*max_rounds=*/25);
  sched.record_to(nullptr);
  EXPECT_FALSE(result.reader_returned);
  EXPECT_EQ(result.rounds_executed, 25u);

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  SimStrawmanQueue sim_impl(sim_memory, spec, kWriterPid, kReaderPid);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::StrawmanQueueAlg<ReplayEnv> replay_impl(replay_memory, spec, kWriterPid,
                                                kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  // Peek never completed: only the S(i1,i2) walk operations responded.
  EXPECT_EQ(report.responses_compared,
            static_cast<std::uint64_t>(workload[kWriterPid].size()));
}

// Persisted counterexample: 6 rounds of the S(i1,i2) representative walk
// against the domain-3 strawman queue (captured from run_starvation).
// Object ids: F[0..3] = 0..3, slot bit-planes = 4..11. Each walk rewrites
// the slot planes canonically, then flips the one-hot front bit exactly as
// Peek's scan approaches it.
TEST(ReplayAdversary, PersistedQueueStarvationTrace) {
  const spec::QueueSpec spec(3, 4);
  std::vector<std::vector<spec::QueueSpec::Op>> workload(2);
  workload[kWriterPid] = {
      spec::QueueSpec::enqueue(1), spec::QueueSpec::enqueue(2),
      spec::QueueSpec::dequeue(),  spec::QueueSpec::dequeue(),
      spec::QueueSpec::enqueue(1), spec::QueueSpec::dequeue(),
      spec::QueueSpec::enqueue(1), spec::QueueSpec::dequeue(),
  };
  workload[kReaderPid] = {spec::QueueSpec::peek()};
  const sim::ScheduleTrace trace{{
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, true},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 2, "write"}, {0, false, 1, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 0, "write"}, {0, false, 2, "write"}, {1, false, 1, "read"},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 2, "read"},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 0, "write"}, {0, false, 1, "write"}, {1, false, 3, "read"},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 4, "write"}, {0, false, 5, "write"},
      {0, false, 6, "write"}, {0, false, 7, "write"}, {0, false, 8, "write"},
      {0, false, 9, "write"}, {0, false, 10, "write"}, {0, false, 11, "write"},
      {0, false, 0, "write"}, {0, false, 1, "write"}, {1, false, 1, "read"},
  }};

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  SimStrawmanQueue sim_impl(sim_memory, spec, kWriterPid, kReaderPid);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::StrawmanQueueAlg<ReplayEnv> replay_impl(replay_memory, spec, kWriterPid,
                                                kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.responses_compared, 8u);  // the walk ops; Peek starves
}

}  // namespace
}  // namespace hi
