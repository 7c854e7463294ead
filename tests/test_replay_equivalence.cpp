// Schedule-replay equivalence (the concurrency analogue of the sequential
// parity suite): recorded sim interleavings — random Runner schedules and
// exhaustive-explorer Decision paths — re-execute over the ReplayEnv
// backend (the SAME std::atomic cells and codecs as RtEnv, driven
// step-by-step by a sim::Scheduler), and the differential driver
// (verify/replay.h) checks after EVERY step that both backends are about to
// execute the same primitive on the same base object, complete operations
// at the same step with equal responses, and hold equal memory:
// word-for-word mem(C) for the binary-register objects and the standalone
// R-LLSC (whose per-backend encodings coincide), semantic (codec-decoded)
// for the universal constructions whose head packing differs per backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "algo/hi_set.h"
#include "algo/leaky_universal.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/universal.h"
#include "algo/strawman_queue.h"
#include "core/hi_register_lockfree.h"
#include "core/hi_register_waitfree.h"
#include "core/hi_set.h"
#include "core/max_register.h"
#include "core/rllsc.h"
#include "core/universal.h"
#include "core/vidyasankar.h"
#include "env/replay_env.h"
#include "register_common.h"
#include "replay_common.h"
#include "sim/explorer.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "sim_system.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/replay.h"

namespace hi {
namespace {

using env::ReplayEnv;
using testing::kReaderPid;
using testing::kWriterPid;

/// Record the schedule of a random-policy Runner run over `impl`.
template <spec::SequentialSpec S, typename Impl>
sim::ScheduleTrace record_runner_trace(
    const S& spec, sim::Memory& memory, sim::Scheduler& sched, Impl& impl,
    const std::vector<std::vector<typename S::Op>>& workload,
    std::uint64_t seed) {
  sim::ScheduleTrace trace;
  sim::Runner<S, Impl> runner(spec, memory, sched, impl,
                              [](const auto&) { return 0; });
  typename sim::Runner<S, Impl>::Options opt;
  opt.seed = seed;
  opt.trace = &trace;
  const auto result = runner.run(workload, opt);
  EXPECT_FALSE(result.timed_out) << "recording run hit the step cap";
  return trace;
}

// ---- §4 registers: word-for-word per-step mem(C) equality ----

template <typename SimImpl, typename ReplayImpl>
void register_replay_roundtrip(std::uint32_t k, std::size_t num_writes,
                               std::size_t num_reads, std::uint64_t seed) {
  const spec::RegisterSpec spec(k, 1);
  const auto workload =
      testing::register_workload(k, num_writes, num_reads, seed);

  sim::ScheduleTrace trace;
  {
    testing::RegisterSystem<SimImpl> recorder(k);
    trace = record_runner_trace(spec, recorder.memory, recorder.sched,
                                recorder.impl, workload, seed);
  }
  ASSERT_FALSE(trace.empty());

  testing::RegisterSystem<SimImpl> sim_sys(k);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  ReplayImpl replay_impl(replay_memory, spec, kWriterPid, kReaderPid);

  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl, workload,
      trace, verify::snapshot_word_compare(sim_sys.memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  EXPECT_GT(report.steps_executed, 0u);
  EXPECT_EQ(report.responses_compared, num_writes + num_reads);
}

TEST(ReplayEquivalence, VidyasankarRecordedSchedules) {
  register_replay_roundtrip<core::VidyasankarRegister,
                            algo::VidyasankarAlgPadded<ReplayEnv>>(
      5, 8, 6, 101);
  register_replay_roundtrip<core::VidyasankarRegister,
                            algo::VidyasankarAlgPadded<ReplayEnv>>(
      3, 6, 8, 102);
}

TEST(ReplayEquivalence, LockFreeHiRegisterRecordedSchedules) {
  register_replay_roundtrip<core::LockFreeHiRegister,
                            algo::LockFreeHiAlgPadded<ReplayEnv>>(5, 8, 6, 201);
  register_replay_roundtrip<core::LockFreeHiRegister,
                            algo::LockFreeHiAlgPadded<ReplayEnv>>(
      4, 10, 4, 202);
}

TEST(ReplayEquivalence, WaitFreeHiRegisterRecordedSchedules) {
  register_replay_roundtrip<core::WaitFreeHiRegister,
                            algo::WaitFreeHiAlgPadded<ReplayEnv>>(5, 8, 6, 301);
  register_replay_roundtrip<core::WaitFreeHiRegister,
                            algo::WaitFreeHiAlgPadded<ReplayEnv>>(4, 6, 6, 302);
}

// Packed-layout twins: K=70 spans two packed words, so the recorded
// schedules cover fetch_or/fetch_and RMWs and word-boundary scans executing
// over the actual hardware atomics. Packed cells encode one snapshot word
// each on both backends, so the comparison stays word-for-word.

TEST(ReplayEquivalence, PackedVidyasankarRecordedSchedules) {
  register_replay_roundtrip<core::PackedVidyasankarRegister,
                            algo::VidyasankarAlgPacked<ReplayEnv>>(
      70, 8, 6, 111);
}

TEST(ReplayEquivalence, PackedLockFreeHiRegisterRecordedSchedules) {
  register_replay_roundtrip<core::PackedLockFreeHiRegister,
                            algo::LockFreeHiAlgPacked<ReplayEnv>>(
      70, 8, 6, 211);
  register_replay_roundtrip<core::PackedLockFreeHiRegister,
                            algo::LockFreeHiAlgPacked<ReplayEnv>>(
      65, 10, 4, 212);
}

TEST(ReplayEquivalence, PackedWaitFreeHiRegisterRecordedSchedules) {
  register_replay_roundtrip<core::PackedWaitFreeHiRegister,
                            algo::WaitFreeHiAlgPacked<ReplayEnv>>(
      70, 8, 6, 311);
}

// ---- §5.1 max register and perfect-HI set ----

TEST(ReplayEquivalence, MaxRegisterRecordedSchedules) {
  const std::uint32_t k = 8;
  const spec::MaxRegisterSpec spec(k, 1);
  const auto workload = testing::max_register_workload(k, 10, 41);

  sim::ScheduleTrace trace;
  {
    sim::Memory memory;
    sim::Scheduler sched(2);
    core::HiMaxRegister impl(memory, spec, kWriterPid, kReaderPid);
    trace = record_runner_trace(spec, memory, sched, impl, workload, 42);
  }

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  core::HiMaxRegister sim_impl(sim_memory, spec, kWriterPid, kReaderPid);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::HiMaxRegisterAlgPadded<ReplayEnv> replay_impl(replay_memory, spec,
                                                      kWriterPid, kReaderPid);

  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  EXPECT_EQ(report.responses_compared, 20u);
}

TEST(ReplayEquivalence, HiSetRecordedSchedules) {
  const std::uint32_t domain = 10;
  const spec::SetSpec spec(domain);
  const auto workload = testing::set_workload(domain, 10, 51);

  sim::ScheduleTrace trace;
  {
    sim::Memory memory;
    sim::Scheduler sched(2);
    core::HiSet impl(memory, spec);
    trace = record_runner_trace(spec, memory, sched, impl, workload, 52);
  }

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  core::HiSet sim_impl(sim_memory, spec);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::HiSetAlgPadded<ReplayEnv> replay_impl(replay_memory, spec);

  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  EXPECT_EQ(report.responses_compared, 20u);
}

// ---- Algorithm 6 (R-LLSC): the acceptance case — a 16-byte hardware CAS
// word marching in word-for-word lockstep with the simulated wide cell,
// including the failure-word CAS retry interleavings. ----

TEST(ReplayEquivalence, RllscRecordedSchedules) {
  const int n = 3;
  const spec::RllscSpec spec(100, n, 7);
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    const auto workload = testing::rllsc_workload(n, 8, seed);

    sim::ScheduleTrace trace;
    {
      sim::Memory memory;
      sim::Scheduler sched(n);
      core::CasRllsc impl(memory, "X", {7, 0});
      trace = record_runner_trace(spec, memory, sched, impl, workload, seed);
    }

    sim::Memory sim_memory;
    sim::Scheduler sim_sched(n);
    core::CasRllsc sim_impl(sim_memory, "X", {7, 0});
    sim::Memory replay_memory;
    sim::Scheduler replay_sched(n);
    algo::CasRllscAlg<ReplayEnv> replay_impl(replay_memory, "X", 7);

    const verify::ReplayReport report = verify::replay_differential(
        spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
        verify::snapshot_word_compare(sim_memory, replay_memory));
    EXPECT_TRUE(report.ok)
        << report.message << "\ntrace:\n" << trace.pretty();
    EXPECT_EQ(report.responses_compared, static_cast<std::uint64_t>(n) * 8);
  }
}

// ---- Universal constructions: every backend packs head and announce cells
// through Word64HeadCodec (the sim adapter keeps the codec word in lo with
// hi ≡ 0), so the per-step comparison is word-exact —
// verify::snapshot_word_compare, like the register rows. ----

TEST(ReplayEquivalence, UniversalRecordedSchedules) {
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 3;
  for (const std::uint64_t seed : {71u, 72u}) {
    const auto workload = testing::counter_workload(n, 4, seed);

    sim::ScheduleTrace trace;
    {
      sim::Memory memory;
      sim::Scheduler sched(n);
      core::Universal<spec::CounterSpec, core::CasRllsc> impl(memory, spec, n);
      trace = record_runner_trace(spec, memory, sched, impl, workload, seed);
    }

    sim::Memory sim_memory;
    sim::Scheduler sim_sched(n);
    core::Universal<spec::CounterSpec, core::CasRllsc> sim_impl(sim_memory,
                                                                spec, n);
    sim::Memory replay_memory;
    sim::Scheduler replay_sched(n);
    algo::UniversalAlg<ReplayEnv, spec::CounterSpec,
                       algo::CasRllscAlg<ReplayEnv>>
        replay_impl(replay_memory, spec, n);

    const verify::ReplayReport report = verify::replay_differential(
        spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
        verify::snapshot_word_compare(sim_memory, replay_memory));
    EXPECT_TRUE(report.ok)
        << report.message << "\ntrace:\n" << trace.pretty();
    EXPECT_EQ(report.responses_compared, static_cast<std::uint64_t>(n) * 4);
  }
}

TEST(ReplayEquivalence, LeakyUniversalRecordedSchedules) {
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 3;
  const auto workload = testing::counter_workload(n, 5, 81);

  sim::ScheduleTrace trace;
  {
    sim::Memory memory;
    sim::Scheduler sched(n);
    algo::LeakyUniversalAlg<env::SimEnv, spec::CounterSpec> impl(memory, spec,
                                                              n);
    trace = record_runner_trace(spec, memory, sched, impl, workload, 82);
  }

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(n);
  algo::LeakyUniversalAlg<env::SimEnv, spec::CounterSpec> sim_impl(
      sim_memory, spec, n);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(n);
  algo::LeakyUniversalAlg<ReplayEnv, spec::CounterSpec> replay_impl(
      replay_memory, spec, n);

  // Semantic comparison over the decoded leak fields: the LEAK itself must
  // reproduce identically on the hardware cells, per step.
  const auto compare = [&]() -> std::optional<std::string> {
    if (sim_impl.head_state_encoded() != replay_impl.head_state_encoded()) {
      return std::string("head state diverges");
    }
    if (sim_impl.version() != replay_impl.version()) {
      return std::string("version (the leak) diverges");
    }
    for (int i = 0; i < n; ++i) {
      if (sim_impl.peek_announce(i) != replay_impl.peek_announce(i)) {
        return "announce[" + std::to_string(i) + "] diverges";
      }
      if (sim_impl.peek_result(i) != replay_impl.peek_result(i)) {
        return "result[" + std::to_string(i) + "] diverges";
      }
    }
    return std::nullopt;
  };
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      compare);
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  EXPECT_GT(sim_impl.version(), 0u);
}

// ---- Explorer Decision paths: EVERY interleaving of a small workload,
// replayed over hardware atomics (the acceptance case for Alg 2/3). ----

/// Explore EVERY schedule of Write(v) ‖ Read over K=k, then replay each
/// Decision path over the ReplayEnv instantiation with per-step word
/// comparison.
template <typename SimImpl, typename ReplayImpl>
void explorer_paths_roundtrip(std::uint32_t k, std::uint32_t write_value,
                              std::size_t min_paths) {
  const spec::RegisterSpec spec(k, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> workload = {
      {spec::RegisterSpec::write(write_value)}, {spec::RegisterSpec::read()}};

  using System = testing::SimSystem<spec::RegisterSpec, SimImpl>;
  sim::Explorer<spec::RegisterSpec, System> explorer(
      spec,
      [&spec] {
        return std::make_unique<System>(spec, 2, kWriterPid, kReaderPid);
      },
      workload);

  std::vector<std::vector<sim::Decision>> prefixes;
  const auto stats = explorer.explore(
      {.max_depth = 40, .max_executions = 200'000}, nullptr,
      [&](System&, const auto&) {
        prefixes.push_back(explorer.current_prefix());
      });
  ASSERT_TRUE(stats.exhausted);
  ASSERT_GE(prefixes.size(), min_paths);

  for (const auto& prefix : prefixes) {
    const sim::ScheduleTrace trace = explorer.trace_of(prefix);
    testing::RegisterSystem<SimImpl> sim_sys(k);
    sim::Memory replay_memory;
    sim::Scheduler replay_sched(2);
    ReplayImpl replay_impl(replay_memory, spec, kWriterPid, kReaderPid);
    const verify::ReplayReport report = verify::replay_differential(
        spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl, workload,
        trace, verify::snapshot_word_compare(sim_sys.memory, replay_memory));
    ASSERT_TRUE(report.ok)
        << report.message << "\ntrace:\n" << trace.pretty();
  }
}

TEST(ReplayEquivalence, ExplorerPathsLockFreeHiRegisterAllSchedules) {
  explorer_paths_roundtrip<core::LockFreeHiRegister,
                           algo::LockFreeHiAlgPadded<ReplayEnv>>(3, 2, 20);
}

TEST(ReplayEquivalence, ExplorerPathsPackedLockFreeHiRegisterAllSchedules) {
  // The packed Write(2) ‖ Read equivalence: every word-granularity
  // interleaving (fetch_or/fetch_and vs word-load snapshots) model-checked
  // by the explorer, then differentially replayed over the hardware RMWs.
  explorer_paths_roundtrip<core::PackedLockFreeHiRegister,
                           algo::LockFreeHiAlgPacked<ReplayEnv>>(3, 2, 10);
  // Two packed words: the boundary-crossing schedules.
  explorer_paths_roundtrip<core::PackedLockFreeHiRegister,
                           algo::LockFreeHiAlgPacked<ReplayEnv>>(70, 65, 10);
}

// ---- A hand-written ScheduleTrace literal (the persisted-counterexample
// format): the Figure 1 leak interleaving of Algorithm 1, with a concurrent
// read landing between the two writes. The replay backend must leave the
// same leaked [1,1,0] image in the atomic cells. ----

TEST(ReplayEquivalence, HandWrittenTraceLiteralReplays) {
  const spec::RegisterSpec spec(3, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> workload = {
      {spec::RegisterSpec::write(2), spec::RegisterSpec::write(1)},
      {spec::RegisterSpec::read()}};
  const sim::ScheduleTrace trace{{
      {0, true}, {0, false, 1, "write"}, {1, true}, {1, false, 0, "read"},
      {0, false, 0, "write"}, {0, true}, {0, false, 0, "write"},
  }};

  testing::RegisterSystem<core::VidyasankarRegister> sim_sys(3);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::VidyasankarAlgPadded<ReplayEnv> replay_impl(replay_memory, spec,
                                                    kWriterPid, kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl, workload,
      trace, verify::snapshot_word_compare(sim_sys.memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.steps_executed, 4u);
  EXPECT_EQ(report.responses_compared, 3u);
  // The leak reproduced on the hardware cells, word-for-word.
  EXPECT_EQ(replay_memory.snapshot().words,
            (std::vector<std::uint64_t>{1, 1, 0}));
}

// ---- Driver self-check: a corrupted annotation must be rejected, not
// silently replayed (the determinism cross-check that makes a persisted
// trace trustworthy as a regression artifact). ----

TEST(ReplayEquivalence, CorruptedTraceAnnotationIsRejected) {
  const spec::RegisterSpec spec(3, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> workload = {
      {spec::RegisterSpec::write(2)}, {}};
  sim::ScheduleTrace trace{{
      {0, true}, {0, false, 2, "write"},  // write(2)'s first step hits A[2]
                                          // (object 1), not object 2
  }};

  testing::RegisterSystem<core::VidyasankarRegister> sim_sys(3);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::VidyasankarAlgPadded<ReplayEnv> replay_impl(replay_memory, spec,
                                                    kWriterPid, kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl, workload,
      trace, verify::snapshot_word_compare(sim_sys.memory, replay_memory));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("deviates"), std::string::npos)
      << report.message;
}

TEST(ReplayEquivalence, OutOfRangePidInTraceIsRejected) {
  // A pid typo in a hand-persisted literal must be rejected cleanly, not
  // indexed with.
  const spec::RegisterSpec spec(3, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> workload = {
      {spec::RegisterSpec::write(2)}, {}};
  const sim::ScheduleTrace trace{{{2, true}}};

  testing::RegisterSystem<core::VidyasankarRegister> sim_sys(3);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::VidyasankarAlgPadded<ReplayEnv> replay_impl(replay_memory, spec,
                                                    kWriterPid, kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sys.sched, sim_sys.impl, replay_sched, replay_impl, workload,
      trace, verify::snapshot_word_compare(sim_sys.memory, replay_memory));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("pid"), std::string::npos) << report.message;
}

TEST(ReplayEquivalence, RejectsStartOfCrashedPid) {
  // A crashed process never invokes again (§2): a trace that starts one must
  // fail at that event, not run the op on a halted pid.
  const spec::MaxRegisterSpec spec(8, 1);
  const std::vector<std::vector<spec::MaxRegisterSpec::Op>> workload = {
      {spec::MaxRegisterSpec::write_max(2)}, {spec::MaxRegisterSpec::read_max()}};
  const sim::ScheduleTrace trace{{sim::TraceStep::crash(1), {1, true}}};

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  core::HiMaxRegister sim_impl(sim_memory, spec, kWriterPid, kReaderPid);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  algo::HiMaxRegisterAlgPadded<ReplayEnv> replay_impl(replay_memory, spec,
                                                      kWriterPid, kReaderPid);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.at, 1u) << report.message;
  EXPECT_NE(report.message.find("crashed"), std::string::npos)
      << report.message;
}

// ---- The drivers agree: the Runner, Explorer::try_execute and the replay
// differential all drive processes through sim::Driver, so one recorded
// schedule induces one history whichever of them executes it. ----

/// (pid, op, response or -1, invoked_at, responded_at) per history entry.
template <typename S, typename Hist>
auto history_rows(const S& spec, const Hist& hist) {
  std::vector<std::tuple<int, std::uint32_t, std::int64_t, std::uint64_t,
                         std::uint64_t>>
      rows;
  for (const auto& e : hist.entries()) {
    rows.emplace_back(e.pid, spec.encode_op(e.op),
                      e.completed() ? std::int64_t{spec.encode_resp(e.resp)}
                                    : -1,
                      e.invoked_at, e.responded_at);
  }
  return rows;
}

/// `trace`, re-executed as Decisions by Explorer::try_execute over
/// `make_sim()` systems, induces `expected`; and it replays over
/// `ReplayImpl(memory, replay_args...)` in lockstep.
template <typename ReplayImpl, typename S, typename Make, typename Hist,
          typename... Args>
void expect_drivers_agree(const S& spec, const Make& make_sim,
                          const std::vector<std::vector<typename S::Op>>& work,
                          const sim::ScheduleTrace& trace,
                          const Hist& expected, const Args&... replay_args) {
  using System = typename std::invoke_result_t<const Make&>::element_type;
  std::vector<sim::Decision> decisions;
  for (const sim::TraceStep& e : trace.steps) {
    decisions.push_back({e.pid, e.start, e.is_crash()});
  }
  sim::Explorer<S, System> explorer(spec, make_sim, work);
  const auto executed = explorer.try_execute(decisions);
  ASSERT_TRUE(executed.has_value()) << trace.pretty();
  EXPECT_EQ(history_rows(spec, expected), history_rows(spec, *executed));

  const std::unique_ptr<System> sim_sys = make_sim();
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(sim_sys->sched.num_processes());
  ReplayImpl replay_impl(replay_memory, replay_args...);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sys->sched, sim_sys->impl, replay_sched, replay_impl, work,
      trace, verify::snapshot_word_compare(sim_sys->mem, replay_memory));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
}

/// A seeded Runner run with Options.trace, checked as above.
template <typename ReplayImpl, typename S, typename Make, typename... Args>
void expect_runner_agrees(const S& spec, const Make& make_sim,
                          const std::vector<std::vector<typename S::Op>>& work,
                          std::uint64_t seed, const Args&... replay_args) {
  using System = typename std::invoke_result_t<const Make&>::element_type;
  sim::ScheduleTrace trace;
  const std::unique_ptr<System> sys = make_sim();
  sim::Runner<S, System> runner(spec, sys->mem, sys->sched, *sys,
                                [](const auto&) { return 0; });
  const auto result = runner.run(work, {.seed = seed, .trace = &trace});
  ASSERT_FALSE(result.timed_out);
  ASSERT_GT(result.history.size(), 0u);
  expect_drivers_agree<ReplayImpl>(spec, make_sim, work, trace,
                                   result.history, replay_args...);
}

TEST(DriversAgree, RunnerScheduleOnCombiningUniversal) {
  using S = spec::CounterSpec;
  const S spec(1u << 20, 10);
  const auto make = [&spec] {
    return std::make_unique<
        testing::SimSystem<S, core::Universal<S, core::CasRllsc>>>(
        spec, 3, 3, /*clear_contexts=*/true, /*combine=*/true);
  };
  expect_runner_agrees<
      algo::UniversalAlg<ReplayEnv, S, algo::CasRllscAlg<ReplayEnv>>>(
      spec, make, testing::counter_workload(3, 4, 91), 92, spec, 3,
      /*clear_contexts=*/true, /*combine=*/true);
}

TEST(DriversAgree, RunnerScheduleOnPaddedRegister) {
  using S = spec::RegisterSpec;
  const S spec(5, 1);
  const auto make = [&spec] {
    return std::make_unique<testing::SimSystem<S, core::LockFreeHiRegister>>(
        spec, 2, kWriterPid, kReaderPid);
  };
  expect_runner_agrees<algo::LockFreeHiAlgPadded<ReplayEnv>>(
      spec, make, testing::register_workload(5, 8, 6, 93), 94, spec,
      kWriterPid, kReaderPid);
}

TEST(DriversAgree, CrashedExplorerPath) {
  // A 1-crash path on which the reader starts an op after the writer
  // crashed: re-executing its trace yields the history exploration saw.
  using S = spec::RegisterSpec;
  using System = testing::SimSystem<S, core::LockFreeHiRegister>;
  const S spec(3, 1);
  const std::vector<std::vector<S::Op>> work = {{S::write(2)},
                                                {S::read(), S::read()}};
  const auto make = [&spec] {
    return std::make_unique<System>(spec, 2, kWriterPid, kReaderPid);
  };
  sim::Explorer<S, System> explorer(spec, make, work);
  std::vector<sim::Decision> path;
  std::optional<sim::Explorer<S, System>::Hist> history;
  (void)explorer.explore(
      {.max_depth = 40, .max_crashes = 1}, nullptr,
      [&](System&, const auto& hist) {
        const auto& prefix = explorer.current_prefix();
        const auto crash = std::find_if(
            prefix.begin(), prefix.end(), [](const auto& d) { return d.crash; });
        if (!history && std::any_of(crash, prefix.end(), [](const auto& d) {
              return d.start && d.pid == kReaderPid;
            })) {
          path = prefix;
          history = hist;
        }
      });
  ASSERT_TRUE(history.has_value()) << "no crashed path with a later start";
  ASSERT_EQ(history->num_pending(), 1u);  // the crashed write
  const sim::ScheduleTrace trace = explorer.trace_of(path);
  expect_drivers_agree<algo::LockFreeHiAlgPadded<ReplayEnv>>(
      spec, make, work, trace, *history, spec, kWriterPid, kReaderPid);
}

// ---- The SchedEnvT contract: SimEnv and ReplayEnv share one set of
// factories, so a system of the same algorithm registers the same base
// objects on both, in the same order, under the same names, with the same
// snapshot widths and the same construction image (docs/ENV.md) — which is
// what lets a recorded trace's object ids and word ranges mean the same
// thing on either side. ----

/// Runs build(memory, std::type_identity<Env>{}) for Env = SimEnv and
/// ReplayEnv, each on a fresh Memory, and compares the registered objects.
template <typename Build>
void expect_same_objects(const char* what, Build build) {
  sim::Memory sim_memory;
  sim::Memory replay_memory;
  build(sim_memory, std::type_identity<env::SimEnv>{});
  build(replay_memory, std::type_identity<env::ReplayEnv>{});
  ASSERT_GT(sim_memory.num_objects(), 0u) << what;
  ASSERT_EQ(sim_memory.num_objects(), replay_memory.num_objects()) << what;
  for (int id = 0; id < static_cast<int>(sim_memory.num_objects()); ++id) {
    EXPECT_EQ(sim_memory.object(id).name(), replay_memory.object(id).name())
        << what << ", object " << id;
    const auto [sim_first, sim_last] = sim_memory.word_range(id);
    const auto [replay_first, replay_last] = replay_memory.word_range(id);
    EXPECT_EQ(sim_last - sim_first, replay_last - replay_first)
        << what << ", object " << id << " (" << sim_memory.object(id).name()
        << ")";
  }
  // Construction images agree word-for-word, which pins the per-word-type
  // snapshot encodings (sim::encode_word) across the two backends.
  EXPECT_EQ(sim_memory.snapshot(), replay_memory.snapshot()) << what;
}

TEST(ReplayEquivalence, SchedEnvBackendsRegisterTheSameObjects) {
  const spec::RegisterSpec register_spec(8, 1);
  expect_same_objects("padded register", [&](sim::Memory& memory, auto env) {
    using Env = typename decltype(env)::type;
    algo::LockFreeHiAlgPadded<Env> obj(memory, register_spec, kWriterPid,
                                       kReaderPid);
  });
  expect_same_objects("packed set", [](sim::Memory& memory, auto env) {
    using Env = typename decltype(env)::type;
    const std::array<std::uint64_t, 2> members{0b101, 1};
    algo::HiSetAlgPacked<Env> obj(memory, 70, members);  // two words
  });
  const spec::CounterSpec counter_spec(1u << 20, 10);
  expect_same_objects("universal", [&](sim::Memory& memory, auto env) {
    using Env = typename decltype(env)::type;
    algo::UniversalAlg<Env, spec::CounterSpec, algo::CasRllscAlg<Env>> obj(
        memory, counter_spec, 3);
  });
  expect_same_objects("leaky universal", [&](sim::Memory& memory, auto env) {
    using Env = typename decltype(env)::type;
    algo::LeakyUniversalAlg<Env, spec::CounterSpec> obj(memory, counter_spec,
                                                        3);
  });
}

// The binary-register range check sits in SchedEnvT::write_bit, so both
// backends make it. A debug death test: under NDEBUG the call only builds
// a primitive that is never awaited.
TEST(ReplayEquivalence, SchedEnvBackendsRangeCheckBinaryWrites) {
  const auto check = [](auto env) {
    using Env = typename decltype(env)::type;
    sim::Memory memory;
    const std::array<std::uint64_t, 1> empty{0};
    auto bins = Env::make_bin_array_words(memory, "A", 1, empty);
    EXPECT_DEBUG_DEATH((void)Env::write_bit(bins, 1, 2), "value <= 1");
  };
  check(std::type_identity<env::SimEnv>{});
  check(std::type_identity<env::ReplayEnv>{});
}

TEST(ReplayEquivalence, CasCellsReportLockFree) {
  sim::Memory sim_memory;
  const algo::CasRllscAlg<env::SimEnv> sim_cell(sim_memory, "X", {7, 0});
  EXPECT_TRUE(sim_cell.is_lock_free());
#if defined(__x86_64__)
  // CMPXCHG16B (CPUID CX16) is on every x86-64 host this suite targets.
  sim::Memory replay_memory;
  const algo::CasRllscAlg<env::ReplayEnv> replay_cell(replay_memory, "X", 7);
  EXPECT_TRUE(replay_cell.is_lock_free());
#endif
}

}  // namespace
}  // namespace hi
