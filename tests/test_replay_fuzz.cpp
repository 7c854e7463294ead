// Random-schedule differential fuzzer (satellite of the schedule-replay
// equivalence suite): for every row of tests/objects.h's replay_rows(), a
// deterministic seed sweep generates a random workload, records the
// schedule of a random-policy sim run (varying invocation/step weights per
// seed so the schedules range from near-sequential to deeply overlapped),
// and differentially replays the trace over the ReplayEnv hardware-atomics
// backend, comparing mem(C) word for word after every event (or the
// entries' images, where the two encodings differ). A failing seed prints
// its ScheduleTrace as a TraceStep literal (sim/trace.h pretty()), ready to
// be pasted as a permanent regression test — one such persisted trace is
// replayed at the bottom of this file.
//
// One test per row, named ReplayFuzz.<entry>. Seed count:
// HI_REPLAY_FUZZ_SEEDS (default 64 — the CI smoke bound; raise locally for
// a deeper soak).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "env/replay_env.h"
#include "env/sim_env.h"
#include "fuzz_common.h"
#include "objects.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "spec/register_spec.h"
#include "verify/replay.h"

namespace hi {
namespace {

using env::ReplayEnv;
using testing::kReaderPid;
using testing::kWriterPid;

/// What a fuzz run needs of an entry, keyed on its classes so that entries
/// sharing them (both universal modes, both WF-sim fast limits) share one
/// fuzz_once.
template <typename S, typename SimImpl, typename ReplayImpl>
struct Fuzzed {
  std::string_view name;
  SimImpl (*make_sim)(sim::Memory&, const S&, int);
  ReplayImpl (*make_replay)(sim::Memory&, const S&, int);
  /// Null when mem(C) is compared word for word.
  bool (*same_image)(const SimImpl&, const ReplayImpl&);
};

/// Record a random-policy run with seed-derived schedule shape, then replay
/// it differentially. Returns a failure description (with the offending
/// trace as a literal) or nullopt.
template <typename S, typename SimImpl, typename ReplayImpl>
std::optional<std::string> fuzz_once(
    const Fuzzed<S, SimImpl, ReplayImpl>& e, const S& spec,
    const std::vector<std::vector<typename S::Op>>& workload,
    std::uint64_t seed) {
  const int n = static_cast<int>(workload.size());
  sim::ScheduleTrace trace;
  {
    sim::Memory memory;
    sim::Scheduler sched(n);
    auto impl = e.make_sim(memory, spec, n);
    sim::Runner<S, SimImpl> runner(spec, memory, sched, impl,
                                   [](const auto&) { return 0; });
    typename sim::Runner<S, SimImpl>::Options opt;
    opt.seed = seed;
    opt.start_weight = 1 + static_cast<unsigned>(seed % 3);
    opt.step_weight = 1 + static_cast<unsigned>(seed % 5);
    opt.trace = &trace;
    const auto result = runner.run(workload, opt);
    if (result.timed_out) return "recording run timed out";
  }

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(n);
  auto sim_impl = e.make_sim(sim_memory, spec, n);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(n);
  auto replay_impl = e.make_replay(replay_memory, spec, n);
  const auto compare = [&]() -> std::optional<std::string> {
    if (e.same_image == nullptr) {
      return verify::snapshot_word_compare(sim_memory, replay_memory)();
    }
    if (e.same_image(sim_impl, replay_impl)) return std::nullopt;
    return std::string("images diverge");
  };
  const verify::ReplayReport report =
      verify::replay_differential(spec, sim_sched, sim_impl, replay_sched,
                                  replay_impl, workload, trace, compare);
  if (report.ok) return std::nullopt;
  const std::string failure = "seed " + std::to_string(seed) + ": " +
                              report.message + "\ntrace:\n" + trace.pretty();
  // Soak runs persist the failing trace for artifact upload
  // ($HI_TRACE_DUMP_DIR; no-op locally).
  testing::dump_failing_trace(std::string("replay_fuzz_") +
                                  std::string(e.name) + "_seed" +
                                  std::to_string(seed),
                              failure);
  return failure;
}

template <typename E>
bool same_image(const typename E::template Impl<env::SimEnv>& sim_impl,
                const typename E::template Impl<ReplayEnv>& replay_impl) {
  return E::image(sim_impl) == E::image(replay_impl);
}

/// One row: seeds 1..HI_REPLAY_FUZZ_SEEDS, each workload drawn per pid in
/// order from one rng seeded with the seed.
template <typename Row>
void run_replay_fuzz(const Row& row) {
  using E = typename Row::Entry;
  Fuzzed<typename E::Spec, typename E::template Impl<env::SimEnv>,
         typename E::template Impl<ReplayEnv>>
      e{E::kName, &E::template make<env::SimEnv>,
        &E::template make<ReplayEnv>, nullptr};
  if constexpr (!testing::kWordExact<E>) e.same_image = &same_image<E>;
  const int seeds = testing::env_int_knob("HI_REPLAY_FUZZ_SEEDS", 64);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const auto failure =
        fuzz_once(e, row.spec, testing::workload<E>(row.spec, row.ops, seed),
                  seed);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

const bool kRowsRegistered = testing::register_rows<testing::replay_rows<>>(
    "ReplayFuzz",
    [](const auto& row) {
      return std::string(std::decay_t<decltype(row)>::Entry::kName);
    },
    [](const auto& row) { run_replay_fuzz(row); });
// ---- Persisted fuzzer trace (the counterexample-as-regression format a
// failing seed prints): lock-free register, K=5, recorded from seed 6 —
// reads overlap three of the five writes, so the replay covers TryRead
// retries chasing the moving 1 across the atomic cells, plus a read that
// scans up the whole array and confirms downward (steps 39–48). ----

TEST(ReplayFuzz, PersistedOverlappingReadTraceReplays) {
  const spec::RegisterSpec spec(5, 1);
  std::vector<std::vector<spec::RegisterSpec::Op>> workload(2);
  workload[kWriterPid] = {
      spec::RegisterSpec::write(2), spec::RegisterSpec::write(4),
      spec::RegisterSpec::write(1), spec::RegisterSpec::write(5),
      spec::RegisterSpec::write(3)};
  workload[kReaderPid].assign(4, spec::RegisterSpec::read());
  const sim::ScheduleTrace trace{{
      {1, true}, {1, false, 0, "read"}, {0, true}, {0, false, 1, "write"},
      {0, false, 0, "write"}, {0, false, 2, "write"}, {1, true},
      {1, false, 0, "read"}, {0, false, 3, "write"}, {1, false, 1, "read"},
      {0, false, 4, "write"}, {1, false, 0, "read"}, {0, true},
      {0, false, 3, "write"}, {0, false, 2, "write"}, {1, true},
      {1, false, 0, "read"}, {0, false, 1, "write"}, {1, false, 1, "read"},
      {0, false, 0, "write"}, {0, false, 4, "write"}, {0, true},
      {1, false, 2, "read"}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 3, "read"}, {0, false, 3, "write"},
      {0, false, 4, "write"}, {0, true}, {1, false, 2, "read"},
      {0, false, 4, "write"}, {0, false, 3, "write"}, {1, false, 1, "read"},
      {0, false, 2, "write"}, {1, false, 0, "read"}, {0, false, 1, "write"},
      {0, false, 0, "write"}, {1, true}, {1, false, 0, "read"},
      {1, false, 1, "read"}, {1, false, 2, "read"}, {1, false, 3, "read"},
      {1, false, 4, "read"}, {1, false, 3, "read"}, {1, false, 2, "read"},
      {1, false, 1, "read"}, {1, false, 0, "read"}, {0, true},
      {0, false, 2, "write"}, {0, false, 1, "write"}, {0, false, 0, "write"},
      {0, false, 3, "write"}, {0, false, 4, "write"},
  }};

  sim::Memory sim_memory;
  sim::Scheduler sim_sched(2);
  auto sim_impl = testing::LockFreeHiPadded::make<env::SimEnv>(sim_memory,
                                                               spec, 2);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  auto replay_impl =
      testing::LockFreeHiPadded::make<ReplayEnv>(replay_memory, spec, 2);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      verify::snapshot_word_compare(sim_memory, replay_memory));
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.responses_compared, 9u);  // all 5 writes + all 4 reads
  // State-quiescent HI on the hardware cells: can(3) = e_3 after the run.
  EXPECT_EQ(replay_memory.snapshot().words,
            (std::vector<std::uint64_t>{0, 0, 1, 0, 0}));
}

}  // namespace
}  // namespace hi
