// Random-schedule differential fuzzer (satellite of the schedule-replay
// equivalence suite): for every object, a deterministic seed sweep generates
// a random workload, records the schedule of a random-policy sim run
// (varying invocation/step weights per seed so the schedules range from
// near-sequential to deeply overlapped), and differentially replays the
// trace over the ReplayEnv hardware-atomics backend. A failing seed prints
// its ScheduleTrace as a TraceStep literal (sim/trace.h pretty()), ready to
// be pasted as a permanent regression test — one such persisted trace is
// replayed at the bottom of this file.
//
// Seed count: HI_REPLAY_FUZZ_SEEDS (default 64 — the CI smoke bound; raise
// locally for a deeper soak).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "algo/leaky_universal.h"
#include "algo/universal.h"
#include "baseline/strawman_queue.h"
#include "core/hi_register_lockfree.h"
#include "core/hi_register_waitfree.h"
#include "core/hi_set.h"
#include "core/max_register.h"
#include "core/rllsc.h"
#include "core/sharded_set.h"
#include "core/universal.h"
#include "core/vidyasankar.h"
#include "core/wait_free_sim.h"
#include "fuzz_common.h"
#include "register_common.h"
#include "replay/replay_objects.h"
#include "replay_common.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/queue_spec.h"
#include "spec/register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/replay.h"

namespace hi {
namespace {

using testing::kReaderPid;
using testing::kWriterPid;

std::uint64_t fuzz_seeds() {
  if (const char* env = std::getenv("HI_REPLAY_FUZZ_SEEDS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return 64;  // the CI smoke bound (≥ 64 seeds per object)
}

/// Record a random-policy run with seed-derived schedule shape, then replay
/// it differentially. Returns a failure description (with the offending
/// trace as a literal) or nullopt.
template <spec::SequentialSpec S, typename SimImpl, typename ReplayImpl,
          typename MakeSim, typename MakeReplay, typename MakeCompare>
std::optional<std::string> fuzz_once(
    const S& spec, int num_processes,
    const std::vector<std::vector<typename S::Op>>& workload,
    std::uint64_t seed, MakeSim make_sim, MakeReplay make_replay,
    MakeCompare make_compare) {
  sim::ScheduleTrace trace;
  {
    sim::Memory memory;
    sim::Scheduler sched(num_processes);
    SimImpl impl = make_sim(memory);
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
  sim::Scheduler sim_sched(num_processes);
  SimImpl sim_impl = make_sim(sim_memory);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(num_processes);
  ReplayImpl replay_impl = make_replay(replay_memory);

  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, workload, trace,
      make_compare(sim_memory, sim_impl, replay_memory, replay_impl));
  if (report.ok) return std::nullopt;
  const std::string failure = "seed " + std::to_string(seed) + ": " +
                              report.message + "\ntrace:\n" + trace.pretty();
  // Soak runs persist the failing trace for artifact upload
  // ($HI_TRACE_DUMP_DIR; no-op locally).
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  testing::dump_failing_trace(
      std::string("replay_fuzz_") + (info ? info->name() : "unknown") +
          "_seed" + std::to_string(seed),
      failure);
  return failure;
}

/// Word-for-word comparator factory for objects with bit-identical
/// per-backend encodings.
const auto word_compare = [](const sim::Memory& sim_memory, const auto&,
                             const sim::Memory& replay_memory, const auto&) {
  return verify::snapshot_word_compare(sim_memory, replay_memory);
};

// ---- registers ----

template <typename SimImpl, typename ReplayImpl>
void fuzz_register(std::uint32_t k) {
  const spec::RegisterSpec spec(k, 1);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::register_workload(k, 5, 4, seed);
    const auto failure = fuzz_once<spec::RegisterSpec, SimImpl, ReplayImpl>(
        spec, 2, workload, seed,
        [&](sim::Memory& m) {
          return SimImpl(m, spec, kWriterPid, kReaderPid);
        },
        [&](sim::Memory& m) {
          return ReplayImpl(m, spec, kWriterPid, kReaderPid);
        },
        word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(ReplayFuzz, Vidyasankar) {
  fuzz_register<core::VidyasankarRegister, replay::VidyasankarRegister>(5);
}
TEST(ReplayFuzz, LockFreeHiRegister) {
  fuzz_register<core::LockFreeHiRegister, replay::LockFreeHiRegister>(5);
}
TEST(ReplayFuzz, WaitFreeHiRegister) {
  fuzz_register<core::WaitFreeHiRegister, replay::WaitFreeHiRegister>(5);
}

// Wait-free-sim combinator (algo/wait_free_sim.h): the recorded schedules
// overlap reads with writes, so some reads fail their fast attempt and run
// the full announce/enqueue/help protocol — every record word, ring slot
// and head/tail counter is part of the word-for-word comparison. The
// fast_limit=0 row forces EVERY read through the slow path, so each seed
// exercises the helped-completion CAS race between owner and writer.
TEST(ReplayFuzz, WaitFreeSimHiRegister) {
  fuzz_register<core::WaitFreeSimHiRegister, replay::WaitFreeSimHiRegister>(5);
}
TEST(ReplayFuzz, WaitFreeSimHiRegisterForcedSlowPath) {
  const std::uint32_t k = 4;
  const spec::RegisterSpec spec(k, 1);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::register_workload(k, 5, 4, seed);
    const auto failure =
        fuzz_once<spec::RegisterSpec, core::WaitFreeSimHiRegister,
                  replay::WaitFreeSimHiRegister>(
            spec, 2, workload, seed,
            [&](sim::Memory& m) {
              return core::WaitFreeSimHiRegister(m, spec, kWriterPid,
                                                 kReaderPid, /*fast_limit=*/0);
            },
            [&](sim::Memory& m) {
              return replay::WaitFreeSimHiRegister(m, spec, kWriterPid,
                                                   kReaderPid,
                                                   /*fast_limit=*/0);
            },
            word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

// Packed-layout twins at K=70 (two packed words): random schedules cross
// the word boundary mid-scan and interleave fetch_or/fetch_and RMWs with
// word-load snapshots, differentially replayed over the hardware atomics.
TEST(ReplayFuzz, PackedVidyasankar) {
  fuzz_register<core::PackedVidyasankarRegister,
                replay::PackedVidyasankarRegister>(70);
}
TEST(ReplayFuzz, PackedLockFreeHiRegister) {
  fuzz_register<core::PackedLockFreeHiRegister,
                replay::PackedLockFreeHiRegister>(70);
}
TEST(ReplayFuzz, PackedWaitFreeHiRegister) {
  fuzz_register<core::PackedWaitFreeHiRegister,
                replay::PackedWaitFreeHiRegister>(70);
}

// ---- max register ----

TEST(ReplayFuzz, MaxRegister) {
  const std::uint32_t k = 8;
  const spec::MaxRegisterSpec spec(k, 1);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::max_register_workload(k, 6, seed);
    const auto failure = fuzz_once<spec::MaxRegisterSpec, core::HiMaxRegister,
                                   replay::HiMaxRegister>(
        spec, 2, workload, seed,
        [&](sim::Memory& m) {
          return core::HiMaxRegister(m, spec, kWriterPid, kReaderPid);
        },
        [&](sim::Memory& m) {
          return replay::HiMaxRegister(m, spec, kWriterPid, kReaderPid);
        },
        word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(ReplayFuzz, PackedMaxRegister) {
  const std::uint32_t k = 70;  // two packed words
  const spec::MaxRegisterSpec spec(k, 1);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::max_register_workload(k, 6, seed);
    const auto failure =
        fuzz_once<spec::MaxRegisterSpec, core::PackedHiMaxRegister,
                  replay::PackedHiMaxRegister>(
            spec, 2, workload, seed,
            [&](sim::Memory& m) {
              return core::PackedHiMaxRegister(m, spec, kWriterPid,
                                               kReaderPid);
            },
            [&](sim::Memory& m) {
              return replay::PackedHiMaxRegister(m, spec, kWriterPid,
                                                 kReaderPid);
            },
            word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

// ---- perfect-HI set ----

TEST(ReplayFuzz, HiSet) {
  const std::uint32_t domain = 10;
  const spec::SetSpec spec(domain);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::set_workload(domain, 6, seed);
    const auto failure = fuzz_once<spec::SetSpec, core::HiSet, replay::HiSet>(
        spec, 2, workload, seed,
        [&](sim::Memory& m) { return core::HiSet(m, spec); },
        [&](sim::Memory& m) { return replay::HiSet(m, spec); }, word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(ReplayFuzz, PackedHiSet) {
  // Packed set: the whole domain is ONE atomic word; every insert/remove is
  // a fetch_or/fetch_and racing every other operation on the same cell.
  const std::uint32_t domain = 64;
  const spec::SetSpec spec(domain);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::set_workload(domain, 6, seed);
    const auto failure =
        fuzz_once<spec::SetSpec, core::PackedHiSet, replay::PackedHiSet>(
            spec, 2, workload, seed,
            [&](sim::Memory& m) { return core::PackedHiSet(m, spec); },
            [&](sim::Memory& m) { return replay::PackedHiSet(m, spec); },
            word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(ReplayFuzz, ShardedHiSet) {
  // Sharded multi-word store under recorded random schedules: domain 64
  // over 4 striped shards (16 bins each), so the trace's object ids span
  // four independent packed words and the replay must route every recorded
  // fetch_or/fetch_and/load to the same shard word the simulator touched.
  const std::uint32_t domain = 64;
  const spec::SetSpec spec(domain);
  constexpr std::uint32_t kShards = 4;
  constexpr auto kPlacement = algo::ShardPlacement::kStriped;
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::set_workload(domain, 6, seed);
    const auto failure =
        fuzz_once<spec::SetSpec, core::ShardedHiSet, replay::ShardedHiSet>(
            spec, 2, workload, seed,
            [&](sim::Memory& m) {
              return core::ShardedHiSet(m, spec, kShards, kPlacement);
            },
            [&](sim::Memory& m) {
              return replay::ShardedHiSet(m, spec, kShards, kPlacement);
            },
            word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

// ---- R-LLSC (Algorithm 6) ----

using testing::ReplayRllscHarness;
using testing::SimRllscHarness;

TEST(ReplayFuzz, Rllsc) {
  const int n = 3;
  const spec::RllscSpec spec(100, n, 0);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::rllsc_workload(n, 5, seed);
    const auto failure =
        fuzz_once<spec::RllscSpec, SimRllscHarness, ReplayRllscHarness>(
            spec, n, workload, seed,
            [&](sim::Memory& m) { return SimRllscHarness(m, 0); },
            [&](sim::Memory& m) { return ReplayRllscHarness(m, 0); },
            word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

// ---- universal constructions (word-exact — every backend packs head and
// announce cells through Word64HeadCodec, with the sim adapter keeping the
// codec word in lo and hi ≡ 0, so verify::snapshot_word_compare applies;
// the layout is pinned by tests/test_head_codec.cpp) ----

/// Shared body for the Algorithm 5 replay-fuzz rows: ≥64 seeds (see
/// fuzz_seeds) of random counter workloads, per-step word-exact memory
/// comparison, in plain or flat-combining mode.
void fuzz_universal(bool combine) {
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 3;
  using SimUni = core::Universal<spec::CounterSpec, core::CasRllsc>;
  using ReplayUni = replay::Universal<spec::CounterSpec>;
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::counter_workload(n, 3, seed);
    const auto failure = fuzz_once<spec::CounterSpec, SimUni, ReplayUni>(
        spec, n, workload, seed,
        [&](sim::Memory& m) {
          return SimUni(m, spec, n, /*clear_contexts=*/true, combine);
        },
        [&](sim::Memory& m) {
          return ReplayUni(m, spec, n, /*clear_contexts=*/true, combine);
        },
        word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(ReplayFuzz, Universal) { fuzz_universal(/*combine=*/false); }
TEST(ReplayFuzz, UniversalCombine) { fuzz_universal(/*combine=*/true); }

TEST(ReplayFuzz, LeakyUniversal) {
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 3;
  using SimLeaky = algo::LeakyUniversalAlg<env::SimEnv, spec::CounterSpec>;
  using ReplayLeaky = replay::LeakyUniversal<spec::CounterSpec>;
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    const auto workload = testing::counter_workload(n, 3, seed);
    const auto failure = fuzz_once<spec::CounterSpec, SimLeaky, ReplayLeaky>(
        spec, n, workload, seed,
        [&](sim::Memory& m) { return SimLeaky(m, spec, n); },
        [&](sim::Memory& m) { return ReplayLeaky(m, spec, n); },
        [n](const sim::Memory&, const SimLeaky& sim_obj, const sim::Memory&,
            const ReplayLeaky& replay_obj) {
          return [&sim_obj, &replay_obj, n]() -> std::optional<std::string> {
            if (sim_obj.head_state_encoded() !=
                    replay_obj.head_state_encoded() ||
                sim_obj.version() != replay_obj.version()) {
              return std::string("head/version diverges");
            }
            for (int i = 0; i < n; ++i) {
              if (sim_obj.peek_announce(i) != replay_obj.peek_announce(i) ||
                  sim_obj.peek_result(i) != replay_obj.peek_result(i)) {
                return "tables diverge at pid " + std::to_string(i);
              }
            }
            return std::nullopt;
          };
        });
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

// ---- strawman queue (Theorem 20's candidate) ----

TEST(ReplayFuzz, StrawmanQueue) {
  const spec::QueueSpec spec(4, 4);
  for (std::uint64_t seed = 1; seed <= fuzz_seeds(); ++seed) {
    util::Xoshiro256 rng(seed);
    std::vector<std::vector<spec::QueueSpec::Op>> workload(2);
    for (int i = 0; i < 6; ++i) {
      workload[kWriterPid].push_back(
          rng.chance(2, 3) ? spec::QueueSpec::enqueue(
                                 static_cast<std::uint8_t>(rng.next_in(1, 4)))
                           : spec::QueueSpec::dequeue());
    }
    workload[kReaderPid].assign(3, spec::QueueSpec::peek());
    const auto failure = fuzz_once<spec::QueueSpec, baseline::StrawmanQueue,
                                   replay::StrawmanQueue>(
        spec, 2, workload, seed,
        [&](sim::Memory& m) {
          return baseline::StrawmanQueue(m, spec, kWriterPid, kReaderPid);
        },
        [&](sim::Memory& m) {
          return replay::StrawmanQueue(m, spec, kWriterPid, kReaderPid);
        },
        word_compare);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

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
  core::LockFreeHiRegister sim_impl(sim_memory, spec, kWriterPid, kReaderPid);
  sim::Memory replay_memory;
  sim::Scheduler replay_sched(2);
  replay::LockFreeHiRegister replay_impl(replay_memory, spec, kWriterPid,
                                         kReaderPid);
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
