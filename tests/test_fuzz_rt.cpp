// Real-thread forced-yield schedule fuzzing (env/fuzz_env.h): every rt
// object plus the sharded store runs its FuzzEnv instantiation on real
// threads under seeded yield/backoff injection at each Env primitive
// boundary, with linearizability checked on the recorded history and — for
// the history-independent objects — the quiescent memory image compared
// against a solo replay of the linearization witness (HI: the final image
// must be a function of the abstract state alone, so the witness replay
// must land on the SAME image).
//
// Witness pinning: overlapping state-changing operations can admit several
// valid linearizations with DIFFERENT final abstract states (insert(v) ‖
// remove(v) both orders), and the checker returns an arbitrary one — so each
// suite runs a solo AUDIT phase after the threads join (final reads /
// full-domain lookups, recorded into the same history). Audit operations
// follow everything in real time, so every valid linearization of the
// extended history must end in the audited state: the witness's final state
// is then exactly the state the object actually reached, and the image
// comparison is sound.
//
// The pipeline's positive control is the deliberately broken counter
// (tests/fuzz_common.h): the fuzzer must CATCH its lost update on real
// threads within the default iteration budget, the explorer must REPRODUCE
// it in the step model, verify/shrink.h must SHRINK the failing schedule,
// and the result is printed as a paste-ready ScheduleTrace literal (and
// persisted under $HI_TRACE_DUMP_DIR for the nightly soak's artifacts).
//
// The object rows are tests/objects.h's yield_rows(), one test per row
// named FuzzRt.<entry>; an entry's object-specific asserts (yield_extra) run
// inside its row.
//
// Iteration budget: HI_RT_FUZZ_ITERS (default 20 per object — the CI smoke
// bound; the nightly workflow raises it). Every failure message carries the
// iteration's seed, which fully determines the op scripts and the per-thread
// injection streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/hi_set.h"
#include "algo/leaky_universal.h"
#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/sharded_set.h"
#include "algo/universal.h"
#include "algo/wait_free_sim.h"
#include "env/fuzz_env.h"
#include "fuzz_common.h"
#include "objects.h"
#include "sim/explorer.h"
#include "sim/trace.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/linearizability.h"
#include "verify/shrink.h"

namespace hi {
namespace {

using env::FuzzEnv;
using FuzzPacked = env::PackedBins<FuzzEnv>;

constexpr int kDefaultIters = 20;

/// The positive control's injection knobs, and the policy of the yield rows
/// marked aggressive: enough to force slow paths and combining-phase parks
/// on a loaded single-core runner.
constexpr env::YieldPolicy kAggressive{/*permille=*/700, /*max_yields=*/4,
                                       /*max_spins=*/64};

/// One row of tests/objects.h's yield_rows(): `iters` iterations, each with
/// a fresh object, per-(seed, pid) deterministic op scripts, barrier-released
/// armed threads, the entry's solo audit pinning the final abstract state
/// (see file comment), then a linearizability check over the extended
/// history. Above HiLevel::kNone the quiescent image must equal a solo
/// replay of the linearization witness. The loop reaches the object through
/// type-erased calls, so it compiles once per spec rather than once per
/// class.
template <typename Spec, typename Image>
struct YieldFuzz {
  using Op = typename Spec::Op;
  using Resp = typename Spec::Resp;
  using Hist = verify::History<Op, Resp>;

  /// One fresh object of the row's class. `extra(history, seed)`, if set,
  /// runs last (the entry's yield_extra).
  struct Object {
    std::function<Resp(int, const Op&)> apply;
    std::function<Image()> image;
    std::function<void(const Hist&, std::uint64_t)> extra;
  };

  /// What the loop needs of an entry.
  struct Entry {
    std::string_view name;
    testing::HiLevel hi;
    std::function<Object()> make;
    std::vector<Op> (*script)(const Spec&, int, util::Xoshiro256&, int);
    std::vector<std::pair<int, Op>> (*audit)(const Spec&);
  };

  static void run(const Entry& e, const Spec& spec, std::uint64_t seed0,
                  const std::vector<int>& ops, env::YieldPolicy policy) {
    const int n = static_cast<int>(ops.size());
    const int iters = testing::rt_fuzz_iters(kDefaultIters);
    for (int iter = 0; iter < iters; ++iter) {
      const std::uint64_t seed =
          util::hash_combine(seed0, static_cast<std::uint64_t>(iter));
      const Object object = e.make();
      std::vector<std::vector<Op>> scripts;
      for (int pid = 0; pid < n; ++pid) {
        util::Xoshiro256 rng(util::hash_combine(
            seed, 0x5c21 + static_cast<std::uint64_t>(pid)));
        scripts.push_back(
            e.script(spec, pid, rng, ops[static_cast<std::size_t>(pid)]));
      }
      testing::RtHistoryRecorder<Op, Resp> recorder(n);
      const auto run_op = [&object, &recorder](int pid, const Op& op) {
        recorder.run(pid, op, [&] { return object.apply(pid, op); });
      };
      testing::run_fuzz_threads(n, seed, policy, [&](int pid) {
        for (const Op& op : scripts[static_cast<std::size_t>(pid)]) {
          run_op(pid, op);
        }
      });
      // Injector disarmed on this thread: the audit runs solo, unperturbed.
      for (const auto& audit : e.audit(spec)) run_op(audit.first, audit.second);
      const Hist history = recorder.build();
      ASSERT_EQ(history.num_pending(), 0u);
      const verify::LinResult lin = verify::check_linearizable(spec, history);
      ASSERT_TRUE(lin.ok()) << e.name
                            << ": non-linearizable real-thread history at seed "
                            << seed;
      if (e.hi != testing::HiLevel::kNone) {
        const Object replayed = e.make();
        for (const std::size_t idx : lin.witness) {
          const auto& entry = history.entries()[idx];
          (void)replayed.apply(entry.pid, entry.op);
        }
        EXPECT_EQ(object.image(), replayed.image())
            << e.name << ": " << testing::hi_level_name(e.hi)
            << " HI image diverges from witness replay at seed " << seed;
      }
      if (object.extra) object.extra(history, seed);
    }
  }
};

/// Entry E's script for this rung: E::script, then E::settle(pid) if any.
template <typename E>
std::vector<typename E::Spec::Op> yield_script(const typename E::Spec& spec,
                                               int pid, util::Xoshiro256& rng,
                                               int ops) {
  auto script = E::script(spec, pid, rng, ops);
  if constexpr (requires { E::settle(pid); }) script.push_back(E::settle(pid));
  return script;
}

template <typename Row>
using RowImpl = typename Row::Entry::template Impl<FuzzEnv>;
template <typename Row>
using RowFuzz = YieldFuzz<
    typename Row::Entry::Spec,
    decltype(Row::Entry::image(std::declval<const RowImpl<Row>&>()))>;
/// An object-specific check: (object, history, seed).
template <typename Row>
using Extra = std::function<void(
    RowImpl<Row>&, const typename RowFuzz<Row>::Hist&, std::uint64_t)>;

// ---- object-specific checks ----
//
// An entry's own asserts run on every iteration of its row, after the
// row's history and image checks: (object, history, seed), where the last
// history entry is the audit op.

template <typename Row>
Extra<Row> yield_extra(const Row& row) {
  using E = typename Row::Entry;
  if constexpr (std::is_same_v<E, testing::WaitFreeSimPacked>) {
    // The combinator under the AGGRESSIVE policy (the default one is too
    // gentle to force the slow path reliably): yields inside the fast-path
    // scan push reads onto the announce/enqueue/help slow path, yields
    // between a retirer's two CASes exercise the stale-head repair, and
    // concurrent helpers race the record CAS. The row's image check is
    // history-only (kNone: the records and queue counters depend on how many
    // reads were helped, Thm 17), so this pins the INNER image to the
    // audit-pinned unit vector e_state: Alg 2's canonical bins survive under
    // the combinator.
    const std::uint32_t k = row.spec.num_values();
    const std::uint64_t ops =
        std::accumulate(row.ops.begin(), row.ops.end(), std::uint64_t{1});
    const std::uint64_t reads = ops - row.ops[testing::kWriterPid];
    return [k, ops, reads](auto& reg, const auto& hist, std::uint64_t seed) {
      const std::uint32_t audited = hist.entries().back().resp;
      ASSERT_GE(audited, 1u);
      std::vector<std::uint8_t> expected(k, 0);
      expected[audited - 1] = 1;
      EXPECT_EQ(algo::memory_image(reg.combinator().inner()), expected)
          << "inner bins diverge from the audit-pinned unit vector at seed "
          << seed;
      // Every op (the audit read included) counted once; only reads can
      // enter the slow path, and each slow entry completes exactly once
      // (owner or helper).
      EXPECT_EQ(reg.total_ops(), ops);
      EXPECT_LE(reg.slow_path_entries(), reads);
      EXPECT_LE(reg.helped_completions(), reg.slow_path_entries());
    };
  } else if constexpr (std::is_same_v<E, testing::CasRllsc>) {
    // Every script ends with its pid's RL, so no context bit survives the
    // run (perfect HI of the cell), and the audited load names its value.
    return [](auto& cell, const auto& hist, std::uint64_t seed) {
      const auto word = cell.peek_word();
      EXPECT_EQ(word.value, hist.entries().back().resp.value)
          << "cell value diverges from the audited load at seed " << seed;
      EXPECT_EQ(word.ctx, 0u)
          << "context bits leaked past the closing RLs at seed " << seed;
    };
  } else if constexpr (std::is_same_v<E, testing::UniversalPlain> ||
                       std::is_same_v<E, testing::UniversalCombine>) {
    // Quiescent canonical memory in both modes: head = the audited abstract
    // state with no response, all announces ⊥, no context bits — nothing
    // about WHICH ops ran survives beyond the abstract state (the combining
    // record, the helped responses and the batch bookkeeping included).
    // Flat-combining mode runs under the AGGRESSIVE policy: yields inside
    // the winner's announce scan park it mid-combining-phase, forcing peers
    // through the foreign-combining-record spin (Env::relax) and piling
    // announcements up for the next batch. Every update in the history was
    // then applied in exactly one installed batch; batches never exceed ops.
    return [&row](auto& obj, const auto& hist, std::uint64_t seed) {
      const std::uint32_t audited = hist.entries().back().resp;
      EXPECT_EQ(obj.head_state_encoded(), row.spec.encode_state(audited))
          << "head diverges from the audited state at seed " << seed;
      EXPECT_FALSE(obj.head_has_response()) << "seed " << seed;
      EXPECT_EQ(obj.context_union(), 0u) << "seed " << seed;
      for (int pid = 0; pid < static_cast<int>(row.ops.size()); ++pid) {
        EXPECT_TRUE(obj.announce_is_bottom(pid))
            << "announce[" << pid << "] leaked at seed " << seed;
      }
      if constexpr (std::is_same_v<E, testing::UniversalCombine>) {
        std::uint64_t updates = 0;
        for (const auto& e : hist.entries()) {
          if (e.op.kind != spec::CounterSpec::Kind::kRead) ++updates;
        }
        EXPECT_EQ(obj.ops_combined(), updates) << "seed " << seed;
        EXPECT_LE(obj.batches_installed(), obj.ops_combined())
            << "seed " << seed;
        if (updates > 0) {
          EXPECT_GE(obj.batches_installed(), 1u) << "seed " << seed;
        }
      }
    };
  } else {
    return {};
  }
}

template <typename Row>
void run_yield_fuzz(const Row& row) {
  using E = typename Row::Entry;
  using Impl = RowImpl<Row>;
  using Fuzz = RowFuzz<Row>;
  const int n = static_cast<int>(row.ops.size());
  const Extra<Row> extra = yield_extra(row);
  const auto make = [&row, &extra, n] {
    const std::shared_ptr<Impl> obj(
        new Impl(E::template make<FuzzEnv>(FuzzEnv::Ctx{}, row.spec, n)));
    typename Fuzz::Object object{
        [obj](int pid, const typename Fuzz::Op& op) {
          return obj->apply(pid, op).get();
        },
        [obj] { return E::image(*obj); },
        {}};
    if (extra) {
      object.extra = [obj, &extra](const typename Fuzz::Hist& hist,
                                   std::uint64_t seed) {
        extra(*obj, hist, seed);
      };
    }
    return object;
  };
  Fuzz::run({E::kName, E::kHi, make, &yield_script<E>, &E::audit}, row.spec,
            row.seed, row.ops,
            row.aggressive ? kAggressive : env::YieldPolicy{});
}

const bool kRowsRegistered = testing::register_rows<testing::yield_rows<>>(
    "FuzzRt",
    [](const auto& row) {
      return std::string(std::decay_t<decltype(row)>::Entry::kName);
    },
    [](const auto& row) { run_yield_fuzz(row); });
// --------------------------------------------------------- positive control

TEST(FuzzRt, PositiveControl_BrokenCounterCaughtReproducedShrunk) {
  const testing::NaiveCounterSpec spec;

  // 1. CATCH on real threads: two threads race two incs each; the injector
  // yields inside the read-then-write window, so the lost update surfaces
  // well within the default budget. Aggressive policy: the control should
  // fire fast even on a loaded single-core CI runner.
  const int iters = testing::rt_fuzz_iters(kDefaultIters) + 30;
  std::optional<std::uint64_t> caught_seed;
  for (int iter = 0; iter < iters && !caught_seed.has_value(); ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xb20c, static_cast<std::uint64_t>(iter));
    testing::BrokenCounterAlg<FuzzEnv> counter{FuzzEnv::Ctx{}};
    testing::RtHistoryRecorder<testing::NaiveCounterSpec::Op,
                               testing::NaiveCounterSpec::Resp>
        recorder(2);
    testing::run_fuzz_threads(2, seed, kAggressive, [&](int pid) {
      for (int i = 0; i < 6; ++i) {
        recorder.run(pid, testing::NaiveCounterSpec::inc(),
                     [&] { return counter.inc().get(); });
      }
    });
    if (!verify::check_linearizable(spec, recorder.build()).ok()) {
      caught_seed = seed;
    }
  }
  EXPECT_TRUE(caught_seed.has_value())
      << "the yield fuzzer failed to catch the seeded lost update in "
      << iters << " iterations — the positive control is broken";

  // 2. REPRODUCE in the step model: the same single-source body under
  // SimEnv, exhaustively explored until a non-linearizable complete
  // execution appears.
  sim::Explorer<testing::NaiveCounterSpec, testing::BrokenCounterSystem>
      explorer(
          spec,
          [] { return std::make_unique<testing::BrokenCounterSystem>(2); },
          {{testing::NaiveCounterSpec::inc(), testing::NaiveCounterSpec::inc()},
           {testing::NaiveCounterSpec::inc(),
            testing::NaiveCounterSpec::inc()}});
  std::optional<std::vector<sim::Decision>> failing;
  (void)explorer.explore(
      {.max_depth = 32, .max_executions = 100'000}, nullptr,
      [&](testing::BrokenCounterSystem&, const auto& hist) {
        if (!failing.has_value() &&
            !verify::check_linearizable(spec, hist).ok()) {
          failing = explorer.current_prefix();
        }
      });
  ASSERT_TRUE(failing.has_value())
      << "the step model cannot reproduce the lost update";

  // 3. SHRINK: greedy window removal over try_execute; the failure must
  // survive (complete history, still non-linearizable).
  const auto still_fails = [&](const auto& hist) {
    return hist.num_pending() == 0 &&
           !verify::check_linearizable(spec, hist).ok();
  };
  const std::vector<sim::Decision> shrunk = verify::shrink_schedule(
      *failing,
      [&](const std::vector<sim::Decision>& candidate) {
        return explorer.try_execute(candidate);
      },
      still_fails);
  EXPECT_LT(shrunk.size(), failing->size())
      << "shrinking removed nothing from a 12-decision schedule whose "
         "minimal counterexample is 6 decisions";
  const auto shrunk_hist = explorer.try_execute(shrunk);
  ASSERT_TRUE(shrunk_hist.has_value());
  EXPECT_TRUE(still_fails(*shrunk_hist));

  // 4. PERSIST: the paste-ready ScheduleTrace literal (sim/trace.h).
  const sim::ScheduleTrace trace = explorer.trace_of(shrunk);
  const std::string literal = trace.pretty();
  std::cout << "shrunk broken-counter ScheduleTrace ("
            << (caught_seed ? *caught_seed : 0) << " caught it on threads):\n"
            << literal << std::endl;
  EXPECT_FALSE(literal.empty());
  testing::dump_failing_trace("broken_counter_shrunk", literal);
}

// ------------------------------------------------- stalled-process rows
//
// The rt half of the crash model (docs/FAULTS.md): a thread parked forever
// at a primitive boundary (env::YieldInjector::arm_stall) is
// indistinguishable from a crashed one to every survivor. The progress
// watchdog in run_stall_threads converts "survivors stopped completing
// operations" into a failing test. The recorder only logs an op once its
// body returns, so a parked op is invisible to the history — these rows
// check object-level invariants at quiescence (inc-only scripts make the
// counter accounting exact) instead of linearizability.

TEST(StallRt, PositiveControl_SpinLockWatchdogCatchesStalledLockHolder) {
  // The lock-based counter under a stalled thread: whenever the stall point
  // lands inside the critical section (3 of the 4 boundaries of an inc),
  // the survivors spin on the dead thread's lock forever and the watchdog
  // must fire. Short explicit deadline: every firing iteration waits it out.
  bool fired = false;
  int engaged = 0;
  for (int iter = 0; iter < 8 && !fired; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc301, static_cast<std::uint64_t>(iter));
    testing::SpinLockCounterAlg<FuzzEnv> counter{FuzzEnv::Ctx{}};
    std::atomic<std::uint64_t> progress{0};
    const auto result = testing::run_stall_threads(
        /*num_threads=*/3, /*num_stalled=*/1, seed, env::YieldPolicy{},
        {.window = 4}, progress,
        [&](int) {
          for (int i = 0; i < 2; ++i) {
            (void)counter.inc().get();
            progress.fetch_add(1, std::memory_order_release);
          }
        },
        [] {}, /*deadline_ms=*/400);
    fired = result.watchdog_fired;
    engaged += result.stalled_engaged;
  }
  EXPECT_TRUE(fired)
      << "no stall point ever wedged the lock-based counter — the progress "
         "watchdog's positive control is broken";
  EXPECT_GT(engaged, 0);
}

TEST(StallRt, UniversalCounter_SurvivorsCompleteWithStalledThread) {
  // Plain universal construction, one of three threads parked mid-inc: the
  // survivors must keep completing (lock-freedom does not depend on the
  // parked thread), and the quiescent counter accounts for every completed
  // inc plus AT MOST one helped parked inc.
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  const int iters = testing::rt_fuzz_iters(5);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc302, static_cast<std::uint64_t>(iter));
    Alg obj(FuzzEnv::Ctx{}, spec, n);
    std::atomic<std::uint64_t> progress{0};
    std::array<std::atomic<std::uint64_t>, 3> completed{};
    const auto result = testing::run_stall_threads(
        n, /*num_stalled=*/1, seed, env::YieldPolicy{},
        {.window = 8}, progress,
        [&](int pid) {
          for (int i = 0; i < 5; ++i) {
            (void)obj.apply(pid, spec::CounterSpec::inc()).get();
            progress.fetch_add(1, std::memory_order_release);
            completed[static_cast<std::size_t>(pid)].fetch_add(
                1, std::memory_order_release);
          }
        },
        [&] {
          // Quiescence window: survivors done, the stalled thread still
          // parked — exactly the image a crash would have left.
          const std::uint64_t done =
              completed[0].load() + completed[1].load() + completed[2].load();
          const std::uint64_t head = obj.head_state_encoded();
          EXPECT_GE(head, 10 + done) << "seed " << seed;
          EXPECT_LE(head, 10 + done + 1)
              << "seed " << seed
              << ": more than the one parked inc unaccounted for";
        });
    if (result.watchdog_fired) {
      std::ostringstream note;
      note << "universal-counter stall row wedged at seed " << seed
           << " (stalled_engaged=" << result.stalled_engaged << ")";
      testing::dump_failing_trace("stall_universal_watchdog", note.str());
    }
    ASSERT_FALSE(result.watchdog_fired)
        << "survivors of the lock-free universal construction stopped "
           "completing with one thread parked, seed "
        << seed;
  }
}

TEST(StallRt, WaitFreeSim_WriterUnaffectedByStalledSlowPathReader) {
  // Wait-free simulation combinator with fast_limit = 0 (every read
  // announces + enqueues): thread 0 is a reader and gets parked somewhere
  // in its announce/enqueue/help window. The writer and the other reader
  // must finish regardless, and the quiescent inner image is the unit
  // vector of the final write — the parked read leaves no trace in the
  // bins, wherever it stopped.
  const std::uint32_t k = 6;
  const spec::RegisterSpec spec(k, 1);
  using Alg = algo::WaitFreeSimHiAlg<FuzzEnv, FuzzPacked>;
  const int iters = testing::rt_fuzz_iters(5);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc303, static_cast<std::uint64_t>(iter));
    Alg reg(FuzzEnv::Ctx{}, spec, /*writer_pid=*/1, /*reader_pid=*/0,
            /*fast_limit=*/0, /*num_processes=*/3);
    std::atomic<std::uint64_t> progress{0};
    const auto result = testing::run_stall_threads(
        /*num_threads=*/3, /*num_stalled=*/1, seed, env::YieldPolicy{},
        {.window = 12}, progress,
        [&](int pid) {
          if (pid == 1) {
            for (std::uint32_t v = 2; v <= 6; ++v) {
              (void)reg.write(1, v).get();
              progress.fetch_add(1, std::memory_order_release);
            }
          } else {
            for (int i = 0; i < 4; ++i) {
              const std::uint32_t seen = reg.read(pid).get();
              EXPECT_GE(seen, 1u);
              EXPECT_LE(seen, 6u);
              progress.fetch_add(1, std::memory_order_release);
            }
          }
        },
        [&] {
          std::vector<std::uint8_t> expected(k, 0);
          expected[6 - 1] = 1;  // the writer's last completed write
          EXPECT_EQ(algo::memory_image(reg.combinator().inner()), expected)
              << "parked slow-path reader left residue in the inner bins at "
                 "seed "
              << seed;
        });
    if (result.watchdog_fired) {
      std::ostringstream note;
      note << "wait-free-sim stall row wedged at seed " << seed
           << " (stalled_engaged=" << result.stalled_engaged << ")";
      testing::dump_failing_trace("stall_wfs_watchdog", note.str());
    }
    ASSERT_FALSE(result.watchdog_fired)
        << "wait-free survivors stopped completing with a parked reader, "
           "seed "
        << seed;
  }
}

TEST(StallRt, CombiningUniversal_StalledCombinerDocumentedBlockingWindow) {
  // Flat-combining mode, one thread parked: when the park lands while that
  // thread holds the combining record, survivors legitimately spin on it —
  // the documented blocking window (docs/FAULTS.md), the rt analogue of
  // CrashAudit.CombiningUniversalWinnerCrashedMidBatchBlocks. Outside that
  // window survivors must finish with exact counter accounting. The row
  // asserts both outcomes occur nowhere they shouldn't: a non-fired run
  // must balance the books, and across the seed sweep at least one run
  // must complete (the blocking window is a window, not the whole op).
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  int completed_runs = 0;
  const int iters = std::max(4, testing::rt_fuzz_iters(5));
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc304, static_cast<std::uint64_t>(iter));
    Alg obj(FuzzEnv::Ctx{}, spec, n, /*clear_contexts=*/true,
            /*combine=*/true);
    std::atomic<std::uint64_t> progress{0};
    std::array<std::atomic<std::uint64_t>, 3> completed{};
    const auto result = testing::run_stall_threads(
        n, /*num_stalled=*/1, seed, env::YieldPolicy{},
        {.window = 10}, progress,
        [&](int pid) {
          for (int i = 0; i < 5; ++i) {
            (void)obj.apply(pid, spec::CounterSpec::inc()).get();
            progress.fetch_add(1, std::memory_order_release);
            completed[static_cast<std::size_t>(pid)].fetch_add(
                1, std::memory_order_release);
          }
        },
        [&] {
          const std::uint64_t done =
              completed[0].load() + completed[1].load() + completed[2].load();
          const std::uint64_t head = obj.head_state_encoded();
          EXPECT_GE(head, 10 + done) << "seed " << seed;
          EXPECT_LE(head, 10 + done + 1) << "seed " << seed;
        },
        /*deadline_ms=*/2'000);
    if (!result.watchdog_fired) ++completed_runs;
  }
  EXPECT_GT(completed_runs, 0)
      << "every stall point blocked the combining universal — the blocking "
         "window should be the combining-record hold, not the entire op";
}

// ---- the k-of-n stall sweep ----
//
// Every family below runs with k of its n threads parked, for every k in
// 0..n-1. Survivors start only once all k are parked, so their whole
// workload runs against k crashed peers. Each family is lock-free or
// wait-free where its threads park, so the survivors must finish before
// the watchdog fires, and the image left at quiescence must balance:
//   * plain universal (n = 3): parked at a seeded boundary of the first
//     inc; head = 10 + completed incs + at most k helped parked incs.
//   * combining universal (n = 3): parked right after the announce store
//     (stall_after = 1: one primitive is two probe points), before any
//     combining-record install, so outside the documented blocking window.
//     The survivors' first batch sweeps every parked announce, so head =
//     10 + completed + k exactly, and ops_combined = completed + k.
//   * wait-free simulation (n = 3, fast_limit = 0): readers pid < k parked
//     in announce/enqueue/help, the writer is pid n - 1; the inner bins are
//     the unit vector of the last write.
//   * Alg 4 (n = 2, SWSR): the reader parked mid-scan of A, flag[1] up. The
//     writer's first write helps it (B[last] set, kept because flag[1] is
//     still up) and every later write sees B nonzero and skips the help.

enum class StallFamily {
  kPlainUniversal,
  kCombiningUniversal,
  kWaitFreeSim,
  kAlg4
};

struct StallSweepCase {
  StallFamily family;
  int n;
  int k;
};

std::vector<StallSweepCase> stall_sweep_cases() {
  std::vector<StallSweepCase> cases;
  for (const auto& [family, n] : {std::pair{StallFamily::kPlainUniversal, 3},
                                  std::pair{StallFamily::kCombiningUniversal, 3},
                                  std::pair{StallFamily::kWaitFreeSim, 3},
                                  std::pair{StallFamily::kAlg4, 2}}) {
    for (int k = 0; k < n; ++k) cases.push_back({family, n, k});
  }
  return cases;
}

std::string stall_case_name(
    const ::testing::TestParamInfo<StallSweepCase>& info) {
  static constexpr const char* kNames[] = {"PlainUniversal",
                                           "CombiningUniversal",
                                           "WaitFreeSim", "Alg4"};
  const StallSweepCase& c = info.param;
  return std::string(kNames[static_cast<int>(c.family)]) + "_" +
         std::to_string(c.k) + "of" + std::to_string(c.n);
}

class KOfNSweep : public ::testing::TestWithParam<StallSweepCase> {};

void universal_stall_case(const StallSweepCase& c, bool combine,
                          std::uint64_t seed) {
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  Alg obj(FuzzEnv::Ctx{}, spec, c.n, /*clear_contexts=*/true, combine);
  const testing::StallPlan plan =
      combine ? testing::StallPlan{.window = 1, .first = 1,
                                   .survivors_after_park = true}
              : testing::StallPlan{.window = 8, .survivors_after_park = true};
  std::atomic<std::uint64_t> progress{0};
  const auto result = testing::run_stall_threads(
      c.n, c.k, seed, env::YieldPolicy{}, plan, progress,
      [&](int pid) {
        for (int i = 0; i < 5; ++i) {
          (void)obj.apply(pid, spec::CounterSpec::inc()).get();
          progress.fetch_add(1, std::memory_order_release);
        }
      },
      [&] {
        // Parked threads stop inside their first inc, so every completed
        // inc is a survivor's.
        const std::uint64_t done = progress.load(std::memory_order_acquire);
        const std::uint64_t head = obj.head_state_encoded();
        const std::uint64_t k = static_cast<std::uint64_t>(c.k);
        if (combine) {
          EXPECT_EQ(head, 10 + done + k) << "seed " << seed;
          EXPECT_EQ(obj.ops_combined(), done + k) << "seed " << seed;
        } else {
          EXPECT_GE(head, 10 + done) << "seed " << seed;
          EXPECT_LE(head, 10 + done + k) << "seed " << seed;
        }
      });
  ASSERT_FALSE(result.watchdog_fired)
      << "survivors stopped completing, seed " << seed;
  EXPECT_EQ(result.stalled_engaged, c.k) << "seed " << seed;
}

void waitfree_sim_stall_case(const StallSweepCase& c, std::uint64_t seed) {
  const std::uint32_t k = 6;
  using Alg = algo::WaitFreeSimHiAlg<FuzzEnv, FuzzPacked>;
  const int writer = c.n - 1;
  Alg reg(FuzzEnv::Ctx{}, spec::RegisterSpec(k, 1), writer, /*reader_pid=*/0,
          /*fast_limit=*/0, /*num_processes=*/c.n);
  std::atomic<std::uint64_t> progress{0};
  const auto result = testing::run_stall_threads(
      c.n, c.k, seed, env::YieldPolicy{},
      {.window = 12, .survivors_after_park = true}, progress,
      [&](int pid) {
        if (pid == writer) {
          for (std::uint32_t v = 2; v <= k; ++v) {
            (void)reg.write(writer, v).get();
            progress.fetch_add(1, std::memory_order_release);
          }
          return;
        }
        for (int i = 0; i < 4; ++i) {
          const std::uint32_t seen = reg.read(pid).get();
          EXPECT_GE(seen, 1u);
          EXPECT_LE(seen, k);
          progress.fetch_add(1, std::memory_order_release);
        }
      },
      [&] {
        std::vector<std::uint8_t> expected(k, 0);
        expected[k - 1] = 1;
        EXPECT_EQ(algo::memory_image(reg.combinator().inner()), expected)
            << "seed " << seed;
      });
  ASSERT_FALSE(result.watchdog_fired)
      << "survivors stopped completing, seed " << seed;
  EXPECT_EQ(result.stalled_engaged, c.k) << "seed " << seed;
}

void alg4_stall_case(const StallSweepCase& c, std::uint64_t seed) {
  // K = 70 spans two packed words and the initial value sits in the second,
  // so the reader's first A scan loads word 0 and then word 1. Its first
  // primitive (flag[1] <- 1) is probe points 1–2 and the word-0 load is
  // 3–4: stall_after = 3 parks it between the two loads.
  constexpr std::uint32_t k = 70;
  using Alg = algo::WaitFreeHiAlg<FuzzEnv, FuzzPacked>;
  constexpr int kWriter = 1;  // pid 0 is the reader
  Alg reg(FuzzEnv::Ctx{}, spec::RegisterSpec(k, /*initial=*/k), kWriter,
          /*reader_pid=*/0);
  std::atomic<std::uint64_t> progress{0};
  const auto result = testing::run_stall_threads(
      c.n, c.k, seed, env::YieldPolicy{},
      {.window = 1, .first = 3, .survivors_after_park = true}, progress,
      [&](int pid) {
        if (pid == kWriter) {
          for (std::uint32_t v = 2; v <= 6; ++v) {
            (void)reg.write(kWriter, v).get();
            progress.fetch_add(1, std::memory_order_release);
          }
          return;
        }
        for (int i = 0; i < 4; ++i) {
          const std::uint32_t seen = reg.read(pid).get();
          EXPECT_TRUE(seen == k || (seen >= 2 && seen <= 6)) << seen;
          progress.fetch_add(1, std::memory_order_release);
        }
      },
      [&] {
        // Layout A[1..K], B[1..K], flag[1], flag[2].
        std::vector<std::uint8_t> expected(2 * k + 2, 0);
        expected[6 - 1] = 1;  // A = e_6, the last write
        if (c.k == 1) {
          expected[k + k - 1] = 1;  // B[70]: the first write's help
          expected[2 * k] = 1;      // flag[1]: the parked reader's announce
        }
        EXPECT_EQ(algo::memory_image(reg), expected) << "seed " << seed;
      });
  ASSERT_FALSE(result.watchdog_fired)
      << "the writer stopped completing, seed " << seed;
  EXPECT_EQ(result.stalled_engaged, c.k) << "seed " << seed;
}

TEST_P(KOfNSweep, SurvivorsFinishAndTheImageBalances) {
  const StallSweepCase& c = GetParam();
  const int iters = testing::rt_fuzz_iters(5);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = util::hash_combine(
        util::hash_combine(0xc305, static_cast<std::uint64_t>(c.family)),
        static_cast<std::uint64_t>(c.k * 1000 + iter));
    switch (c.family) {
      case StallFamily::kPlainUniversal:
        universal_stall_case(c, /*combine=*/false, seed);
        break;
      case StallFamily::kCombiningUniversal:
        universal_stall_case(c, /*combine=*/true, seed);
        break;
      case StallFamily::kWaitFreeSim:
        waitfree_sim_stall_case(c, seed);
        break;
      case StallFamily::kAlg4:
        alg4_stall_case(c, seed);
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(StallRt, KOfNSweep,
                         ::testing::ValuesIn(stall_sweep_cases()),
                         stall_case_name);

// ---- the probe contract of RtEnvT ----
//
// Each of the 11 primitives calls Probe::point() exactly twice, around its
// atomic access; factories, peeks and relax() never call it. The stall
// ordinals rest on this count: stall_after = k parks a thread at its
// (k+1)-th boundary, i.e. inside its (k/2 + 1)-th primitive (the
// combining family of the k-of-n sweep parks at stall_after = 1, right
// after its first access).

struct CountingProbe {
  static inline thread_local std::uint64_t points = 0;
  static void point() noexcept { ++points; }
};
using CountingEnv = env::RtEnvT<CountingProbe>;

static_assert(std::is_same_v<FuzzEnv::BinArray, env::RtEnv::BinArray>);
static_assert(
    std::is_same_v<FuzzEnv::PackedBinArray, env::RtEnv::PackedBinArray>);
static_assert(std::is_same_v<FuzzEnv::CasCell, env::RtEnv::CasCell>);
static_assert(std::is_same_v<FuzzEnv::WordArray, env::RtEnv::WordArray>);
static_assert(std::is_same_v<FuzzEnv::Op<int>, env::RtEnv::Op<int>>);

/// Probe points `call` adds on this thread.
template <typename Call>
std::uint64_t points_during(Call&& call) {
  const std::uint64_t before = CountingProbe::points;
  call();
  return CountingProbe::points - before;
}

TEST(ProbeContract, EachPrimitiveCallsPointTwiceNothingElseCallsIt) {
  using E = CountingEnv;
  const std::vector<std::uint64_t> init{0x5};
  const std::uint64_t before = CountingProbe::points;
  auto bins = E::make_bin_array_words(E::Ctx{}, "A", 4, init);
  auto packed = E::make_packed_bin_array_words(E::Ctx{}, "P", 70, init);
  auto cell = E::make_cas(E::Ctx{}, "X", 7);
  auto words = E::make_word_array(E::Ctx{}, "W", 2, 9);
  EXPECT_EQ(CountingProbe::points - before, 0u) << "factories";

  const E::Word seen = E::peek_cas(cell);
  const E::Word next{8, 0};
  EXPECT_EQ(points_during([&] {
              EXPECT_EQ(E::read_bit(bins, 1).await_resume(), 1u);
            }), 2u) << "read_bit";
  EXPECT_EQ(points_during([&] {
              (void)E::write_bit(bins, 2, 1).await_resume();
            }), 2u) << "write_bit";
  EXPECT_EQ(points_during([&] {
              EXPECT_EQ(E::load_packed_word(packed, 0).await_resume(), 0x5u);
            }), 2u) << "load_packed_word";
  EXPECT_EQ(points_during([&] {
              (void)E::or_packed_word(packed, 1, 0x2).await_resume();
            }), 2u) << "or_packed_word";
  EXPECT_EQ(points_during([&] {
              (void)E::and_packed_word(packed, 1, 0).await_resume();
            }), 2u) << "and_packed_word";
  EXPECT_EQ(points_during([&] {
              EXPECT_EQ(E::cas_read(cell).await_resume().value, 7u);
            }), 2u) << "cas_read";
  EXPECT_EQ(points_during([&] {
              EXPECT_TRUE(E::cas(cell, seen, next).await_resume().installed);
            }), 2u) << "cas";
  EXPECT_EQ(points_during([&] {
              (void)E::cas_write(cell, seen).await_resume();
            }), 2u) << "cas_write";
  EXPECT_EQ(points_during([&] {
              EXPECT_EQ(E::read_word(words, 0).await_resume(), 9u);
            }), 2u) << "read_word";
  EXPECT_EQ(points_during([&] {
              (void)E::write_word(words, 1, 3).await_resume();
            }), 2u) << "write_word";
  EXPECT_EQ(points_during([&] {
              EXPECT_FALSE(
                  E::cas_word(words, 1, 0, 4).await_resume().installed);
            }), 2u) << "cas_word";
  // The packed audit is an Env::lift_each: on RtEnvT a plain loop that
  // still calls load_packed_word once per word (2 words here), so a
  // perturbing probe reaches every load of an audit.
  EXPECT_EQ(points_during([&] {
              EXPECT_EQ(env::PackedBins<E>::scan_members(
                            packed, [](std::uint32_t) {}).get(), 2u);
            }), 2u * E::packed_words(packed)) << "scan_members";
  // The R-LLSC retry loops are Env::cas_loop: on RtEnvT a plain loop that
  // still calls cas_read and each cas, so a perturbing probe reaches every
  // CAS attempt — 2 points per primitive, a read plus one CAS solo.
  algo::CasRllscAlg<E> rllsc(E::Ctx{}, "R", 7);
  EXPECT_EQ(points_during([&] { EXPECT_EQ(rllsc.ll(0).get(), 7u); }), 4u)
      << "ll";
  EXPECT_EQ(points_during([&] { EXPECT_TRUE(rllsc.sc(0, 3).get()); }), 4u)
      << "sc linked";
  EXPECT_EQ(points_during([&] { EXPECT_FALSE(rllsc.sc(0, 4).get()); }), 2u)
      << "sc unlinked";
  (void)rllsc.ll(1).get();
  EXPECT_EQ(points_during([&] { EXPECT_TRUE(rllsc.rl(1).get()); }), 4u)
      << "rl linked";
  EXPECT_EQ(points_during([&] { EXPECT_TRUE(rllsc.rl(1).get()); }), 2u)
      << "rl unlinked";

  EXPECT_EQ(points_during([&] {
              EXPECT_EQ(E::peek_bit(bins, 2), 1u);
              EXPECT_EQ(E::peek_packed_word(packed, 1), 0u);
              EXPECT_EQ(E::peek_cas(cell).value, 7u);
              EXPECT_EQ(E::peek_word(words, 1), 3u);
              EXPECT_EQ(E::packed_bins(packed), 70u);
              EXPECT_EQ(E::packed_words(packed), 2u);
              EXPECT_GT(E::bin_storage_bytes(bins), 0u);
              EXPECT_GT(E::packed_storage_bytes(packed), 0u);
              (void)E::cas_is_lock_free(cell);
              E::relax();
            }), 0u) << "peeks, sizes and relax()";
}

TEST(ProbeContract, FuzzEnvPrimitiveIsTwoInjectorBoundaries) {
  env::RtEnv::CasCell cell = FuzzEnv::make_cas(FuzzEnv::Ctx{}, "X", 0);
  env::YieldInjector::arm(1, env::YieldPolicy{/*permille=*/0});
  (void)FuzzEnv::cas_read(cell).await_resume();
  EXPECT_EQ(env::YieldInjector::points(), 2u);
  (void)FuzzEnv::peek_cas(cell);
  EXPECT_EQ(env::YieldInjector::points(), 2u);
  env::YieldInjector::disarm();
}

}  // namespace
}  // namespace hi
