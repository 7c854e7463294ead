// Crash-fault injection in the step model (the sixth rung of the
// verification ladder — docs/TESTING.md, docs/FAULTS.md):
//
//  * THE SWEEP — crash_sweep crashes one operation at EVERY crash point;
//    survivors must drain and the history with the crashed op pending must
//    linearize. The table's crash rows (tests/objects.h crash_rows(), named
//    CrashAudit.<entry>_<label>) run it; the wait_free_sim row also checks
//    that helpers finish a crashed owner's announced+enqueued op.
//  * POSITIVE CONTROLS — through the same sweep, the lock-based counter
//    fails the progress gate exactly where its lock dies with a crashed
//    holder, and the leaky-on-crash register fails the crash-point HI audit
//    exactly where a crashed write left its journal set.
//  * OFF-TABLE OBJECTS — the universal over native cells keeps a crash's
//    residue inside the crashed pid's own announce cell; the flat-combining
//    universal survives a winner crashed BEFORE the combining-record
//    install and blocks when it crashes after — the documented limit.
//  * ROUND TRIP — a caught crash failure records, shrinks, prints as a
//    paste-ready ScheduleTrace literal and replays over hardware atomics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/universal.h"
#include "algo/wait_free_sim.h"
#include "env/replay_env.h"
#include "env/sim_env.h"
#include "explore.h"
#include "fuzz_common.h"
#include "objects.h"
#include "sim/driver.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/native_rllsc.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "sim_system.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "verify/crash_audit.h"
#include "verify/linearizability.h"
#include "verify/replay.h"
#include "verify/shrink.h"

namespace hi {
namespace {

// ----------------------------------------------------------------- staging

/// Start pid's next workload op and crash it after exactly `steps` primitive
/// steps. Returns false — without crashing — if the op completes in fewer
/// steps (the caller's crash-point sweep is past the op's length).
template <typename S, typename Impl>
bool start_and_crash_after(sim::Driver<S, Impl>& driver, int pid,
                           std::uint64_t steps) {
  if (driver.start(pid)) return false;  // zero-primitive op
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (driver.step(pid)) return false;
  }
  driver.crash(pid);
  return true;
}

/// Drain every surviving process: start each remaining workload op as its
/// process goes idle and round-robin the pending ones to quiescence.
template <typename S, typename Impl>
verify::ProgressResult drain_survivors(sim::Driver<S, Impl>& driver,
                                       std::uint64_t budget) {
  verify::ProgressResult total{/*quiescent=*/true, /*steps_used=*/0};
  const int n = driver.scheduler().num_processes();
  for (;;) {
    bool started = false;
    for (int pid = 0; pid < n; ++pid) {
      if (driver.can_start(pid)) {
        (void)driver.start(pid);
        started = true;
      }
    }
    const verify::ProgressResult round = verify::drive_survivors_to_quiescence(
        driver, budget > total.steps_used ? budget - total.steps_used : 0);
    total.steps_used += round.steps_used;
    if (!round.quiescent) {
      total.quiescent = false;
      return total;
    }
    if (!started) return total;
  }
}

/// Responses of the completed operations in `driver`'s history, in
/// invocation order.
template <typename S, typename Impl>
std::vector<typename S::Resp> completed_responses(
    const sim::Driver<S, Impl>& driver) {
  std::vector<typename S::Resp> out;
  for (const auto& e : driver.history().entries()) {
    if (e.completed()) out.push_back(e.resp);
  }
  return out;
}

/// Allowed-residue predicate over one object's snapshot word range.
auto words_of(const sim::Memory& mem, int object_id) {
  const std::pair<std::size_t, std::size_t> range = mem.word_range(object_id);
  return [range](std::size_t w) {
    return w >= range.first && w < range.second;
  };
}

// --------------------------------------------------------------- the sweep

/// Object-specific checks on a sweep, with the crash point s.
template <typename System>
struct CrashHooks {
  /// Right after the crash, before the survivors run.
  std::function<void(System&, std::uint64_t)> crashed;
  /// After the survivors drained (or ran out of budget).
  std::function<void(System&, std::uint64_t)> drained;
};

struct CrashPoint {
  std::uint64_t steps;  // the crashed op's steps before the crash
  bool drained;    // survivors went quiescent in budget; only it is pending
  bool linearizable;  // the history, the crashed op pending, linearizes
};

/// The one crash sweep: for s = 0, 1, … a fresh system from `make` runs
/// pid's first op of `work` for s steps and crashes it, then the survivors
/// run the rest of `work` within `budget` steps. Stops at the first s the
/// op completes within.
template <typename System, typename S>
std::vector<CrashPoint> crash_sweep(
    const S& spec, const std::function<std::unique_ptr<System>()>& make,
    const std::vector<std::vector<typename S::Op>>& work, int pid,
    std::uint64_t budget, const CrashHooks<System>& hooks = {}) {
  std::vector<CrashPoint> points;
  for (std::uint64_t s = 0;; ++s) {
    const std::unique_ptr<System> sys = make();
    sim::Driver driver(spec, sys->sched, sys->impl, work);
    if (!start_and_crash_after(driver, pid, s)) return points;
    if (hooks.crashed) hooks.crashed(*sys, s);
    const verify::ProgressResult result = drain_survivors(driver, budget);
    points.push_back(
        {s, result.quiescent && driver.pending() == 1,
         result.quiescent &&
             verify::check_linearizable(spec, driver.history()).ok()});
    if (hooks.drained) hooks.drained(*sys, s);
  }
}

/// The rung's verdict on a sweep of a lock-free or wait-free object.
void expect_survived(const std::vector<CrashPoint>& points,
                     std::size_t min_crash_points) {
  for (const CrashPoint& p : points) {
    EXPECT_TRUE(p.drained) << "survivors blocked by a crash at step "
                           << p.steps
                           << " — progress must survive crashes";
    EXPECT_TRUE(p.linearizable)
        << "not linearizable with the op crashed at step " << p.steps
        << " pending";
  }
  EXPECT_GE(points.size(), min_crash_points)
      << "crash-point sweep never engaged";
}

/// True iff the help queue holds a live entry of pid.
template <typename System>
bool queue_holds(const System& sys, int pid) {
  const auto& q = sys.impl.combinator().queue();
  for (std::uint64_t h = q.peek_head(); h < q.peek_tail(); ++h) {
    const std::uint64_t slot =
        q.peek_slot(static_cast<std::uint32_t>(h % q.capacity()));
    if (algo::wfs::slot_round(slot) == h / q.capacity() &&
        algo::wfs::slot_pid(slot) == pid) {
      return true;
    }
  }
  return false;
}

/// The wait-free simulation's helping obligation: an op of the crashed pid
/// that was announced and visible in the queue at the crash is completed by
/// survivors although its owner is dead, and no entry of the crashed pid
/// is left in the queue once they are quiescent. Returns the sweep-level
/// verdict: some crash point hit the announced+enqueued window.
template <typename System>
std::function<void()> helping_obligation(int pid, CrashHooks<System>& hooks) {
  struct Seen {
    bool announced = false;
    bool enqueued = false;
    int helped_cases = 0;
  };
  auto seen = std::make_shared<Seen>();
  hooks.crashed = [seen, pid](System& sys, std::uint64_t) {
    seen->announced =
        algo::wfs::rec_state(sys.impl.combinator().peek_record(pid)) ==
        algo::wfs::kPending;
    seen->enqueued = queue_holds(sys, pid);
  };
  hooks.drained = [seen, pid](System& sys, std::uint64_t s) {
    if (seen->announced && seen->enqueued) {
      EXPECT_EQ(algo::wfs::rec_state(sys.impl.combinator().peek_record(pid)),
                algo::wfs::kDone)
          << "announced+enqueued crashed op left pending at crash point "
          << s;
      EXPECT_GE(sys.impl.combinator().helped_completions(), 1u);
      ++seen->helped_cases;
    }
    EXPECT_FALSE(queue_holds(sys, pid))
        << "crashed pid's entry stuck in the help queue at crash point " << s;
  };
  return [seen] {
    EXPECT_GT(seen->helped_cases, 0)
        << "no crash point ever hit the announced+enqueued window — the "
           "helping obligation was never exercised";
  };
}

template <typename Row>
void run_crash(const Row& row) {
  using E = typename Row::Entry;
  using System = testing::EntrySystem<E>;
  CrashHooks<System> hooks;
  std::function<void()> verdict;
  if constexpr (requires { E::kFastLimit; }) {
    std::function<void()> obligation = helping_obligation(row.pid, hooks);
    // With a fast path the reads may never reach the helping path (as on
    // the explore rung), so only a fast_limit 0 sweep must exercise it.
    if (E::kFastLimit == 0) verdict = std::move(obligation);
  }
  expect_survived(
      crash_sweep<System>(
          row.spec,
          testing::entry_factory<E>(row.spec,
                                    static_cast<int>(row.work.size())),
          row.work, row.pid, row.budget, hooks),
      static_cast<std::size_t>(row.min_crash_points));
  if (verdict) verdict();
}

const bool kRowsRegistered = testing::register_rows<testing::crash_rows<>>(
    "CrashAudit", [](const auto& row) { return testing::row_name(row); },
    [](const auto& row) { run_crash(row); });

// ----------------------------------------------------------------- controls

struct SpinLockSystem
    : testing::SimSystem<testing::NaiveCounterSpec,
                         testing::SpinLockCounterAlg<env::SimEnv>> {
  explicit SpinLockSystem(int num_processes)
      : SimSystem(testing::NaiveCounterSpec{}, num_processes) {}
};

struct LeakySystem
    : testing::SimSystem<spec::RegisterSpec,
                         testing::LeakyCrashRegisterAlg<env::SimEnv>> {
  LeakySystem() : SimSystem(spec::RegisterSpec(4, 1), 2, 1) {}
};

TEST(CrashAudit, SpinLockControlFailsProgressGate) {
  // The sweep over the lock-based counter (inc = lock CAS, read, write,
  // unlock): a crash with the lock held leaves the survivor spinning, so
  // the gate must fail exactly at those crash points, and pass where the
  // crash left the lock free.
  using Spec = testing::NaiveCounterSpec;
  const Spec spec;
  const std::vector<std::vector<Spec::Op>> work = {{Spec::inc()},
                                                   {Spec::inc()}};
  std::vector<bool> held;
  const auto points = crash_sweep<SpinLockSystem>(
      spec, [] { return std::make_unique<SpinLockSystem>(2); }, work, 0,
      5'000,
      {.crashed = [&held](SpinLockSystem& sys, std::uint64_t) {
        held.push_back(sys.impl.lock_held());
      }});
  ASSERT_EQ(points.size(), held.size());
  int blocked = 0;
  for (const CrashPoint& p : points) {
    EXPECT_EQ(p.drained, !held[p.steps]) << "crash point " << p.steps;
    if (!p.drained) ++blocked;
  }
  EXPECT_GT(blocked, 0)
      << "a lock-based object must FAIL the progress gate when its lock "
         "holder crashes — the positive control lost its teeth";
}

TEST(CrashAudit, SpinLockDrainsWithoutCrashes) {
  // Sanity for the gate itself: crash-free, the same object drains and both
  // incs respond — the budget exhaustion above is the crash, not the gate.
  const std::vector<std::vector<testing::NaiveCounterSpec::Op>> work = {
      {testing::NaiveCounterSpec::inc()}, {testing::NaiveCounterSpec::inc()}};
  SpinLockSystem sys(2);
  sim::Driver driver(sys.spec, sys.sched, sys.impl, work);
  const auto result = drain_survivors(driver, 5'000);
  std::vector<std::uint32_t> responses = completed_responses(driver);
  EXPECT_TRUE(result.quiescent);
  std::sort(responses.begin(), responses.end());
  EXPECT_EQ(responses, (std::vector<std::uint32_t>{1, 2}));
}

TEST(CrashAudit, LeakyRegisterControlFailsResidueAudit) {
  sim::MemorySnapshot canon_initial, canon_written;
  {
    LeakySystem s;
    canon_initial = s.mem.snapshot();
  }
  {
    LeakySystem s;
    (void)sim::run_solo(s.sched, 0, s.impl.write(2));
    canon_written = s.mem.snapshot();
  }

  // write = (read value, store journal, store value, clear journal). A
  // crash after the journal store and before the clear leaves the OLD value
  // in the journal — the leak a seized machine reads. Residue is allowed
  // only inside the value cell (object 0), the crashed write's own words;
  // the journal word (object 1) is not the op's own. So the audit must fail
  // exactly where the crash left the journal set, and pass elsewhere (it is
  // not trivially firing).
  const spec::RegisterSpec spec(4, 1);
  bool journal_set = false;
  int leaks = 0;
  const auto points = crash_sweep<LeakySystem>(
      spec, [] { return std::make_unique<LeakySystem>(); },
      {{spec::RegisterSpec::write(2)}, {spec::RegisterSpec::read()}}, 0,
      10'000,
      {.crashed = [&](LeakySystem& sys, std::uint64_t s) {
         // The journal holds 0 or the OLD value, 1.
         EXPECT_LE(sys.impl.peek_journal(), 1u) << "crash point " << s;
         journal_set = sys.impl.peek_journal() != 0;
       },
       .drained = [&](LeakySystem& sys, std::uint64_t s) {
         const auto report = verify::residue_against_best(
             canon_initial, canon_written, sys.mem.snapshot(),
             words_of(sys.mem, 0));
         EXPECT_EQ(report.ok, !journal_set) << "crash point " << s;
         EXPECT_EQ(report.unlocalized.empty(), !journal_set);
         if (!report.ok) ++leaks;
       }});
  expect_survived(points, 4);  // plain reads/writes cannot block
  EXPECT_GT(leaks, 0)
      << "the leaky register's journal residue escaped the HI audit — the "
         "positive control lost its teeth";
}

// ------------------------------------------------------ off-table objects

/// Algorithm 5 over native R-LLSC cells, plain or flat-combining, for 2
/// processes from state 10.
using NativeUniversal = testing::SimSystem<
    spec::CounterSpec,
    algo::UniversalAlg<env::SimEnv, spec::CounterSpec, sim::NativeRllsc>>;

std::unique_ptr<NativeUniversal> native_universal(bool combine) {
  return std::make_unique<NativeUniversal>(
      spec::CounterSpec(1u << 20, 10), 2, /*num_processes=*/2,
      /*clear_contexts=*/true, combine);
}

TEST(CrashAudit, PlainUniversalResidueConfinedToCrashedAnnounceCell) {
  // Canonical images per surviving abstract state, built by fresh solo runs
  // (who ran the incs must not matter at quiescence — that is the object's
  // state-quiescent-HI claim, tested elsewhere; here it feeds the audit).
  const auto canon_after = [](int incs) {
    const auto s = native_universal(/*combine=*/false);
    for (int i = 0; i < incs; ++i) {
      (void)sim::run_solo(s->sched, 1,
                          s->impl.apply(1, spec::CounterSpec::inc()));
    }
    return s->mem.snapshot();
  };
  const sim::MemorySnapshot canon_lost = canon_after(1);    // crashed inc lost
  const sim::MemorySnapshot canon_taken = canon_after(2);   // crashed inc took

  // The survivor's inc drains and linearizes at every crash point of pid
  // 0's inc (fetch-and-inc returns 10 if the crashed inc was lost, 11 if it
  // took effect). Memory layout: object 0 = head cell, objects 1..n =
  // announce cells. The only residue a crash may leave is in the crashed
  // pid's OWN announce cell (its abandoned announcement / unconsumed helped
  // response); head is cleaned by any survivor's successful SC.
  const spec::CounterSpec spec(1u << 20, 10);
  const auto points = crash_sweep<NativeUniversal>(
      spec, [] { return native_universal(/*combine=*/false); },
      {{spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}}, 0, 200'000,
      {.drained = [&](NativeUniversal& sys, std::uint64_t s) {
        const auto report = verify::residue_against_best(
            canon_lost, canon_taken, sys.mem.snapshot(), words_of(sys.mem, 1));
        EXPECT_TRUE(report.ok) << "crash point " << s
                               << " leaked outside announce[0]: "
                               << report.describe();
      }});
  expect_survived(points, 6);
}

TEST(CrashAudit, CombiningUniversalSurvivesWinnerCrashBeforeInstall) {
  const std::vector<std::vector<spec::CounterSpec::Op>> work = {
      {spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}};

  // Find the step at which a solo winner SC-installs its combining record.
  std::uint64_t install_step = 0;
  {
    const auto sys = native_universal(/*combine=*/true);
    sim::Driver driver(sys->spec, sys->sched, sys->impl, work);
    ASSERT_FALSE(driver.start(0));
    while (!sys->impl.head_is_combining()) {
      ASSERT_LT(install_step, 10'000u) << "no combining record ever installed";
      ASSERT_TRUE(driver.can_step(0));
      ASSERT_FALSE(driver.step(0))
          << "op completed without ever holding a combining record";
      ++install_step;
    }
  }
  ASSERT_GT(install_step, 0u);

  // Crash the winner at EVERY point before the install: survivors must
  // drain and their announced ops must complete with a correct response
  // (helped responses are never lost).
  for (std::uint64_t s = 0; s < install_step; ++s) {
    const auto sys = native_universal(/*combine=*/true);
    sim::Driver driver(sys->spec, sys->sched, sys->impl, work);
    ASSERT_TRUE(start_and_crash_after(driver, 0, s));
    ASSERT_FALSE(sys->impl.head_is_combining());

    const auto result = drain_survivors(driver, 200'000);
    const std::vector<std::uint32_t> responses = completed_responses(driver);
    ASSERT_TRUE(result.quiescent)
        << "survivor blocked by a pre-install combiner crash at step " << s;
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0] == 10 || responses[0] == 11)
        << "survivor's response lost/corrupted at crash point " << s << ": "
        << responses[0];
  }
}

TEST(CrashAudit, CombiningUniversalWinnerCrashedMidBatchBlocks) {
  // The documented fundamental limit (docs/FAULTS.md): a winner crashed
  // AFTER SC-installing the combining record leaves survivors spinning on
  // it forever — flat combining is lock-free only while the combiner is
  // live. The audit must SEE this (otherwise the pre-install rows above
  // prove nothing about where the boundary is).
  const std::vector<std::vector<spec::CounterSpec::Op>> work = {
      {spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}};
  const auto sys = native_universal(/*combine=*/true);
  sim::Driver driver(sys->spec, sys->sched, sys->impl, work);
  (void)driver.start(0);
  std::uint64_t guard = 0;
  while (!sys->impl.head_is_combining()) {
    ASSERT_LT(++guard, 10'000u);
    (void)driver.step(0);
  }
  driver.crash(0);  // combining record installed, batch never published

  const auto result = drain_survivors(driver, 20'000);
  EXPECT_FALSE(result.quiescent)
      << "a survivor completed past a crashed mid-batch combiner — either "
         "the algorithm grew crash recovery (update docs/FAULTS.md and this "
         "test) or the staging is wrong";
}

// -------------------------------------------------------------- round trip

TEST(CrashRoundTrip, LeakCaughtShrunkPrintedAndReplayed) {
  const spec::RegisterSpec spec(4, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> work = {
      {spec::RegisterSpec::write(2)}, {spec::RegisterSpec::read()}};

  sim::MemorySnapshot canon_initial, canon_written;
  {
    LeakySystem s;
    canon_initial = s.mem.snapshot();
  }
  {
    LeakySystem s;
    (void)sim::run_solo(s.sched, 0, s.impl.write(2));
    canon_written = s.mem.snapshot();
  }
  std::pair<std::size_t, std::size_t> value_range;
  {
    LeakySystem s;
    value_range = s.mem.word_range(0);
  }
  const auto allowed = [value_range](std::size_t w) {
    return w >= value_range.first && w < value_range.second;
  };
  const auto leak_escapes = [&](const sim::MemorySnapshot& image) {
    return !verify::residue_against_best(canon_initial, canon_written, image,
                                         allowed)
                .ok;
  };

  // 1. CATCH — crash-enumerating exploration finds a configuration whose
  //    quiescent image leaks history.
  std::vector<sim::Decision> failing;
  const auto caught = testing::explore<LeakySystem>(
      spec, [] { return std::make_unique<LeakySystem>(); }, work,
      {.max_depth = 32,
       .max_executions = 100'000,
       .mode = sim::ExploreMode::kNaive,
       .max_crashes = 1},
      {.complete = [&](LeakySystem& sys, const auto&,
                       const std::vector<sim::Decision>& prefix) {
        if (failing.empty() && leak_escapes(sys.mem.snapshot())) {
          failing = prefix;
        }
      }});
  ASSERT_FALSE(failing.empty())
      << "exploration never caught the seeded crash leak";
  // The leak is an HI failure only: every crashed history still linearizes.
  EXPECT_EQ(caught.lin_failures, 0u);

  // Tolerant executor over a fresh system: invalid schedules are rejected
  // (nullopt); valid ones are driven to quiescence on the survivors — the
  // same post-crash drain the audit itself performs — and yield the
  // quiescent image the leak predicate re-judges. Draining (rather than
  // demanding the candidate end quiescent by itself) is what lets ddmin
  // drop the survivor's decisions one at a time.
  const auto execute = [&](const std::vector<sim::Decision>& decisions)
      -> std::optional<sim::MemorySnapshot> {
    LeakySystem sys;
    sim::Driver driver(sys.spec, sys.sched, sys.impl, work);
    for (const sim::Decision& d : decisions) {
      if (d.pid < 0 || d.pid >= sys.sched.num_processes()) return std::nullopt;
      if (d.crash) {
        if (!driver.can_crash(d.pid)) return std::nullopt;
        driver.crash(d.pid);
      } else if (d.start) {
        if (!driver.can_start(d.pid)) return std::nullopt;
        (void)driver.start(d.pid);
      } else {
        if (!driver.can_step(d.pid)) return std::nullopt;
        (void)driver.step(d.pid);
      }
    }
    const auto drained = drain_survivors(driver, 10'000);
    if (!drained.quiescent) return std::nullopt;
    return sys.mem.snapshot();
  };

  // 2. SHRINK — ddmin down to the interleaving that matters: invoke the
  //    write, execute its read + journal store, crash. Four decisions.
  const std::vector<sim::Decision> shrunk =
      verify::shrink_schedule(failing, execute, leak_escapes);
  EXPECT_LE(shrunk.size(), failing.size());
  EXPECT_EQ(shrunk.size(), 4u) << "expected {start w, read, journal, crash}";
  EXPECT_TRUE(std::any_of(shrunk.begin(), shrunk.end(),
                          [](const sim::Decision& d) { return d.crash; }));

  // 3. PRINT — the paste-ready regression literal carries the crash step.
  const sim::ScheduleTrace trace = caught.explorer->trace_of(shrunk);
  ASSERT_EQ(trace.steps.size(), shrunk.size());
  const std::string literal = trace.pretty();
  EXPECT_NE(literal.find(sim::TraceStep::kCrashKind), std::string::npos)
      << literal;

  // 4. REPLAY — the crashed schedule marches differentially over real
  //    std::atomic cells (ReplayEnv), lockstep over the survivors, and the
  //    leak reproduces bit-identically on hardware words.
  sim::Memory sim_mem;
  sim::Scheduler sim_sched(2);
  testing::LeakyCrashRegisterAlg<env::SimEnv> sim_impl(sim_mem, 1);
  sim::Memory replay_mem;
  sim::Scheduler replay_sched(2);
  testing::LeakyCrashRegisterAlg<env::ReplayEnv> replay_impl(replay_mem, 1);
  const verify::ReplayReport report = verify::replay_differential(
      spec, sim_sched, sim_impl, replay_sched, replay_impl, work, trace,
      verify::snapshot_word_compare(sim_mem, replay_mem));
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << literal;
  EXPECT_TRUE(leak_escapes(sim_mem.snapshot()))
      << "the shrunk schedule no longer leaks when replayed";
}

}  // namespace
}  // namespace hi
