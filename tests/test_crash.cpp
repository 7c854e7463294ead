// Crash-fault injection in the step model (the sixth rung of the
// verification ladder — docs/TESTING.md, docs/FAULTS.md):
//
//  * POSITIVE CONTROLS — the lock-based counter fails the progress gate
//    (its lock dies with a crashed holder) and the leaky-on-crash register
//    fails the crash-point HI audit (it journals the OLD value into a
//    scratch word and only a completed write cleans it). Both are caught on
//    every run, which is what certifies the audit can catch anything.
//
//  * REAL OBJECTS — at EVERY crash point of an operation, survivors drain
//    (lock-free/wait-free progress survives crashes), responses stay
//    consistent with the crashed op pending, and the quiescent image's
//    residue is localized to the crashed op's own words (the fault
//    containment discipline of verify/crash_audit.h). The wait_free_sim
//    combinator's helpers finish a crashed owner's announced+enqueued op;
//    the flat-combining universal survives a winner crashed anywhere BEFORE
//    the combining-record install, and demonstrably blocks when the winner
//    crashes after it — the documented fundamental limit (docs/FAULTS.md).
//
//  * EXPLORER — ExploreLimits::max_crashes enumerates ≤ k-crash
//    configurations, naive and DPOR agree on the complete-history set, and
//    max_crashes = 0 stays exactly crash-free (default behavior unchanged).
//
//  * ROUND TRIP — a caught crash failure records, shrinks (verify/shrink.h),
//    prints as a paste-ready ScheduleTrace literal with its crash step, and
//    replays differentially over hardware atomics (verify/replay.h) — the
//    acceptance pipeline for crash regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/wait_free_sim.h"
#include "core/hi_register_lockfree.h"
#include "core/hi_set.h"
#include "core/universal.h"
#include "core/wait_free_sim.h"
#include "env/replay_env.h"
#include "env/sim_env.h"
#include "fuzz_common.h"
#include "register_common.h"
#include "sim/explorer.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
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
bool start_and_crash_after(verify::TraceSide<S, Impl>& side, int pid,
                           std::uint64_t steps) {
  side.start(pid);
  if (side.reap(pid).has_value()) return false;  // zero-primitive op
  for (std::uint64_t i = 0; i < steps; ++i) {
    side.step(pid);
    if (side.reap(pid).has_value()) return false;
  }
  side.crash(pid);
  return true;
}

/// Drain every surviving process: start each remaining workload op as its
/// process goes idle and round-robin the pending ones to quiescence.
/// `on_resp(pid, resp)` fires per completed operation.
template <typename S, typename Impl, typename OnResp>
verify::ProgressResult drain_survivors(verify::TraceSide<S, Impl>& side,
                                       sim::Scheduler& sched,
                                       std::uint64_t budget, OnResp on_resp) {
  verify::ProgressResult total{/*quiescent=*/true, /*steps_used=*/0};
  const int n = sched.num_processes();
  const auto step_and_reap = [&](int pid) {
    side.step(pid);
    if (const auto resp = side.reap(pid)) on_resp(pid, *resp);
  };
  for (;;) {
    bool started = false;
    for (int pid = 0; pid < n; ++pid) {
      if (!sched.crashed(pid) && side.can_start(pid)) {
        side.start(pid);
        if (const auto resp = side.reap(pid)) on_resp(pid, *resp);
        started = true;
      }
    }
    const verify::ProgressResult round = verify::drive_survivors_to_quiescence(
        sched, step_and_reap,
        budget > total.steps_used ? budget - total.steps_used : 0);
    total.steps_used += round.steps_used;
    if (!round.quiescent) {
      total.quiescent = false;
      return total;
    }
    if (!started) return total;
  }
}

/// Allowed-residue predicate over one object's snapshot word range.
auto words_of(const sim::Memory& mem, int object_id) {
  const std::pair<std::size_t, std::size_t> range = mem.word_range(object_id);
  return [range](std::size_t w) { return w >= range.first && w < range.second; };
}

// ----------------------------------------------------------------- systems

struct SpinLockSystem {
  testing::NaiveCounterSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  testing::SpinLockCounterAlg<env::SimEnv> impl;

  explicit SpinLockSystem(int num_processes)
      : sched(num_processes), impl(mem) {}
  sim::Scheduler& scheduler() { return sched; }
  sim::Memory& memory() { return mem; }
  sim::OpTask<std::uint32_t> apply(int pid, testing::NaiveCounterSpec::Op op) {
    return impl.apply(pid, op);
  }
};

struct LeakySystem {
  spec::RegisterSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  testing::LeakyCrashRegisterAlg<env::SimEnv> impl;

  LeakySystem() : spec(4, 1), sched(2), impl(mem, 1) {}
  sim::Scheduler& scheduler() { return sched; }
  sim::Memory& memory() { return mem; }
  sim::OpTask<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    return impl.apply(pid, op);
  }
};

struct UniversalSystem {
  spec::CounterSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  core::Universal<spec::CounterSpec, core::NativeRllsc> impl;

  explicit UniversalSystem(bool combine)
      : spec(1u << 20, 10),
        sched(2),
        impl(mem, spec, /*num_processes=*/2, /*clear_contexts=*/true, combine) {
  }
};
using UniversalImpl = core::Universal<spec::CounterSpec, core::NativeRllsc>;

struct WfsSystem {
  spec::RegisterSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  core::WaitFreeSimHiRegister impl;

  // fast_limit = 0: every read announces + enqueues (slow path always), so
  // each crash-point sweep exercises the helping obligation directly.
  WfsSystem()
      : spec(4, 1),
        sched(2),
        impl(mem, spec, /*writer_pid=*/0, /*reader_pid=*/1, /*fast_limit=*/0) {}
};

struct CrashSet2System {
  spec::SetSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  core::HiSet impl;

  CrashSet2System() : spec(4), sched(2), impl(mem, spec) {}
  sim::Scheduler& scheduler() { return sched; }
  sim::Memory& memory() { return mem; }
  sim::OpTask<bool> apply(int pid, spec::SetSpec::Op op) {
    return impl.apply(pid, op);
  }
};

// ------------------------------------------------------- positive controls

TEST(CrashAudit, SpinLockControlFailsProgressGate) {
  const std::vector<std::vector<testing::NaiveCounterSpec::Op>> work = {
      {testing::NaiveCounterSpec::inc()}, {testing::NaiveCounterSpec::inc()}};
  SpinLockSystem sys(2);
  verify::TraceSide<testing::NaiveCounterSpec,
                    testing::SpinLockCounterAlg<env::SimEnv>>
      side(sys.sched, sys.impl, work);
  // Step 1 executes the lock CAS; the crash lands with the lock held.
  ASSERT_TRUE(start_and_crash_after(side, 0, 1));
  ASSERT_TRUE(sys.impl.lock_held()) << "crash staged before the acquire";

  const auto result =
      drain_survivors(side, sys.sched, 5'000, [](int, std::uint32_t) {});
  EXPECT_FALSE(result.quiescent)
      << "a lock-based object must FAIL the progress gate when its lock "
         "holder crashes — the positive control lost its teeth";
  EXPECT_GE(result.steps_used, 5'000u);
}

TEST(CrashAudit, SpinLockDrainsWithoutCrashes) {
  // Sanity for the gate itself: crash-free, the same object drains and both
  // incs respond — the budget exhaustion above is the crash, not the gate.
  const std::vector<std::vector<testing::NaiveCounterSpec::Op>> work = {
      {testing::NaiveCounterSpec::inc()}, {testing::NaiveCounterSpec::inc()}};
  SpinLockSystem sys(2);
  verify::TraceSide<testing::NaiveCounterSpec,
                    testing::SpinLockCounterAlg<env::SimEnv>>
      side(sys.sched, sys.impl, work);
  std::vector<std::uint32_t> responses;
  const auto result = drain_survivors(
      side, sys.sched, 5'000,
      [&](int, std::uint32_t r) { responses.push_back(r); });
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

  const std::vector<std::vector<spec::RegisterSpec::Op>> work = {
      {spec::RegisterSpec::write(2)}, {spec::RegisterSpec::read()}};

  // write = (read value, store journal, store value, clear journal). Crash
  // after step 3: the new value landed but the journal still holds the OLD
  // value — the leak a seized machine reads.
  LeakySystem sys;
  verify::TraceSide<spec::RegisterSpec,
                    testing::LeakyCrashRegisterAlg<env::SimEnv>>
      side(sys.sched, sys.impl, work);
  ASSERT_TRUE(start_and_crash_after(side, 0, 3));
  ASSERT_EQ(sys.impl.peek_journal(), 1u) << "crash staged at the wrong step";

  const auto result =
      drain_survivors(side, sys.sched, 10'000, [](int, std::uint32_t) {});
  ASSERT_TRUE(result.quiescent) << "plain reads/writes cannot block";

  // Residue allowed only inside the value cell (object 0) — the crashed
  // write's own words. The journal word (object 1) is not the op's own.
  const auto report = verify::residue_against_best(
      canon_initial, canon_written, sys.mem.snapshot(), words_of(sys.mem, 0));
  EXPECT_FALSE(report.ok)
      << "the leaky register's journal residue escaped the HI audit — the "
         "positive control lost its teeth";
  EXPECT_FALSE(report.unlocalized.empty());

  // And the audit is not trivially firing: a crash BEFORE the journal store
  // leaves a perfectly canonical image.
  LeakySystem clean;
  verify::TraceSide<spec::RegisterSpec,
                    testing::LeakyCrashRegisterAlg<env::SimEnv>>
      clean_side(clean.sched, clean.impl, work);
  ASSERT_TRUE(start_and_crash_after(clean_side, 0, 1));
  const auto clean_result =
      drain_survivors(clean_side, clean.sched, 10'000, [](int, std::uint32_t) {});
  ASSERT_TRUE(clean_result.quiescent);
  EXPECT_TRUE(verify::residue_against_best(canon_initial, canon_written,
                                           clean.mem.snapshot(),
                                           words_of(clean.mem, 0))
                  .ok);
}

// ----------------------------------------------------------- real objects

TEST(CrashAudit, LockFreeRegisterReaderDrainsAtEveryWriterCrashPoint) {
  using Impl = core::LockFreeHiRegister;
  const std::vector<std::vector<spec::RegisterSpec::Op>> work = {
      {spec::RegisterSpec::write(3)},
      {spec::RegisterSpec::read(), spec::RegisterSpec::read()}};
  int crash_points = 0;
  for (std::uint64_t s = 0;; ++s) {
    testing::RegisterSystem<Impl> sys(4);
    verify::TraceSide<spec::RegisterSpec, Impl> side(sys.sched, sys.impl,
                                                     work);
    if (!start_and_crash_after(side, testing::kWriterPid, s)) break;
    ++crash_points;

    std::vector<std::uint32_t> reads;
    const auto result = drain_survivors(
        side, sys.sched, 200'000, [&](int pid, std::uint32_t r) {
          if (pid == testing::kReaderPid) reads.push_back(r);
        });
    ASSERT_TRUE(result.quiescent)
        << "reader starved by a CRASHED writer at crash point " << s
        << " — lock-freedom must survive crashes";
    ASSERT_EQ(reads.size(), 2u);
    for (const std::uint32_t r : reads) {
      EXPECT_TRUE(r == 1 || r == 3)
          << "read returned " << r << " at crash point " << s
          << " — neither the initial nor the crashed-pending value";
    }
    // The crashed write may take effect at most once, and never un-happen:
    // observing 3 then 1 is not linearizable for any placement.
    EXPECT_FALSE(reads[0] == 3 && reads[1] == 1)
        << "crashed write un-happened between two reads (crash point " << s
        << ")";
  }
  EXPECT_GT(crash_points, 3) << "crash-point sweep never engaged";
}

TEST(CrashAudit, PlainUniversalResidueConfinedToCrashedAnnounceCell) {
  // Canonical images per surviving abstract state, built by fresh solo runs
  // (who ran the incs must not matter at quiescence — that is the object's
  // state-quiescent-HI claim, tested elsewhere; here it feeds the audit).
  const auto canon_after = [](int incs) {
    UniversalSystem s(/*combine=*/false);
    for (int i = 0; i < incs; ++i) {
      (void)sim::run_solo(s.sched, 1,
                          s.impl.apply(1, spec::CounterSpec::inc()));
    }
    return s.mem.snapshot();
  };
  const sim::MemorySnapshot canon_lost = canon_after(1);    // crashed inc lost
  const sim::MemorySnapshot canon_taken = canon_after(2);   // crashed inc took

  const std::vector<std::vector<spec::CounterSpec::Op>> work = {
      {spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}};
  int crash_points = 0;
  for (std::uint64_t s = 0;; ++s) {
    UniversalSystem sys(/*combine=*/false);
    verify::TraceSide<spec::CounterSpec, UniversalImpl> side(sys.sched,
                                                             sys.impl, work);
    if (!start_and_crash_after(side, 0, s)) break;
    ++crash_points;

    std::vector<std::uint32_t> responses;
    const auto result = drain_survivors(
        side, sys.sched, 200'000,
        [&](int, std::uint32_t r) { responses.push_back(r); });
    ASSERT_TRUE(result.quiescent)
        << "survivor starved at crash point " << s
        << " — the universal construction must complete on survivors";
    ASSERT_EQ(responses.size(), 1u);
    // Fetch-and-inc returns the pre-op value: 10 if the crashed inc was
    // lost, 11 if it took effect before the crash.
    EXPECT_TRUE(responses[0] == 10 || responses[0] == 11)
        << "survivor's inc returned " << responses[0] << " at crash point "
        << s;

    // Memory layout: object 0 = head cell, objects 1..n = announce cells.
    // The only residue a crash may leave is in the crashed pid's OWN
    // announce cell (its abandoned announcement / unconsumed helped
    // response); head is cleaned by any survivor's successful SC.
    const auto report = verify::residue_against_best(
        canon_lost, canon_taken, sys.mem.snapshot(), words_of(sys.mem, 1));
    EXPECT_TRUE(report.ok) << "crash point " << s
                           << " leaked outside announce[0]: "
                           << report.describe();
  }
  EXPECT_GT(crash_points, 5) << "crash-point sweep never engaged";
}

TEST(CrashAudit, CombiningUniversalSurvivesWinnerCrashBeforeInstall) {
  const std::vector<std::vector<spec::CounterSpec::Op>> work = {
      {spec::CounterSpec::inc()}, {spec::CounterSpec::inc()}};

  // Find the step at which a solo winner SC-installs its combining record.
  std::uint64_t install_step = 0;
  {
    UniversalSystem sys(/*combine=*/true);
    verify::TraceSide<spec::CounterSpec, UniversalImpl> side(sys.sched,
                                                             sys.impl, work);
    side.start(0);
    ASSERT_FALSE(side.reap(0).has_value());
    while (!sys.impl.head_is_combining()) {
      ASSERT_LT(install_step, 10'000u) << "no combining record ever installed";
      ASSERT_TRUE(side.runnable(0));
      side.step(0);
      ASSERT_FALSE(side.reap(0).has_value())
          << "op completed without ever holding a combining record";
      ++install_step;
    }
  }
  ASSERT_GT(install_step, 0u);

  // Crash the winner at EVERY point before the install: survivors must
  // drain and their announced ops must complete with a correct response
  // (helped responses are never lost).
  for (std::uint64_t s = 0; s < install_step; ++s) {
    UniversalSystem sys(/*combine=*/true);
    verify::TraceSide<spec::CounterSpec, UniversalImpl> side(sys.sched,
                                                             sys.impl, work);
    ASSERT_TRUE(start_and_crash_after(side, 0, s));
    ASSERT_FALSE(sys.impl.head_is_combining());

    std::vector<std::uint32_t> responses;
    const auto result = drain_survivors(
        side, sys.sched, 200'000,
        [&](int, std::uint32_t r) { responses.push_back(r); });
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
  UniversalSystem sys(/*combine=*/true);
  verify::TraceSide<spec::CounterSpec, UniversalImpl> side(sys.sched, sys.impl,
                                                           work);
  side.start(0);
  (void)side.reap(0);
  std::uint64_t guard = 0;
  while (!sys.impl.head_is_combining()) {
    ASSERT_LT(++guard, 10'000u);
    side.step(0);
    (void)side.reap(0);
  }
  side.crash(0);  // combining record installed, batch never published

  const auto result =
      drain_survivors(side, sys.sched, 20'000, [](int, std::uint32_t) {});
  EXPECT_FALSE(result.quiescent)
      << "a survivor completed past a crashed mid-batch combiner — either "
         "the algorithm grew crash recovery (update docs/FAULTS.md and this "
         "test) or the staging is wrong";
}

TEST(CrashAudit, WaitFreeSimHelpersFinishCrashedOwnersAnnouncedOp) {
  const std::vector<std::vector<spec::RegisterSpec::Op>> work = {
      {spec::RegisterSpec::write(2), spec::RegisterSpec::write(3),
       spec::RegisterSpec::write(2)},
      {spec::RegisterSpec::read()}};

  const auto queue_holds = [](const WfsSystem& sys, int pid) {
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
  };

  int crash_points = 0;
  int helped_cases = 0;
  for (std::uint64_t s = 0;; ++s) {
    WfsSystem sys;
    verify::TraceSide<spec::RegisterSpec, core::WaitFreeSimHiRegister> side(
        sys.sched, sys.impl, work);
    // Crash the READER mid-read: with fast_limit = 0 every read announces a
    // record and enqueues itself, so the sweep crosses announce-only,
    // mid-enqueue, and fully-enqueued windows.
    if (!start_and_crash_after(side, 1, s)) break;
    ++crash_points;
    const bool announced =
        algo::wfs::rec_state(sys.impl.combinator().peek_record(1)) ==
        algo::wfs::kPending;
    const bool enqueued = queue_holds(sys, 1);

    const auto result =
        drain_survivors(side, sys.sched, 200'000, [](int, std::uint32_t) {});
    ASSERT_TRUE(result.quiescent)
        << "writer blocked by a crashed reader at crash point " << s
        << " — run_direct's helping must not depend on the owner";

    if (announced && enqueued) {
      // The helping obligation: an announced + visible op is completed by
      // survivors even though its owner is dead.
      EXPECT_EQ(algo::wfs::rec_state(sys.impl.combinator().peek_record(1)),
                algo::wfs::kDone)
          << "announced+enqueued crashed op left pending at crash point " << s;
      EXPECT_GE(sys.impl.combinator().helped_completions(), 1u);
      ++helped_cases;
    }
    // Whatever the crash window: no entry of the crashed pid may be left
    // visible in the queue once the survivors are quiescent.
    EXPECT_FALSE(queue_holds(sys, 1))
        << "crashed reader's entry stuck in the help queue at crash point "
        << s;
  }
  EXPECT_GT(crash_points, 3) << "crash-point sweep never engaged";
  EXPECT_GT(helped_cases, 0)
      << "no crash point ever hit the announced+enqueued window — the "
         "helping obligation was never exercised";
}

// --------------------------------------------------------------- explorer

/// Canonical history key (same construction as test_explorer_dpor.cpp):
/// per-op (pid, encoded op, encoded response-or-'?') labels plus the
/// real-time precedence relation — invariant under DPOR-pruned reorderings,
/// and pending (crashed) ops key as '?'.
template <typename S, typename Hist>
std::string history_key(const S& spec, const Hist& hist) {
  const auto& entries = hist.entries();
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries[a].pid != entries[b].pid) {
      return entries[a].pid < entries[b].pid;
    }
    return entries[a].invoked_at < entries[b].invoked_at;
  });
  std::vector<std::size_t> label(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) label[order[i]] = i;

  std::ostringstream out;
  for (const std::size_t idx : order) {
    const auto& e = entries[idx];
    out << 'p' << e.pid << ':' << spec.encode_op(e.op) << ':';
    if (e.completed()) {
      out << spec.encode_resp(e.resp);
    } else {
      out << '?';
    }
    out << ';';
  }
  out << '|';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (i != j && entries[i].precedes(entries[j])) {
        out << label[i] << '<' << label[j] << ';';
      }
    }
  }
  return out.str();
}

struct CrashExploreOutcome {
  sim::ExploreStats stats;
  std::set<std::string> keys;
  std::uint64_t lin_failures = 0;
  std::uint64_t crash_walks = 0;
  std::uint64_t max_crashes_seen = 0;
};

CrashExploreOutcome explore_set_with_crashes(sim::ExploreMode mode,
                                             std::uint32_t max_crashes) {
  const spec::SetSpec spec(4);
  const std::vector<std::vector<spec::SetSpec::Op>> work = {
      {spec::SetSpec::insert(1)}, {spec::SetSpec::insert(2)}};
  sim::Explorer<spec::SetSpec, CrashSet2System> explorer(
      spec, [] { return std::make_unique<CrashSet2System>(); }, work);
  CrashExploreOutcome out;
  out.stats = explorer.explore(
      {.max_depth = 64,
       .max_executions = 2'000'000,
       .mode = mode,
       .max_crashes = max_crashes},
      nullptr, [&](CrashSet2System&, const auto& hist) {
        out.keys.insert(history_key(spec, hist));
        if (!verify::check_linearizable(spec, hist).ok()) ++out.lin_failures;
        std::uint64_t crashes = 0;
        for (const sim::Decision& d : explorer.current_prefix()) {
          if (d.crash) ++crashes;
        }
        if (crashes > 0) ++out.crash_walks;
        out.max_crashes_seen = std::max(out.max_crashes_seen, crashes);
      });
  return out;
}

TEST(CrashExplorer, EnumeratesCrashConfigurationsNaiveAndDporAgree) {
  const auto naive0 = explore_set_with_crashes(sim::ExploreMode::kNaive, 0);
  const auto naive1 = explore_set_with_crashes(sim::ExploreMode::kNaive, 1);
  const auto dpor1 = explore_set_with_crashes(sim::ExploreMode::kDpor, 1);
  ASSERT_TRUE(naive0.stats.exhausted);
  ASSERT_TRUE(naive1.stats.exhausted);
  ASSERT_TRUE(dpor1.stats.exhausted);

  // max_crashes = 0 (the default) stays exactly crash-free.
  EXPECT_EQ(naive0.crash_walks, 0u);
  EXPECT_EQ(naive0.max_crashes_seen, 0u);

  // k = 1 enumerates strictly more configurations, every walk respects the
  // budget, and crashed histories stay linearizable (pending op may or may
  // not take effect — the checker's existing semantics).
  EXPECT_GT(naive1.crash_walks, 0u);
  EXPECT_LE(naive1.max_crashes_seen, 1u);
  EXPECT_GT(naive1.stats.executions_complete, naive0.stats.executions_complete);
  EXPECT_EQ(naive0.lin_failures, 0u);
  EXPECT_EQ(naive1.lin_failures, 0u);
  EXPECT_EQ(dpor1.lin_failures, 0u);

  // Crash-free histories are a subset of the crash-enabled set (every
  // crash-free walk is still enumerated).
  EXPECT_TRUE(std::includes(naive1.keys.begin(), naive1.keys.end(),
                            naive0.keys.begin(), naive0.keys.end()));

  // DPOR with crash decisions: fewer (or equal) executions, the SAME
  // complete-history set — crashes are conservatively dependent on
  // everything, so pruning must never drop a crash configuration class.
  EXPECT_LE(dpor1.stats.executions_complete, naive1.stats.executions_complete);
  EXPECT_EQ(naive1.keys, dpor1.keys)
      << "DPOR pruned (or invented) a crash-configuration history class";
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
  sim::Explorer<spec::RegisterSpec, LeakySystem> explorer(
      spec, [] { return std::make_unique<LeakySystem>(); }, work);
  std::vector<sim::Decision> failing;
  (void)explorer.explore(
      {.max_depth = 32,
       .max_executions = 100'000,
       .mode = sim::ExploreMode::kNaive,
       .max_crashes = 1},
      nullptr, [&](LeakySystem& sys, const auto&) {
        if (failing.empty() && leak_escapes(sys.mem.snapshot())) {
          failing = explorer.current_prefix();
        }
      });
  ASSERT_FALSE(failing.empty())
      << "exploration never caught the seeded crash leak";

  // Tolerant executor over a fresh system: invalid schedules are rejected
  // (nullopt); valid ones are driven to quiescence on the survivors — the
  // same post-crash drain the audit itself performs — and yield the
  // quiescent image the leak predicate re-judges. Draining (rather than
  // demanding the candidate end quiescent by itself) is what lets ddmin
  // drop the survivor's decisions one at a time.
  const auto execute = [&](const std::vector<sim::Decision>& decisions)
      -> std::optional<sim::MemorySnapshot> {
    LeakySystem sys;
    verify::TraceSide<spec::RegisterSpec,
                      testing::LeakyCrashRegisterAlg<env::SimEnv>>
        side(sys.sched, sys.impl, work);
    for (const sim::Decision& d : decisions) {
      if (d.pid < 0 || d.pid >= sys.sched.num_processes()) return std::nullopt;
      if (d.crash) {
        if (!side.busy(d.pid) || !side.runnable(d.pid)) return std::nullopt;
        side.crash(d.pid);
      } else if (d.start) {
        if (!side.can_start(d.pid) || side.crashed(d.pid)) return std::nullopt;
        side.start(d.pid);
      } else {
        if (!side.busy(d.pid) || !side.runnable(d.pid)) return std::nullopt;
        side.step(d.pid);
      }
      (void)side.reap(d.pid);
    }
    const auto drained =
        drain_survivors(side, sys.sched, 10'000, [](int, std::uint32_t) {});
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
  const sim::ScheduleTrace trace = explorer.trace_of(shrunk);
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
