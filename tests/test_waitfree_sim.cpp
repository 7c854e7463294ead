// The wait-free simulation combinator (algo/wait_free_sim.h), bottom-up:
//
//   1. STEP-EXACT PROTOCOL — the help queue's enqueue/peek/dequeue
//      versioned-CAS protocol costs exactly the steps the file comment
//      advertises (4/2/2 uncontended), serves FIFO, survives a full ring
//      wrap via round versioning, and repairs a lagging head pointer.
//   2. FAST/SLOW HANDOFF — solo fast path leaves no residue; fast_limit=0
//      forces the announce→enqueue→help-until-done slow path at a pinned
//      step count; the contention-failure streak is observable exactly
//      between a failed attempt and the operation's completion.
//   3. WAIT-FREEDOM — under a value-adaptive adversary (a full write
//      targeting the reader's pending bin before every reader step) the
//      plain Algorithm 2 reader starves forever, while the combinator's
//      reader finishes within a derived step bound because the writer's
//      pre-write help completes the queued record (helper ≠ owner).
//   4. DPOR SOUNDNESS — naive and kDpor exploration of helped workloads
//      produce the same complete-execution history set with zero
//      linearizability failures, including executions where a helper
//      completes another process's operation.
//   5. THEOREM 17 — the combinator is wait-free, so it MUST lose
//      state-quiescent HI: two executions ending in the same abstract state
//      diverge at quiescence, and the divergence is localized entirely to
//      the combinator's words (operation records + help-queue ring/counters)
//      while the inner A array stays canonical. The plain wait-free
//      Algorithm 4 run through the same schedule shape stays canonical —
//      the helping residue is the price of the transform, not a shared
//      artifact of the schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algo/wait_free_sim.h"
#include "core/hi_register_lockfree.h"
#include "core/hi_register_waitfree.h"
#include "core/wait_free_sim.h"
#include "env/sim_env.h"
#include "register_common.h"
#include "sim/explorer.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/register_spec.h"
#include "verify/divergence.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using testing::kReaderPid;
using testing::kWriterPid;

// ------------------------------------------------------------- queue drivers

using SimQueue = algo::HelpQueue<env::SimEnv>;

// The queue's entry points are Subs (so they compose under any Op); these
// wrappers give the scheduler a standalone Op per protocol action.
sim::OpTask<std::uint64_t> enqueue_op(SimQueue& q, int pid) {
  const std::uint64_t at = co_await q.enqueue(pid);
  co_return at;
}

sim::OpTask<SimQueue::Peek> peek_op(SimQueue& q) {
  const SimQueue::Peek p = co_await q.peek();
  co_return p;
}

sim::OpTask<bool> dequeue_op(SimQueue& q, std::uint64_t index, int pid) {
  const bool won = co_await q.try_dequeue(index, pid);
  co_return won;
}

sim::OpTask<bool> advance_op(SimQueue& q, std::uint64_t index) {
  const bool moved = co_await q.advance_head(index);
  co_return moved;
}

// ------------------------------------------------- step-exact queue protocol

TEST(WaitFreeSimQueue, StepExactEnqueuePeekDequeueFifo) {
  sim::Memory mem;
  sim::Scheduler sched(2);
  SimQueue q(mem, /*num_processes=*/2);
  ASSERT_EQ(q.capacity(), 8u);  // 4 × processes

  // Enqueue, uncontended: read tail, read slot, claim CAS, tail-advance CAS.
  std::uint64_t s = sched.total_steps();
  EXPECT_EQ(sim::run_solo(sched, 0, enqueue_op(q, 0)), 0u);
  EXPECT_EQ(sched.total_steps() - s, 4u);

  // Peek: head read + slot read.
  s = sched.total_steps();
  {
    const SimQueue::Peek p = sim::run_solo(sched, 1, peek_op(q));
    EXPECT_EQ(sched.total_steps() - s, 2u);
    EXPECT_TRUE(p.has);
    EXPECT_FALSE(p.stale);
    EXPECT_EQ(p.index, 0u);
    EXPECT_EQ(p.pid, 0);
  }

  EXPECT_EQ(sim::run_solo(sched, 1, enqueue_op(q, 1)), 1u);

  // Dequeue: slot re-arm CAS + head-advance CAS.
  s = sched.total_steps();
  EXPECT_TRUE(sim::run_solo(sched, 0, dequeue_op(q, 0, 0)));
  EXPECT_EQ(sched.total_steps() - s, 2u);

  // FIFO: the second entry is now at the head.
  {
    const SimQueue::Peek p = sim::run_solo(sched, 0, peek_op(q));
    EXPECT_TRUE(p.has);
    EXPECT_EQ(p.index, 1u);
    EXPECT_EQ(p.pid, 1);
  }
  EXPECT_TRUE(sim::run_solo(sched, 1, dequeue_op(q, 1, 1)));

  // Empty again: peek still costs its 2 steps and reports no entry.
  s = sched.total_steps();
  {
    const SimQueue::Peek p = sim::run_solo(sched, 0, peek_op(q));
    EXPECT_EQ(sched.total_steps() - s, 2u);
    EXPECT_FALSE(p.has);
    EXPECT_FALSE(p.stale);
  }
  EXPECT_TRUE(q.quiescent_empty());
  EXPECT_EQ(q.peek_head(), 2u);
  EXPECT_EQ(q.peek_tail(), 2u);
  // Retired slots are re-armed for their NEXT round, not reset to round 0.
  EXPECT_EQ(q.peek_slot(0), algo::wfs::slot_empty(1));
  EXPECT_EQ(q.peek_slot(1), algo::wfs::slot_empty(1));
}

TEST(WaitFreeSimQueue, RoundVersioningSurvivesRingWrap) {
  sim::Memory mem;
  sim::Scheduler sched(2);
  SimQueue q(mem, /*num_processes=*/2);
  const std::uint64_t cap = q.capacity();  // 8

  // Drive the ring through two full wraps; indices stay monotone and each
  // slot's round version advances so a re-used slot can never serve a stale
  // index (the ABA defence the enqueue CAS leans on).
  for (std::uint64_t i = 0; i < 2 * cap + 1; ++i) {
    const int pid = static_cast<int>(i % 2);
    ASSERT_EQ(sim::run_solo(sched, pid, enqueue_op(q, pid)), i);
    const SimQueue::Peek p = sim::run_solo(sched, 1 - pid, peek_op(q));
    ASSERT_TRUE(p.has);
    ASSERT_EQ(p.index, i);
    ASSERT_EQ(p.pid, pid);
    ASSERT_TRUE(sim::run_solo(sched, pid, dequeue_op(q, i, pid)));
  }

  EXPECT_EQ(q.peek_head(), 2 * cap + 1);
  EXPECT_EQ(q.peek_tail(), 2 * cap + 1);
  // Slot 0 served indices 0, cap, 2·cap → re-armed for round 3; slots 1..7
  // served two indices each → round 2.
  EXPECT_EQ(q.peek_slot(0), algo::wfs::slot_empty(3));
  for (std::uint32_t i = 1; i < cap; ++i) {
    EXPECT_EQ(q.peek_slot(i), algo::wfs::slot_empty(2)) << "slot " << i;
  }
}

TEST(WaitFreeSimQueue, StaleHeadRepairedByPeekAdvance) {
  sim::Memory mem;
  sim::Scheduler sched(2);
  SimQueue q(mem, /*num_processes=*/2);
  (void)sim::run_solo(sched, 0, enqueue_op(q, 0));

  // Retirer stalls between its two CASes: the slot is re-armed but the head
  // pointer lags.
  sim::OpTask<bool> deq = dequeue_op(q, 0, 0);
  sched.start(0, deq);  // primed at the slot re-arm CAS
  sched.step(0);        // slot CAS lands; head CAS still pending

  const SimQueue::Peek p = sim::run_solo(sched, 1, peek_op(q));
  EXPECT_FALSE(p.has);
  EXPECT_TRUE(p.stale);
  EXPECT_EQ(p.head, 0u);
  EXPECT_TRUE(sim::run_solo(sched, 1, advance_op(q, 0)));
  EXPECT_EQ(q.peek_head(), 1u);

  // The stalled retirer resumes; its head CAS fails harmlessly and it still
  // reports the retirement it won.
  while (sched.runnable(0)) sched.step(0);
  ASSERT_TRUE(sched.op_finished(0));
  sched.finish(0);
  EXPECT_TRUE(deq.take_result());
  EXPECT_EQ(q.peek_head(), 1u);
}

// --------------------------------------------------------- fast/slow handoff

TEST(WaitFreeSim, SoloFastPathStepExactNoResidue) {
  testing::RegisterSystem<core::WaitFreeSimHiRegister> sys(3);  // fast_limit 1

  // Solo write, K=3, 1→2: help_head on the empty queue (head read + slot
  // read) + Alg 2's set A[2] / clear A[1] / clear A[3].
  std::uint64_t s = sys.sched.total_steps();
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  EXPECT_EQ(sys.sched.total_steps() - s, 5u);

  // Solo fast read: help_head (2) + one TryRead — scan A[1], A[2] (2) +
  // confirm_down over A[1] (1).
  s = sys.sched.total_steps();
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            2u);
  EXPECT_EQ(sys.sched.total_steps() - s, 5u);

  const auto& comb = sys.impl.combinator();
  EXPECT_EQ(comb.total_ops(), 2u);
  EXPECT_EQ(comb.slow_path_entries(), 0u);
  EXPECT_EQ(comb.helped_completions(), 0u);
  // No residue: record still idle, ring untouched.
  EXPECT_EQ(comb.peek_record(kReaderPid), algo::wfs::rec_word(algo::wfs::kIdle, 0, 0));
  EXPECT_TRUE(comb.queue().quiescent_empty());
  EXPECT_EQ(comb.queue().peek_head(), 0u);
  EXPECT_EQ(comb.queue().peek_tail(), 0u);
}

TEST(WaitFreeSim, SoloSlowPathStepExactSelfHelp) {
  sim::Memory mem;
  sim::Scheduler sched(2);
  const spec::RegisterSpec spec(3, 1);
  core::WaitFreeSimHiRegister impl(mem, spec, kWriterPid, kReaderPid,
                                   /*fast_limit=*/0);
  (void)sim::run_solo(sched, kWriterPid, impl.write(kWriterPid, 2));

  // fast_limit 0 forces every read onto the slow path even solo. Exact cost
  // for K=3 with A=[0,1,0]:
  //   help_head on the empty queue                         2
  //   announce pending record (plain write)                1
  //   enqueue (tail, slot, claim CAS, tail CAS)            4
  //   own-record read (still pending)                      1
  //   help_head on own entry: peek (2) + record read (1)
  //     + helped TryRead: scan A[1],A[2] (2) + confirm
  //       over A[1] (1) + install CAS (1) + dequeue (2)    9
  //   own-record read (done)                               1
  const std::uint64_t before = sched.total_steps();
  EXPECT_EQ(sim::run_solo(sched, kReaderPid, impl.read(kReaderPid)), 2u);
  EXPECT_EQ(sched.total_steps() - before, 18u);

  const auto& comb = impl.combinator();
  EXPECT_EQ(comb.slow_path_entries(), 1u);
  EXPECT_EQ(comb.helped_completions(), 0u);  // owner completed its own record
  EXPECT_TRUE(comb.queue().quiescent_empty());
  // The record never returns to idle — the residue the Thm 17 probe pins.
  EXPECT_EQ(comb.peek_record(kReaderPid),
            algo::wfs::rec_word(algo::wfs::kDone, 1, 2));
}

TEST(WaitFreeSim, FailStreakObservableBetweenFailureAndCompletion) {
  testing::RegisterSystem<core::WaitFreeSimHiRegister> sys(3);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));

  // Reader scans past A[1], A[2] while the state is 3 (both 0)...
  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  for (int i = 0; i < 4; ++i) sys.sched.step(kReaderPid);
  ASSERT_EQ(sys.sched.pending_object(kReaderPid), 2);  // A[3] is next

  // ...the write 3→2 lands in full, so the pending A[3] read returns 0: the
  // scan chased the moving 1 and the fast attempt fails.
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  sys.sched.step(kReaderPid);

  const auto& comb = sys.impl.combinator();
  EXPECT_EQ(comb.fail_streak(kReaderPid), 1u);  // == fast_limit: fast path off
  EXPECT_EQ(comb.slow_path_entries(), 1u);

  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  ASSERT_TRUE(sys.sched.op_finished(kReaderPid));
  sys.sched.finish(kReaderPid);
  EXPECT_EQ(read.take_result(), 2u);
  EXPECT_EQ(comb.fail_streak(kReaderPid), 0u);  // reset by completion
}

// ------------------------------------------------------ wait-freedom bound

// The value-adaptive adversary of the starvation argument: before every
// reader step, run one complete write choosing a value whose bin is NOT the
// bin the reader is about to read (pending_object is exactly the Lemma 16
// adversary power). Every bin the reader examines is therefore 0.
std::uint32_t adversary_value(int pending_object, std::uint32_t num_values) {
  if (pending_object < 0 ||
      pending_object >= static_cast<int>(num_values)) {
    return 2;  // reader is on a combinator word; any value works
  }
  const std::uint32_t avoid = static_cast<std::uint32_t>(pending_object) + 1;
  return avoid == 2 ? 3 : 2;
}

TEST(WaitFreeSim, PlainLockFreeReaderStarvesUnderValueAdaptiveAdversary) {
  testing::RegisterSystem<core::LockFreeHiRegister> sys(3);
  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);

  for (int i = 0; i < 300; ++i) {
    const int obj = sys.sched.pending_object(kReaderPid);
    ASSERT_GE(obj, 0);
    ASSERT_LT(obj, 3);  // the plain reader only ever touches the A bins
    (void)sim::run_solo(sys.sched, kWriterPid,
                        sys.impl.write(kWriterPid, adversary_value(obj, 3)));
    sys.sched.step(kReaderPid);
  }
  // 300 reader steps, zero progress: lock-free but not wait-free.
  EXPECT_FALSE(sys.sched.op_finished(kReaderPid));
  sys.sched.abandon(kReaderPid);
}

TEST(WaitFreeSim, CombinatorReadCompletesUnderSameAdversary) {
  sim::Memory mem;
  sim::Scheduler sched(2);
  const spec::RegisterSpec spec(3, 1);
  core::WaitFreeSimHiRegister impl(mem, spec, kWriterPid, kReaderPid,
                                   /*fast_limit=*/1);

  sim::OpTask<std::uint32_t> read = impl.read(kReaderPid);
  sched.start(kReaderPid, read);
  int rounds = 0;
  while (!sched.op_finished(kReaderPid)) {
    ASSERT_LT(++rounds, 300) << "combinator read did not finish — not wait-free";
    const std::uint32_t v = adversary_value(sched.pending_object(kReaderPid), 3);
    (void)sim::run_solo(sched, kWriterPid, impl.write(kWriterPid, v));
    if (sched.runnable(kReaderPid)) sched.step(kReaderPid);
  }
  sched.finish(kReaderPid);

  // Derived bound: help on empty queue (2) + failed fast scan (≤3) +
  // announce (1) + enqueue (4) + own-record read (1); the first write
  // starting after the enqueue helps the record to done on a stable A, so
  // at most one self-help round (≤9) + the final record read (1) remain.
  EXPECT_LE(sched.steps_of(kReaderPid), 32u);
  const std::uint32_t got = read.take_result();
  EXPECT_TRUE(got == 2u || got == 3u) << got;  // a written value: linearizes
  const auto& comb = impl.combinator();
  EXPECT_EQ(comb.slow_path_entries(), 1u);
  // The record was completed by the WRITER's pre-write help, not the owner.
  EXPECT_GE(comb.helped_completions(), 1u);
}

// --------------------------------------------------------------- DPOR rows

// Canonical history key (same construction as tests/test_explorer_dpor.cpp):
// per-operation (pid, op, resp) labelled in (pid, invocation-order) order
// plus the real-time precedence relation — invariant under exactly the
// reorderings DPOR prunes.
template <typename S, typename Hist>
std::string history_key(const S& spec, const Hist& hist) {
  const auto& entries = hist.entries();
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries[a].pid != entries[b].pid) return entries[a].pid < entries[b].pid;
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

/// 2 processes with every read forced onto the slow path: the smallest
/// workload in which the write's pre-help completes the reader's record.
struct WfsSlowPairSystem {
  spec::RegisterSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  core::WaitFreeSimHiRegister impl;

  WfsSlowPairSystem()
      : spec(2, 1),
        sched(2),
        impl(mem, spec, kWriterPid, kReaderPid, /*fast_limit=*/0) {}
  sim::Scheduler& scheduler() { return sched; }
  sim::Memory& memory() { return mem; }
  sim::OpTask<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    return impl.apply(pid, op);
  }
  std::uint64_t helped_completions() const {
    return impl.helped_completions();
  }
};

/// 3 processes (single writer pid 0, two reader pids) with the fast path on:
/// the combinator under cross-process queue/record contention.
struct WfsTripleSystem {
  spec::RegisterSpec spec;
  sim::Memory mem;
  sim::Scheduler sched;
  algo::WaitFreeSimHiAlgPadded<env::SimEnv> alg;

  WfsTripleSystem()
      : spec(2, 1),
        sched(3),
        alg(mem, spec, kWriterPid, kReaderPid, /*fast_limit=*/1,
            /*num_processes=*/3) {}
  sim::Scheduler& scheduler() { return sched; }
  sim::Memory& memory() { return mem; }
  sim::OpTask<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    return alg.apply(pid, op);
  }
  std::uint64_t helped_completions() const { return alg.helped_completions(); }
};

struct ExploreOutcome {
  sim::ExploreStats stats;
  std::set<std::string> history_keys;
  std::uint64_t lin_failures = 0;
  std::uint64_t helped_executions = 0;
};

template <typename System>
ExploreOutcome explore_mode(
    const spec::RegisterSpec& spec,
    std::vector<std::vector<spec::RegisterSpec::Op>> work,
    sim::ExploreMode mode) {
  sim::Explorer<spec::RegisterSpec, System> explorer(
      spec, [] { return std::make_unique<System>(); }, std::move(work));
  ExploreOutcome outcome;
  outcome.stats = explorer.explore(
      {.max_depth = 128, .max_executions = 2'000'000, .mode = mode}, nullptr,
      [&](System& sys, const auto& hist) {
        outcome.history_keys.insert(history_key(spec, hist));
        if (!verify::check_linearizable(spec, hist).ok()) {
          ++outcome.lin_failures;
        }
        if (sys.helped_completions() > 0) ++outcome.helped_executions;
      });
  return outcome;
}

TEST(WaitFreeSimDpor, SlowPair_SameHistorySetAndHelperCompletedExecutions) {
  const spec::RegisterSpec spec(2, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> work = {
      {spec::RegisterSpec::write(2)}, {spec::RegisterSpec::read()}};

  const auto naive =
      explore_mode<WfsSlowPairSystem>(spec, work, sim::ExploreMode::kNaive);
  const auto dpor =
      explore_mode<WfsSlowPairSystem>(spec, work, sim::ExploreMode::kDpor);

  ASSERT_TRUE(naive.stats.exhausted);
  ASSERT_TRUE(dpor.stats.exhausted);
  EXPECT_EQ(naive.stats.executions_truncated, 0u);
  EXPECT_EQ(naive.lin_failures, 0u);
  EXPECT_EQ(dpor.lin_failures, 0u);

  EXPECT_GT(naive.stats.executions_complete, 0u);
  EXPECT_LT(dpor.stats.executions_complete, naive.stats.executions_complete)
      << "DPOR explored as many executions as naive DFS — no reduction";
  EXPECT_FALSE(naive.history_keys.empty());
  EXPECT_EQ(naive.history_keys, dpor.history_keys)
      << "DPOR pruned a non-equivalent interleaving (or invented one)";

  // Schedules in which the write's pre-help completes the enqueued read
  // exist in BOTH modes' explored sets (and all of them linearized above).
  EXPECT_GT(naive.helped_executions, 0u);
  EXPECT_GT(dpor.helped_executions, 0u);
}

TEST(WaitFreeSimDpor, TripleFast_SameHistorySetAcrossModes) {
  const spec::RegisterSpec spec(2, 1);
  const std::vector<std::vector<spec::RegisterSpec::Op>> work = {
      {spec::RegisterSpec::write(2)},
      {spec::RegisterSpec::read()},
      {spec::RegisterSpec::read()}};

  const auto naive =
      explore_mode<WfsTripleSystem>(spec, work, sim::ExploreMode::kNaive);
  const auto dpor =
      explore_mode<WfsTripleSystem>(spec, work, sim::ExploreMode::kDpor);

  ASSERT_TRUE(naive.stats.exhausted);
  ASSERT_TRUE(dpor.stats.exhausted);
  EXPECT_EQ(naive.lin_failures, 0u);
  EXPECT_EQ(dpor.lin_failures, 0u);
  EXPECT_LT(dpor.stats.executions_complete, naive.stats.executions_complete);
  EXPECT_EQ(naive.history_keys, dpor.history_keys);
}

// ------------------------------------------------------------- Theorem 17

// K=3 padded snapshot layout (registration order): words [0,3) are the
// inner A bins; then wfs.rec[0..1] at 3..4, the 8 ring slots at 5..12, and
// head/tail at 13/14.
constexpr std::size_t kInnerWords = 3;
constexpr std::size_t kReaderRecWord = 4;
constexpr std::size_t kFirstSlotWord = 5;
constexpr std::size_t kHeadWord = 13;
constexpr std::size_t kTailWord = 14;

TEST(WaitFreeSim, Thm17_HelpedReadLeavesLocalizedCombinatorResidue) {
  // Canonical execution A: solo write(3), write(2), read — everything fast
  // path, quiescent state 2.
  testing::RegisterSystem<core::WaitFreeSimHiRegister> canon(3);
  (void)sim::run_solo(canon.sched, kWriterPid, canon.impl.write(kWriterPid, 3));
  (void)sim::run_solo(canon.sched, kWriterPid, canon.impl.write(kWriterPid, 2));
  ASSERT_EQ(sim::run_solo(canon.sched, kReaderPid, canon.impl.read(kReaderPid)),
            2u);
  const sim::MemorySnapshot sa = canon.memory.snapshot();

  // Execution B: same abstract state 2 at quiescence, but the read was
  // forced slow — it scanned past A[1], A[2] while the state was 3, the
  // write 3→2 landed, and the failed attempt sent it through
  // announce/enqueue/self-help.
  testing::RegisterSystem<core::WaitFreeSimHiRegister> sys(3);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  for (int i = 0; i < 4; ++i) sys.sched.step(kReaderPid);
  ASSERT_EQ(sys.sched.pending_object(kReaderPid), 2);  // about to read A[3]
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  ASSERT_TRUE(sys.sched.op_finished(kReaderPid));
  sys.sched.finish(kReaderPid);
  EXPECT_EQ(read.take_result(), 2u);  // still linearizes
  ASSERT_EQ(sys.impl.slow_path_entries(), 1u);
  const sim::MemorySnapshot sb = sys.memory.snapshot();

  // State-quiescent HI is VIOLATED: same abstract state, different memory.
  // This is the Theorem 17 boundary — the combinator made reads wait-free,
  // so it cannot keep the state-quiescent HI that Alg 2/3 had.
  verify::HiChecker checker;
  ASSERT_TRUE(checker.set_canonical(2, sa, "solo-sequential"));
  EXPECT_FALSE(checker.observe(2, sb, "helped-read-quiescence"));
  ASSERT_FALSE(checker.consistent());
  EXPECT_EQ(checker.violation()->state, 2u);

  // ...and the divergence is localized entirely to the combinator's words:
  // the inner A array (the snapshot prefix) is canonical in both runs.
  const std::vector<std::size_t> diff = verify::divergent_words(sa, sb);
  ASSERT_FALSE(diff.empty());
  EXPECT_TRUE(verify::divergence_localized_after(sa, sb, kInnerWords));

  // The residue, word-exact: the reader's record is done(seq 1, payload 2),
  // ring slot 0 was consumed and re-armed for round 1, head == tail == 1.
  EXPECT_EQ(sb.words[kReaderRecWord], algo::wfs::rec_word(algo::wfs::kDone, 1, 2));
  EXPECT_EQ(sb.words[kFirstSlotWord], algo::wfs::slot_empty(1));
  EXPECT_EQ(sb.words[kHeadWord], 1u);
  EXPECT_EQ(sb.words[kTailWord], 1u);
  EXPECT_EQ(sa.words[kReaderRecWord], algo::wfs::rec_word(algo::wfs::kIdle, 0, 0));
  EXPECT_EQ(sa.words[kHeadWord], 0u);
}

TEST(WaitFreeSim, Thm17Control_PlainAlg4StaysCanonicalOnSameScheduleShape) {
  // The same schedule shape against the paper's own wait-free register
  // (Algorithm 4): interrupt a read mid-scan with a full write, finish it,
  // and the quiescent memory is STILL canonical — Alg 4 erases its
  // footprint. The residue in the previous test is the combinator's price,
  // not an artifact of the schedule.
  testing::RegisterSystem<core::WaitFreeHiRegister> canon(3);
  (void)sim::run_solo(canon.sched, kWriterPid, canon.impl.write(kWriterPid, 3));
  (void)sim::run_solo(canon.sched, kWriterPid, canon.impl.write(kWriterPid, 2));
  (void)sim::run_solo(canon.sched, kReaderPid, canon.impl.read(kReaderPid));
  const sim::MemorySnapshot sa = canon.memory.snapshot();

  testing::RegisterSystem<core::WaitFreeHiRegister> sys(3);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read);
  for (int i = 0; i < 4 && sys.sched.runnable(kReaderPid); ++i) {
    sys.sched.step(kReaderPid);
  }
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  while (sys.sched.runnable(kReaderPid)) sys.sched.step(kReaderPid);
  ASSERT_TRUE(sys.sched.op_finished(kReaderPid));
  sys.sched.finish(kReaderPid);
  (void)read.take_result();
  const sim::MemorySnapshot sb = sys.memory.snapshot();

  verify::HiChecker checker;
  ASSERT_TRUE(checker.set_canonical(2, sa, "solo-sequential"));
  EXPECT_TRUE(checker.observe(2, sb, "interrupted-read-quiescence"));
  EXPECT_TRUE(checker.consistent());
}

}  // namespace
}  // namespace hi
