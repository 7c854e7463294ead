// Tests for the simulator substrate: coroutine step semantics (one primitive
// per step), base-object atomicity, memory snapshots, scheduler bookkeeping
// and pending-primitive introspection (the hook the Lemma 16 adversary uses).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/base_object.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/native_rllsc.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace hi::sim {
namespace {

using BinaryRegister = Cell<Plain<std::uint8_t>>;
using CasCell = Cell<Plain<std::uint64_t>>;
using V = algo::RllscValue;

// A toy process: writes `value` to two registers with a read in between.
OpTask<std::uint32_t> write_two(BinaryRegister& x, BinaryRegister& y,
                                std::uint8_t value) {
  co_await x.write(value);
  const std::uint8_t seen = co_await x.read();
  co_await y.write(seen);
  co_return seen;
}

TEST(SimCore, OnePrimitivePerStep) {
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x");
  auto& y = mem.make<BinaryRegister>("y");
  Scheduler sched(1);

  OpTask<std::uint32_t> task = write_two(x, y, 1);
  sched.start(0, task);
  // Priming runs no primitive: memory untouched, a primitive is pending.
  EXPECT_EQ(x.peek(), 0);
  EXPECT_TRUE(sched.runnable(0));
  EXPECT_EQ(sched.pending_object(0), x.id());
  EXPECT_STREQ(sched.pending_kind(0), "write");

  sched.step(0);  // executes the write to x
  EXPECT_EQ(x.peek(), 1);
  EXPECT_EQ(y.peek(), 0);
  EXPECT_EQ(sched.pending_object(0), x.id());
  EXPECT_STREQ(sched.pending_kind(0), "read");

  sched.step(0);  // the read
  EXPECT_EQ(sched.pending_object(0), y.id());

  sched.step(0);  // write to y, then run to completion
  EXPECT_TRUE(sched.op_finished(0));
  EXPECT_EQ(y.peek(), 1);
  sched.finish(0);
  EXPECT_EQ(task.take_result(), 1u);
  EXPECT_EQ(sched.steps_of(0), 3u);
}

TEST(SimCore, InterleavingIsStepGranular) {
  // Two writers race on x; the loser's value is overwritten atomically.
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x");
  auto& y = mem.make<BinaryRegister>("y");
  auto& z = mem.make<BinaryRegister>("z");
  Scheduler sched(2);

  OpTask<std::uint32_t> t0 = write_two(x, y, 1);
  OpTask<std::uint32_t> t1 = write_two(x, z, 0);
  sched.start(0, t0);
  sched.start(1, t1);

  sched.step(0);  // p0: x <- 1
  sched.step(1);  // p1: x <- 0
  sched.step(0);  // p0 reads x == 0 (p1's write took effect atomically)
  sched.step(1);  // p1 reads x == 0
  sched.step(0);
  sched.step(1);
  ASSERT_TRUE(sched.op_finished(0));
  ASSERT_TRUE(sched.op_finished(1));
  sched.finish(0);
  sched.finish(1);
  EXPECT_EQ(t0.take_result(), 0u);  // p0 observed p1's overwrite
  EXPECT_EQ(y.peek(), 0);
  EXPECT_EQ(z.peek(), 0);
}

TEST(SimCore, MemorySnapshotLayoutAndEquality) {
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x", true);
  auto& c = mem.make<CasCell>("c", 7);
  auto& r = mem.make<RllscCell>("r", V{3, 0});
  (void)x;
  (void)c;
  (void)r;

  const MemorySnapshot snap = mem.snapshot();
  ASSERT_EQ(snap.words.size(), 5u);  // 1 + 1 + (lo, hi, ctx)
  EXPECT_EQ(snap.words[0], 1u);
  EXPECT_EQ(snap.words[1], 7u);
  EXPECT_EQ(snap.words[2], 3u);
  EXPECT_EQ(snap.words[3], 0u);
  EXPECT_EQ(snap.words[4], 0u);

  const MemorySnapshot again = mem.snapshot();
  EXPECT_EQ(snap, again);
  EXPECT_EQ(snap.hash(), again.hash());
  EXPECT_EQ(snap.distance(again), 0u);
}

TEST(SimCore, SnapshotDistance) {
  MemorySnapshot a{{1, 2, 3}};
  MemorySnapshot b{{1, 9, 4}};
  EXPECT_EQ(a.distance(b), 2u);
}

OpTask<std::uint32_t> cas_loop(CasCell& cell, std::uint64_t from,
                               std::uint64_t to) {
  for (;;) {
    const bool swapped = (co_await cell.cas_observe(from, to)).installed;
    if (swapped) break;
    from = co_await cell.read();
  }
  co_return static_cast<std::uint32_t>(to);
}

TEST(SimCore, CasAtomicity) {
  Memory mem;
  auto& cell = mem.make<CasCell>("c", 0);
  Scheduler sched(2);

  OpTask<std::uint32_t> t0 = cas_loop(cell, 0, 1);
  OpTask<std::uint32_t> t1 = cas_loop(cell, 0, 2);
  sched.start(0, t0);
  sched.start(1, t1);
  sched.step(0);  // p0's CAS(0->1) succeeds
  EXPECT_EQ(cell.peek(), 1u);
  sched.step(1);  // p1's CAS(0->2) fails
  EXPECT_EQ(cell.peek(), 1u);
  ASSERT_TRUE(sched.op_finished(0));
  sched.step(1);  // p1 re-reads 1
  sched.step(1);  // p1's CAS(1->2) succeeds
  EXPECT_EQ(cell.peek(), 2u);
  EXPECT_TRUE(sched.op_finished(1));
}

TEST(SimCore, RllscSemantics) {
  Memory mem;
  auto& cell = mem.make<RllscCell>("r", V{10, 0});
  Scheduler sched(2);

  // p0: LL, then SC(11). p1: LL, then SC(12) — whoever SCs second fails,
  // because a successful SC clears the whole context.
  auto prog = [&cell](std::uint64_t desired) -> OpTask<std::uint32_t> {
    co_await cell.ll();
    const bool ok = co_await cell.sc(V{desired, 0});
    co_return ok ? 1u : 0u;
  };
  OpTask<std::uint32_t> t0 = prog(11);
  OpTask<std::uint32_t> t1 = prog(12);
  sched.start(0, t0);
  sched.start(1, t1);
  sched.step(0);  // p0 LL
  sched.step(1);  // p1 LL
  EXPECT_EQ(cell.peek().ctx, 0b11u);
  sched.step(0);  // p0 SC succeeds, clears context
  EXPECT_EQ(cell.peek().value.lo, 11u);
  EXPECT_EQ(cell.peek().ctx, 0u);
  sched.step(1);  // p1 SC fails
  EXPECT_EQ(cell.peek().value.lo, 11u);
  sched.finish(0);
  sched.finish(1);
  EXPECT_EQ(t0.take_result(), 1u);
  EXPECT_EQ(t1.take_result(), 0u);
}

TEST(SimCore, RllscReleaseAndValidate) {
  Memory mem;
  auto& cell = mem.make<RllscCell>("r", V{5, 0});
  Scheduler sched(1);

  auto prog = [&cell]() -> OpTask<std::uint32_t> {
    co_await cell.ll();
    const bool valid_before = co_await cell.vl();
    co_await cell.rl();
    const bool valid_after = co_await cell.vl();
    const bool sc_ok = co_await cell.sc(V{6, 0});
    co_return (valid_before ? 4u : 0u) | (valid_after ? 2u : 0u) |
        (sc_ok ? 1u : 0u);
  };
  OpTask<std::uint32_t> t = prog();
  const std::uint32_t result = run_solo(sched, 0, std::move(t));
  // VL true after LL; false after RL; SC fails after RL.
  EXPECT_EQ(result, 4u);
  EXPECT_EQ(cell.peek().value.lo, 5u);
  EXPECT_EQ(cell.peek().ctx, 0u);
}

TEST(SimCore, RllscLoadStoreDoNotNeedContext) {
  Memory mem;
  auto& cell = mem.make<RllscCell>("r", V{5, 0});
  Scheduler sched(2);

  auto prog = [&cell]() -> OpTask<std::uint32_t> {
    const std::uint64_t seen = (co_await cell.load()).lo;
    co_await cell.store(V{seen + 1, 0});
    co_return static_cast<std::uint32_t>(seen);
  };
  OpTask<std::uint32_t> t = prog();
  EXPECT_EQ(run_solo(sched, 1, std::move(t)), 5u);
  EXPECT_EQ(cell.peek().value.lo, 6u);
}

TEST(SimCore, StoreClearsContext) {
  Memory mem;
  auto& cell = mem.make<RllscCell>("r", V{0, 0});
  Scheduler sched(2);

  auto ll_only = [&cell]() -> OpTask<std::uint32_t> {
    co_return static_cast<std::uint32_t>((co_await cell.ll()).lo);
  };
  OpTask<std::uint32_t> t0 = ll_only();
  run_solo(sched, 0, std::move(t0));
  EXPECT_EQ(cell.peek().ctx, 0b01u);

  auto store = [&cell]() -> OpTask<std::uint32_t> {
    co_await cell.store(V{9, 0});
    co_return 0;
  };
  OpTask<std::uint32_t> t1 = store();
  run_solo(sched, 1, std::move(t1));
  EXPECT_EQ(cell.peek().ctx, 0u);
  EXPECT_EQ(cell.peek().value.lo, 9u);
}

// A SubTask helper used by nested coroutine test.
SubTask<std::uint32_t> scan_sum(std::vector<BinaryRegister*>& regs) {
  std::uint32_t sum = 0;
  for (auto* reg : regs) sum += co_await reg->read();
  co_return sum;
}

OpTask<std::uint32_t> nested(std::vector<BinaryRegister*>& regs,
                             BinaryRegister& out) {
  const std::uint32_t first = co_await scan_sum(regs);
  const std::uint32_t second = co_await scan_sum(regs);
  co_await out.write(first == second ? 1 : 0);
  co_return first + second;
}

TEST(SimCore, NestedSubTasksChargeStepsToCaller) {
  Memory mem;
  std::vector<BinaryRegister*> regs;
  for (int i = 0; i < 3; ++i) {
    regs.push_back(&mem.make<BinaryRegister>("r" + std::to_string(i), true));
  }
  auto& out = mem.make<BinaryRegister>("out");
  Scheduler sched(1);

  OpTask<std::uint32_t> t = nested(regs, out);
  sched.start(0, t);
  std::uint64_t steps = 0;
  while (sched.runnable(0)) {
    sched.step(0);
    ++steps;
  }
  EXPECT_EQ(steps, 7u);  // 3 reads + 3 reads + 1 write
  EXPECT_EQ(sched.steps_of(0), 7u);
  sched.finish(0);
  EXPECT_EQ(t.take_result(), 6u);
  EXPECT_EQ(out.peek(), 1);
}

TEST(SimCore, AbandonMidOperation) {
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x");
  auto& y = mem.make<BinaryRegister>("y");
  Scheduler sched(1);
  {
    OpTask<std::uint32_t> t = write_two(x, y, 1);
    sched.start(0, t);
    sched.step(0);  // only the first write lands
    sched.abandon(0);
  }  // OpTask destructor frees the suspended frames
  EXPECT_EQ(x.peek(), 1);
  EXPECT_EQ(y.peek(), 0);
  EXPECT_FALSE(sched.runnable(0));
}

}  // namespace
}  // namespace hi::sim
