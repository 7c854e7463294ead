// Algorithm 6 (lock-free perfect-HI R-LLSC from atomic CAS) — experiment E10
// validates Theorem 28: linearizability of concurrent LL/VL/SC/RL/Load/Store
// histories against the R-LLSC sequential spec, perfect history independence
// (memory is exactly the encoded abstract state after every step; no residue
// exists anywhere), and the progress properties of Lemmas 29/30.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/rllsc.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/rllsc_spec.h"
#include "util/rng.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using core::CasRllsc;
using core::NativeRllsc;
using core::RllscValue;
using spec::RllscSpec;

std::vector<std::vector<RllscSpec::Op>> rllsc_workload(int num_procs,
                                                       std::size_t ops_each,
                                                       std::uint16_t domain,
                                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<RllscSpec::Op>> work(num_procs);
  for (int pid = 0; pid < num_procs; ++pid) {
    for (std::size_t i = 0; i < ops_each; ++i) {
      const auto arg = static_cast<std::uint16_t>(rng.next_below(domain));
      switch (rng.next_below(6)) {
        case 0: work[pid].push_back(RllscSpec::ll(pid)); break;
        case 1: work[pid].push_back(RllscSpec::vl(pid)); break;
        case 2: work[pid].push_back(RllscSpec::sc(pid, arg)); break;
        case 3: work[pid].push_back(RllscSpec::rl(pid)); break;
        case 4: work[pid].push_back(RllscSpec::load(pid)); break;
        default: work[pid].push_back(RllscSpec::store(pid, arg)); break;
      }
    }
  }
  return work;
}

template <typename Cell>
class RllscTyped : public ::testing::Test {};
using CellTypes = ::testing::Types<CasRllsc, NativeRllsc>;
TYPED_TEST_SUITE(RllscTyped, CellTypes);

TYPED_TEST(RllscTyped, SoloSemantics) {
  sim::Memory memory;
  sim::Scheduler sched(2);
  TypeParam object(memory, "X", RllscValue{5, 0});

  auto resp = sim::run_solo(sched, 0, object.apply(0, RllscSpec::ll(0)));
  EXPECT_EQ(resp.value, 5u);
  resp = sim::run_solo(sched, 0, object.apply(0, RllscSpec::vl(0)));
  EXPECT_TRUE(resp.flag);
  resp = sim::run_solo(sched, 1, object.apply(1, RllscSpec::vl(1)));
  EXPECT_FALSE(resp.flag);
  resp = sim::run_solo(sched, 0, object.apply(0, RllscSpec::sc(0, 9)));
  EXPECT_TRUE(resp.flag);
  resp = sim::run_solo(sched, 0, object.apply(0, RllscSpec::sc(0, 7)));
  EXPECT_FALSE(resp.flag) << "second SC without LL must fail";
  resp = sim::run_solo(sched, 1, object.apply(1, RllscSpec::load(1)));
  EXPECT_EQ(resp.value, 9u);
}

TYPED_TEST(RllscTyped, RlMakesScFail) {
  sim::Memory memory;
  sim::Scheduler sched(1);
  TypeParam object(memory, "X", RllscValue{0, 0});
  (void)sim::run_solo(sched, 0, object.apply(0, RllscSpec::ll(0)));
  (void)sim::run_solo(sched, 0, object.apply(0, RllscSpec::rl(0)));
  const auto resp = sim::run_solo(sched, 0, object.apply(0, RllscSpec::sc(0, 3)));
  EXPECT_FALSE(resp.flag);
}

TYPED_TEST(RllscTyped, StoreInvalidatesAllLinks) {
  sim::Memory memory;
  sim::Scheduler sched(3);
  TypeParam object(memory, "X", RllscValue{0, 0});
  (void)sim::run_solo(sched, 0, object.apply(0, RllscSpec::ll(0)));
  (void)sim::run_solo(sched, 1, object.apply(1, RllscSpec::ll(1)));
  (void)sim::run_solo(sched, 2, object.apply(2, RllscSpec::store(2, 4)));
  EXPECT_FALSE(
      sim::run_solo(sched, 0, object.apply(0, RllscSpec::sc(0, 5))).flag);
  EXPECT_FALSE(
      sim::run_solo(sched, 1, object.apply(1, RllscSpec::sc(1, 6))).flag);
  EXPECT_EQ(sim::run_solo(sched, 0, object.apply(0, RllscSpec::load(0))).value,
            4u);
}

class RllscRandom
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RllscRandom, CasBackedLinearizable) {
  const auto [n, seed] = GetParam();
  const RllscSpec spec(16, n);
  sim::Memory memory;
  sim::Scheduler sched(n);
  CasRllsc object(memory, "X", RllscValue{0, 0});

  sim::Runner<RllscSpec, CasRllsc> runner(
      spec, memory, sched, object, [&](const auto&) {
        const RllscValue v = object.peek_value();
        return spec.encode_state(
            RllscSpec::State{v.lo, static_cast<std::uint16_t>(
                                       object.peek_context())});
      });
  auto result = runner.run(rllsc_workload(n, 15, 16, seed), {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.history.num_pending(), 0u);

  const auto lin = verify::check_linearizable(spec, result.history);
  EXPECT_TRUE(lin.ok()) << "n=" << n << " seed=" << seed;
}

TEST_P(RllscRandom, CasBackedPerfectHI_MemoryIsExactlyTheState) {
  // Perfect HI (Theorem 28): after *every* step of *any* execution the
  // memory representation is precisely the encoding of the R-LLSC abstract
  // state — one CAS word holding (val, context), nothing else. We step a
  // random schedule manually and check the identity at every configuration.
  const auto [n, seed] = GetParam();
  const RllscSpec spec(16, n);
  sim::Memory memory;
  sim::Scheduler sched(n);
  CasRllsc object(memory, "X", RllscValue{0, 0});

  auto work = rllsc_workload(n, 12, 16, seed);
  std::vector<std::optional<sim::OpTask<RllscSpec::Resp>>> tasks(n);
  std::vector<std::size_t> next(n, 0);
  util::Xoshiro256 rng(seed ^ 0xabcdefULL);

  for (;;) {
    std::vector<int> enabled;
    for (int pid = 0; pid < n; ++pid) {
      if (tasks[pid].has_value()) {
        if (sched.runnable(pid)) enabled.push_back(pid);
      } else if (next[pid] < work[pid].size()) {
        enabled.push_back(pid);
      }
    }
    if (enabled.empty()) break;
    const int pid = enabled[rng.next_below(enabled.size())];
    if (!tasks[pid].has_value()) {
      tasks[pid].emplace(object.apply(pid, work[pid][next[pid]++]));
      sched.start(pid, *tasks[pid]);
    } else {
      sched.step(pid);
    }
    if (tasks[pid].has_value() && sched.op_finished(pid)) {
      sched.finish(pid);
      tasks[pid].reset();
    }

    // The invariant of Lemma 40: mem(C) == encode(state(C)).
    const auto snap = memory.snapshot();
    ASSERT_EQ(snap.words.size(), 3u);  // one CAS word, nothing else
    const RllscValue v = object.peek_value();
    EXPECT_EQ(snap.words[0], v.lo);
    EXPECT_EQ(snap.words[1], v.hi);
    EXPECT_EQ(snap.words[2], object.peek_context());
  }
}

TEST_P(RllscRandom, SameStateSameMemoryAcrossExecutions) {
  // Definition 4 across executions: collect (state, memory) at
  // state-quiescent points of many runs; any two with equal abstract state
  // must have identical memory.
  const auto [n, seed] = GetParam();
  const RllscSpec spec(8, n);
  verify::HiChecker checker;
  for (std::uint64_t sub = 0; sub < 10; ++sub) {
    sim::Memory memory;
    sim::Scheduler sched(n);
    CasRllsc object(memory, "X", RllscValue{0, 0});
    sim::Runner<RllscSpec, CasRllsc> runner(
        spec, memory, sched, object, [&](const auto&) {
          const RllscValue v = object.peek_value();
          return spec.encode_state(
              RllscSpec::State{v.lo, static_cast<std::uint16_t>(
                                         object.peek_context())});
        });
    auto result = runner.run(rllsc_workload(n, 10, 8, seed * 100 + sub),
                             {.seed = seed * 100 + sub});
    ASSERT_FALSE(result.timed_out);
    for (const auto& obs : result.state_quiescent) {
      checker.observe(obs.state, obs.mem, "sub=" + std::to_string(sub));
    }
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_GT(checker.num_observations(), 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RllscRandom,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)));

TEST(RllscProgress, StoreUnblocksPendingScAndRl) {
  // Lemma 30: a pending SC or RL returns within finitely many of its own
  // steps once a context-resetting operation completes. We park p0 inside an
  // SC whose CAS keeps failing (p1 keeps LL-ing), then let p1 Store and
  // observe p0's SC finish (with failure) in a bounded number of steps.
  sim::Memory memory;
  sim::Scheduler sched(2);
  CasRllsc object(memory, "X", RllscValue{0, 0});

  (void)sim::run_solo(sched, 0, object.apply(0, RllscSpec::ll(0)));

  sim::OpTask<RllscSpec::Resp> sc_task = object.apply(0, RllscSpec::sc(0, 3));
  sched.start(0, sc_task);
  sched.step(0);  // p0: Read(X) — observes itself linked

  // p1 interferes: toggling its own context bit between p0's CAS attempts
  // changes the word exactly once per round, so p0's CAS always fails. With
  // the failure-word CAS, each failed retry is exactly ONE step — the failed
  // CAS reports the word it observed and p0 retries against that, with no
  // separate re-read.
  bool p1_linked = false;
  for (int i = 0; i < 5; ++i) {
    (void)sim::run_solo(sched, 1,
                        object.apply(1, p1_linked ? RllscSpec::rl(1)
                                                  : RllscSpec::ll(1)));
    p1_linked = !p1_linked;
    sched.step(0);  // p0: CAS fails, observing the toggled word
    ASSERT_FALSE(sched.op_finished(0)) << "SC should still be retrying";
  }

  // Context reset: p0 is no longer linked, so its SC must fail-fast — one
  // final failing CAS whose observed word shows the cleared context.
  (void)sim::run_solo(sched, 1, object.apply(1, RllscSpec::store(1, 7)));
  int steps = 0;
  while (!sched.op_finished(0) && steps < 2) {
    sched.step(0);
    ++steps;
  }
  EXPECT_EQ(steps, 1) << "the failing CAS itself reveals the reset context";
  ASSERT_TRUE(sched.op_finished(0));
  sched.finish(0);
  EXPECT_FALSE(sc_task.take_result().flag);
  EXPECT_EQ(sim::run_solo(sched, 1, object.apply(1, RllscSpec::load(1))).value,
            7u);
}

TEST(RllscProgress, LlIsLockFreeNotWaitFree) {
  // An LL can be starved by a stream of successful SCs — but each failure
  // coincides with system-wide progress (someone's SC succeeded). This is
  // the lock-freedom caveat that Algorithm 5's ‖-interleaving exists to
  // tolerate.
  sim::Memory memory;
  sim::Scheduler sched(2);
  CasRllsc object(memory, "X", RllscValue{0, 0});

  sim::OpTask<RllscSpec::Resp> ll_task = object.apply(0, RllscSpec::ll(0));
  sched.start(0, ll_task);
  sched.step(0);  // p0: Read(X)

  int successful_scs = 0;
  for (int round = 0; round < 20; ++round) {
    // p1 completes LL + SC writing a *fresh* value (cycling 1..7 never
    // repeats consecutively and never equals the initial 0), so the word
    // always differs from p0's stale expectation. Each starved retry is one
    // step: the failed CAS observes the fresh word and retries against it.
    (void)sim::run_solo(sched, 1, object.apply(1, RllscSpec::ll(1)));
    const auto sc = sim::run_solo(
        sched, 1,
        object.apply(1, RllscSpec::sc(
                            1, static_cast<std::uint16_t>(round % 7 + 1))));
    ASSERT_TRUE(sc.flag);
    ++successful_scs;
    sched.step(0);  // p0: CAS fails, observing p1's freshly installed word
    ASSERT_FALSE(sched.op_finished(0));
  }
  EXPECT_EQ(successful_scs, 20);

  // Solo, the LL completes immediately: the last failure's observed word is
  // still current, so the very next CAS succeeds.
  sched.step(0);
  ASSERT_TRUE(sched.op_finished(0));
  sched.finish(0);
}

}  // namespace
}  // namespace hi
