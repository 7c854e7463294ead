// Algorithm 5 (wait-free state-quiescent-HI universal construction) —
// experiment E11 validates Theorem 32 over six abstract objects and both
// R-LLSC backends (native cells, and Algorithm 6's CAS-backed cells = the
// full composition):
//   * linearizability, cross-validated against the state recorded in head
//     (Lemma 25) via the checker's expected-final-state mode;
//   * state-quiescent history independence: at every state-quiescent point
//     head = ⟨q,⊥⟩, announce ≡ ⊥, all contexts empty (Lemmas 26, 27), and
//     the full memory snapshot is a function of q alone (HiChecker);
//   * wait-freedom: bounded steps per operation under randomized schedules;
//   * helping: an announced operation completes even if its invoker stalls.
#include <gtest/gtest.h>

#include "algo/rllsc.h"
#include "algo/universal.h"
#include "env/sim_env.h"
#include "sim/driver.h"
#include "sim/native_rllsc.h"
#include "universal_common.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using CasRllsc = algo::CasRllscAlg<env::SimEnv>;
using sim::NativeRllsc;
using testing::SimUniversal;
using testing::SpecTraits;
using testing::universal_workload;
using testing::UniversalSystem;

template <typename S, typename Cell>
struct Combo {
  using Spec = S;
  using CellT = Cell;
};

template <typename C>
class UniversalTyped : public ::testing::Test {};

using Combos = ::testing::Types<
    Combo<spec::CounterSpec, CasRllsc>, Combo<spec::CounterSpec, NativeRllsc>,
    Combo<spec::RegisterSpec, CasRllsc>,
    Combo<spec::RegisterSpec, NativeRllsc>, Combo<spec::SetSpec, CasRllsc>,
    Combo<spec::QueueSpec, CasRllsc>, Combo<spec::QueueSpec, NativeRllsc>,
    Combo<spec::StackSpec, CasRllsc>, Combo<spec::CasSpec, CasRllsc>>;
TYPED_TEST_SUITE(UniversalTyped, Combos);

TYPED_TEST(UniversalTyped, SequentialSemanticsMatchSpec) {
  using S = typename TypeParam::Spec;
  UniversalSystem<S, typename TypeParam::CellT> sys(2);
  util::Xoshiro256 rng(7);
  typename S::State model = sys.spec.initial_state();
  for (int i = 0; i < 60; ++i) {
    const auto op = SpecTraits<S>::random_op(rng);
    const auto got =
        sim::run_solo(sys.sched, i % 2, sys.impl.apply(i % 2, op));
    auto [next, expected] = sys.spec.apply(model, op);
    model = next;
    EXPECT_EQ(sys.spec.encode_resp(got), sys.spec.encode_resp(expected));
    EXPECT_EQ(sys.impl.head_state_encoded(), sys.spec.encode_state(model));
  }
}

TYPED_TEST(UniversalTyped, LinearizableWithHeadCrossCheck) {
  using S = typename TypeParam::Spec;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (int n : {2, 3, 4}) {
      UniversalSystem<S, typename TypeParam::CellT> sys(n);
      sim::Runner<S, SimUniversal<S, typename TypeParam::CellT>> runner(
          sys.spec, sys.mem, sys.sched, sys.impl,
          [&](const auto&) { return sys.impl.head_state_encoded(); });
      auto result =
          runner.run(universal_workload<S>(n, 12, seed * 31 + n),
                     {.seed = seed * 17 + n});
      ASSERT_FALSE(result.timed_out) << "n=" << n << " seed=" << seed;
      ASSERT_EQ(result.history.num_pending(), 0u);

      // Lemma 25: the state in head must be the final state of some
      // linearization of the *entire* history.
      const auto final_state =
          sys.spec.decode_state(sys.impl.head_state_encoded());
      const auto lin = verify::LinearizabilityChecker<S>(sys.spec).check(
          result.history, final_state);
      EXPECT_TRUE(lin.ok()) << "n=" << n << " seed=" << seed;
    }
  }
}

TYPED_TEST(UniversalTyped, StateQuiescentCanonicalInvariants) {
  // Lemmas 26 + 27 + Theorem 32: at a state-quiescent configuration,
  // announce[i] = ⊥ for every process, head = ⟨q, ⊥⟩, and every context is
  // empty — hence memory is determined by q.
  using S = typename TypeParam::Spec;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const int n = 3;
    UniversalSystem<S, typename TypeParam::CellT> sys(n);
    bool checked_any = false;
    sim::Runner<S, SimUniversal<S, typename TypeParam::CellT>> runner(
        sys.spec, sys.mem, sys.sched, sys.impl, [&](const auto&) {
          // Invoked exactly at state-quiescent points: assert the canonical
          // invariants as part of the oracle.
          EXPECT_FALSE(sys.impl.head_has_response());
          EXPECT_EQ(sys.impl.context_union(), 0u);
          for (int pid = 0; pid < n; ++pid) {
            EXPECT_TRUE(sys.impl.announce_is_bottom(pid));
          }
          checked_any = true;
          return sys.impl.head_state_encoded();
        });
    auto result = runner.run(universal_workload<S>(n, 12, seed * 77),
                             {.seed = seed * 13});
    ASSERT_FALSE(result.timed_out);
    EXPECT_TRUE(checked_any);
  }
}

TYPED_TEST(UniversalTyped, StateQuiescentHiAcrossExecutions) {
  // Definition 4 with E = state-quiescent executions, pooled across many
  // seeds: same abstract state ⇒ identical memory representation.
  using S = typename TypeParam::Spec;
  const int n = 3;  // (the 6-process variant below stresses wider helping)
  verify::HiChecker checker;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    UniversalSystem<S, typename TypeParam::CellT> sys(n);
    sim::Runner<S, SimUniversal<S, typename TypeParam::CellT>> runner(
        sys.spec, sys.mem, sys.sched, sys.impl,
        [&](const auto&) { return sys.impl.head_state_encoded(); });
    auto result = runner.run(universal_workload<S>(n, 10, seed * 97),
                             {.seed = seed * 7});
    ASSERT_FALSE(result.timed_out);
    for (const auto& obs : result.state_quiescent) {
      checker.observe(obs.state, obs.mem, "seed=" + std::to_string(seed));
    }
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_GT(checker.num_observations(), 30u);
}

TYPED_TEST(UniversalTyped, SixProcessHiAndLinearizability) {
  // Wider helping fan-out: six processes, pooled HI observations plus a
  // linearizability pass per seed.
  using S = typename TypeParam::Spec;
  const int n = 6;
  verify::HiChecker checker;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    UniversalSystem<S, typename TypeParam::CellT> sys(n);
    sim::Runner<S, SimUniversal<S, typename TypeParam::CellT>> runner(
        sys.spec, sys.mem, sys.sched, sys.impl,
        [&](const auto&) { return sys.impl.head_state_encoded(); });
    auto result = runner.run(universal_workload<S>(n, 8, seed * 191),
                             {.seed = seed * 3 + 1});
    ASSERT_FALSE(result.timed_out);
    ASSERT_EQ(result.history.num_pending(), 0u);
    const auto final_state =
        sys.spec.decode_state(sys.impl.head_state_encoded());
    EXPECT_TRUE(verify::LinearizabilityChecker<S>(sys.spec)
                    .check(result.history, final_state)
                    .ok())
        << "seed=" << seed;
    for (const auto& obs : result.state_quiescent) {
      checker.observe(obs.state, obs.mem, "seed=" + std::to_string(seed));
    }
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
}

TYPED_TEST(UniversalTyped, WaitFreeStepBound) {
  // Theorem 32 wait-freedom. The helping structure guarantees an operation
  // is applied within O(n) mode transitions; each transition costs O(1)
  // R-LLSC ops, each of which is O(n) CAS steps under contention in the
  // Algorithm 6 backend. We assert a generous concrete bound and record the
  // observed maximum.
  using S = typename TypeParam::Spec;
  std::uint64_t max_steps = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int n = 4;
    UniversalSystem<S, typename TypeParam::CellT> sys(n);
    sim::Runner<S, SimUniversal<S, typename TypeParam::CellT>> runner(
        sys.spec, sys.mem, sys.sched, sys.impl,
        [&](const auto&) { return sys.impl.head_state_encoded(); });
    auto result = runner.run(universal_workload<S>(n, 15, seed),
                             {.seed = seed, .start_weight = 2});
    ASSERT_FALSE(result.timed_out);
    for (std::size_t i = 0; i < result.history.size(); ++i) {
      if (result.history[i].completed()) {
        max_steps = std::max(max_steps, result.op_steps[i]);
      }
    }
  }
  EXPECT_LE(max_steps, 600u) << "wait-freedom bound violated";
  EXPECT_GT(max_steps, 0u);
}

TYPED_TEST(UniversalTyped, ReadOnlyOpsTakeOneStepAndLeaveNoTrace) {
  using S = typename TypeParam::Spec;
  UniversalSystem<S, typename TypeParam::CellT> sys(2);
  util::Xoshiro256 rng(5);
  // Reach a random state first.
  for (int i = 0; i < 10; ++i) {
    (void)sim::run_solo(sys.sched, 0,
                        sys.impl.apply(0, SpecTraits<S>::random_op(rng)));
  }
  const auto before = sys.mem.snapshot();
  // Find a read-only op for this spec and run it solo.
  for (int tries = 0; tries < 100; ++tries) {
    const auto op = SpecTraits<S>::random_op(rng);
    if (!sys.spec.is_read_only(op)) continue;
    const std::uint64_t steps_before = sys.sched.steps_of(1);
    (void)sim::run_solo(sys.sched, 1, sys.impl.apply(1, op));
    EXPECT_EQ(sys.sched.steps_of(1) - steps_before, 1u)
        << "ApplyReadOnly is a single Load";
    EXPECT_EQ(sys.mem.snapshot(), before)
        << "read-only ops must not change the memory representation";
    break;
  }
}

TEST(UniversalHelping, StalledProcessIsHelpedToCompletion) {
  // p0 announces an increment and then takes no further steps; p1 performs
  // its own operations, and the helping path (lines 8–9) must apply p0's
  // operation exactly once. p0 then finishes in a handful of solo steps.
  using S = spec::CounterSpec;
  UniversalSystem<S, CasRllsc> sys(2);

  sim::OpTask<S::Resp> stalled = sys.impl.apply(0, S::inc());
  sys.sched.start(0, stalled);
  sys.sched.step(0);  // p0 executes only its announcement Store (line 4)

  // p1 runs two increments of its own; the priority rotation guarantees it
  // helps p0 within these.
  (void)sim::run_solo(sys.sched, 1, sys.impl.apply(1, S::inc()));
  (void)sim::run_solo(sys.sched, 1, sys.impl.apply(1, S::inc()));

  // All three increments must have been applied (initial value 10).
  EXPECT_EQ(sys.impl.head_state_encoded(), 13u);

  // p0 wakes up: it should find its response and return promptly.
  std::uint64_t steps = 0;
  while (!sys.sched.op_finished(0)) {
    ASSERT_LT(steps, 60u) << "stalled process did not finish promptly";
    ASSERT_TRUE(sys.sched.runnable(0));
    sys.sched.step(0);
    ++steps;
  }
  sys.sched.finish(0);
  const auto resp = stalled.take_result();
  // Its fetch-and-inc response reflects the state when it was applied —
  // one of 10, 11, 12.
  EXPECT_GE(resp, 10u);
  EXPECT_LE(resp, 12u);
  // And the memory is canonical afterwards.
  EXPECT_TRUE(sys.impl.announce_is_bottom(0));
  EXPECT_TRUE(sys.impl.announce_is_bottom(1));
  EXPECT_EQ(sys.impl.context_union(), 0u);
  EXPECT_FALSE(sys.impl.head_has_response());
}

TEST(UniversalModes, HeadAlternatesBetweenAAndBModes) {
  // Invariant 22: consecutive head values alternate ⟨q,⊥⟩ → ⟨q',⟨r,j⟩⟩ →
  // ⟨q',⊥⟩ → ... and the B→A transition preserves the state component.
  using S = spec::CounterSpec;
  const int n = 3;
  UniversalSystem<S, CasRllsc> sys(n);

  const auto work = universal_workload<S>(n, 10, 99);
  sim::Driver driver(sys.spec, sys.sched, sys.impl, work);
  util::Xoshiro256 rng(123);

  std::uint64_t prev_state = sys.impl.head_state_encoded();
  bool prev_has_resp = sys.impl.head_has_response();
  EXPECT_FALSE(prev_has_resp);
  int transitions = 0;

  for (;;) {
    std::vector<int> enabled;
    for (int pid = 0; pid < n; ++pid) {
      if (driver.can_start(pid) || driver.can_step(pid)) {
        enabled.push_back(pid);
      }
    }
    if (enabled.empty()) break;
    const int pid = enabled[rng.next_below(enabled.size())];
    (void)(driver.can_start(pid) ? driver.start(pid) : driver.step(pid));

    const std::uint64_t state = sys.impl.head_state_encoded();
    const bool has_resp = sys.impl.head_has_response();
    if (state != prev_state || has_resp != prev_has_resp) {
      ++transitions;
      if (prev_has_resp) {
        // B → A: response cleared, state unchanged (Invariant 22 case 1).
        EXPECT_FALSE(has_resp);
        EXPECT_EQ(state, prev_state);
      } else {
        // A → B: a new operation was applied (Invariant 22 case 2).
        EXPECT_TRUE(has_resp);
      }
      prev_state = state;
      prev_has_resp = has_resp;
    }
  }
  EXPECT_GT(transitions, 10);
  EXPECT_FALSE(sys.impl.head_has_response());
}

TEST(UniversalCombining, WinnerSweepsStalledAnnouncesInOneInstall) {
  // Flat-combining mode, step-exact: p0 and p1 announce increments and
  // stall; p2 then runs one increment solo. Its combining pass must sweep
  // all three announced ops into ONE installed transition (batch of 3),
  // publish every response, and leave head in mode A.
  using S = spec::CounterSpec;
  UniversalSystem<S, CasRllsc> sys(3, /*clear_contexts=*/true,
                                   /*combine=*/true);

  sim::OpTask<S::Resp> stalled0 = sys.impl.apply(0, S::inc());
  sys.sched.start(0, stalled0);
  sys.sched.step(0);  // p0 executes only its announcement Store (line 4)
  sim::OpTask<S::Resp> stalled1 = sys.impl.apply(1, S::inc());
  sys.sched.start(1, stalled1);
  sys.sched.step(1);

  const std::uint64_t steps_before = sys.sched.steps_of(2);
  const auto resp2 = sim::run_solo(sys.sched, 2, sys.impl.apply(2, S::inc()));
  const std::uint64_t winner_steps = sys.sched.steps_of(2) - steps_before;

  // One install covering three operations, folded in ascending pid order
  // from initial state 10: p0 sees 10, p1 sees 11, p2 sees 12.
  EXPECT_EQ(sys.impl.batches_installed(), 1u);
  EXPECT_EQ(sys.impl.ops_combined(), 3u);
  EXPECT_EQ(sys.impl.head_state_encoded(), 13u);
  EXPECT_EQ(resp2, 12u);
  // Step-exact (CasRllsc backend): announce Store 1 + line-5 Load 1 +
  // head LL 2 + scan n=3 Loads + combining SC 2 + k=3 response Stores +
  // head-clearing Store 1 + line-5 re-Load 1 + line-24 Load 1 +
  // line-25 LL 2 + line-27 RL 2 + line-28 Store 1 = 20.
  EXPECT_EQ(winner_steps, 20u);

  // The stalled processes wake, find their responses, and finish promptly
  // without installing anything further.
  for (int pid : {0, 1}) {
    std::uint64_t steps = 0;
    while (!sys.sched.op_finished(pid)) {
      ASSERT_LT(steps, 20u) << "swept process did not finish promptly";
      ASSERT_TRUE(sys.sched.runnable(pid));
      sys.sched.step(pid);
      ++steps;
    }
    sys.sched.finish(pid);
  }
  EXPECT_EQ(stalled0.take_result(), 10u);
  EXPECT_EQ(stalled1.take_result(), 11u);
  EXPECT_EQ(sys.impl.batches_installed(), 1u);
  EXPECT_EQ(sys.impl.ops_combined(), 3u);

  // Quiescent memory is canonical: the combining excursion leaves no trace.
  EXPECT_TRUE(sys.impl.announce_is_bottom(0));
  EXPECT_TRUE(sys.impl.announce_is_bottom(1));
  EXPECT_TRUE(sys.impl.announce_is_bottom(2));
  EXPECT_EQ(sys.impl.context_union(), 0u);
  EXPECT_FALSE(sys.impl.head_has_response());
}

TYPED_TEST(UniversalTyped, CombiningLinearizableAndQuiescentHi) {
  // combine=true over every spec x cell combo: batching changes how many
  // operations one install covers, never what the history linearizes to or
  // what quiescent memory looks like. Also checks the batch accounting:
  // every completed update flows through exactly one install.
  using S = typename TypeParam::Spec;
  verify::HiChecker checker;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int n = 3;
    UniversalSystem<S, typename TypeParam::CellT> sys(n,
                                                      /*clear_contexts=*/true,
                                                      /*combine=*/true);
    ASSERT_TRUE(sys.impl.combining_enabled());
    sim::Runner<S, SimUniversal<S, typename TypeParam::CellT>> runner(
        sys.spec, sys.mem, sys.sched, sys.impl, [&](const auto&) {
          // State-quiescent oracle: canonical invariants must survive
          // combining (Lemmas 26, 27 arguments carry over).
          EXPECT_FALSE(sys.impl.head_has_response());
          EXPECT_EQ(sys.impl.context_union(), 0u);
          for (int pid = 0; pid < n; ++pid) {
            EXPECT_TRUE(sys.impl.announce_is_bottom(pid));
          }
          return sys.impl.head_state_encoded();
        });
    const auto work = universal_workload<S>(n, 12, seed * 53);
    std::uint64_t updates = 0;
    for (const auto& ops : work) {
      for (const auto& op : ops) updates += sys.spec.is_read_only(op) ? 0 : 1;
    }
    auto result = runner.run(work, {.seed = seed * 29 + 1});
    ASSERT_FALSE(result.timed_out) << "seed=" << seed;
    ASSERT_EQ(result.history.num_pending(), 0u);

    const auto final_state =
        sys.spec.decode_state(sys.impl.head_state_encoded());
    EXPECT_TRUE(verify::LinearizabilityChecker<S>(sys.spec)
                    .check(result.history, final_state)
                    .ok())
        << "seed=" << seed;
    EXPECT_EQ(sys.impl.ops_combined(), updates);
    EXPECT_LE(sys.impl.batches_installed(), sys.impl.ops_combined());
    EXPECT_GE(sys.impl.batches_installed(), 1u);
    for (const auto& obs : result.state_quiescent) {
      checker.observe(obs.state, obs.mem, "seed=" + std::to_string(seed));
    }
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
  EXPECT_GT(checker.num_observations(), 10u);
}

TEST(UniversalAblation, WithoutContextClearingHiBreaks) {
  // E14 ablation (a): drop the red RL lines. The run still linearizes, but
  // quiescent memory retains context bits — exactly the counter example the
  // paper gives in §6.1 (a zero counter revealing it was touched).
  using S = spec::CounterSpec;
  const int n = 3;

  // Reference canonical memory: a fresh object driven to state 12 with
  // clearing enabled, at quiescence.
  UniversalSystem<S, CasRllsc> reference(n);
  (void)sim::run_solo(reference.sched, 0, reference.impl.apply(0, S::inc()));
  (void)sim::run_solo(reference.sched, 0, reference.impl.apply(0, S::inc()));
  const auto canonical = reference.mem.snapshot();
  ASSERT_EQ(reference.impl.context_union(), 0u);

  // Ablated object, same abstract state, concurrent schedule.
  UniversalSystem<S, CasRllsc> ablated(n, /*clear_contexts=*/false);
  sim::Runner<S, SimUniversal<S, CasRllsc>> runner(
      ablated.spec, ablated.mem, ablated.sched, ablated.impl,
      [&](const auto&) { return ablated.impl.head_state_encoded(); });
  std::vector<std::vector<S::Op>> work(n);
  work[0] = {S::inc()};
  work[1] = {S::inc()};
  auto result = runner.run(work, {.seed = 3});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(ablated.impl.head_state_encoded(), 12u);

  // Linearizability is unaffected...
  EXPECT_TRUE(verify::check_linearizable(ablated.spec, result.history).ok());
  // ...but the memory is NOT canonical: context residue reveals history.
  EXPECT_NE(ablated.mem.snapshot(), canonical);
  EXPECT_NE(ablated.impl.context_union(), 0u);
}

}  // namespace
}  // namespace hi
