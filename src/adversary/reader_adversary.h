// The reader-starvation adversary of Theorem 17 (and, via pluggable change
// sequences, Theorem 20's queue variant).
//
// The impossibility proof (§5.2) constructs executions
//   α = o_change(q0,q1), r1, o_change(q1,q2), r2, ...
// in which a "changer" completes one state-changing operation between any two
// steps of a "reader" executing a single o_read. Lemma 16's inductive step:
// let obj_ℓ be the base object the reader is about to access; because obj_ℓ
// has fewer states than the object has partition classes, by pigeonhole two
// distinct states q ≠ q' have can(q)[ℓ] = can(q')[ℓ], so the adversary can
// steer into {q, q'} while keeping the reader's observation compatible with
// at least two different responses — forever.
//
// Against a *concrete* candidate implementation (rather than the proof's
// universally-quantified one) the same schedule is executable directly: each
// round consults the reader's pending base object, picks the pigeonhole pair
// from the pre-built canonical map, completes the state change solo, and
// grants the reader exactly one step. If the candidate really were wait-free
// and state-quiescent HI, the reader would have to return within its
// wait-freedom bound; the experiment shows its step count growing linearly
// with the number of rounds instead (E7). Run against the wait-free
// Algorithm 4 the adversary fails — the reader returns — which is the
// matching positive control.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/driver.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/spec.h"

namespace hi::adversary {

struct StarvationResult {
  bool reader_returned = false;
  std::uint32_t reader_response = 0;  // valid only if reader_returned
  std::uint64_t reader_steps = 0;
  std::uint64_t rounds_executed = 0;
  std::uint64_t changer_ops = 0;
};

/// Canonical map: encoded abstract state -> canonical memory representation,
/// built by the caller from solo sequential executions on a *fresh* instance
/// of the same implementation (the adversary consults it analytically, as
/// the proof does; it never mutates the live system through it).
using CanonicalMap = std::unordered_map<std::uint64_t, sim::MemorySnapshot>;

template <hi::spec::SequentialSpec S>
struct AdversaryPlan {
  /// All abstract states the changer may steer among (the proof's
  /// representative states; for class C_t this is the whole state space).
  std::vector<typename S::State> states;
  /// Ops taking the object from `from` to `to` (a single o_change for C_t;
  /// the S(i1,i2) sequences for the queue).
  std::function<std::vector<typename S::Op>(const typename S::State& from,
                                            const typename S::State& to)>
      change_seq;
  /// The read-only operation the reader is trapped in.
  typename S::Op read_op;
};

/// Build the default plan for a class-C_t object (Definition 13).
template <typename S>
  requires hi::spec::StronglyConnectedSpec<S> && hi::spec::EnumerableSpec<S>
AdversaryPlan<S> ct_plan(const S& spec) {
  AdversaryPlan<S> plan;
  plan.states = spec.enumerate_states();
  plan.change_seq = [&spec](const typename S::State& from,
                            const typename S::State& to) {
    return std::vector<typename S::Op>{spec.change_op(from, to)};
  };
  plan.read_op = spec.read_op();
  return plan;
}

/// Run the starvation schedule for up to `max_rounds` rounds against a live
/// system. `impl.apply(pid, op)` spawns operations; `changer_pid` /
/// `reader_pid` identify the two processes of the construction. The initial
/// abstract state must be `initial_state` (encoded value consistent with the
/// canonical map's keys).
template <hi::spec::SequentialSpec S, typename Impl>
  requires sim::SimImplementation<Impl, S>
StarvationResult run_starvation(const S& spec, sim::Memory& memory,
                                sim::Scheduler& sched, Impl& impl,
                                const AdversaryPlan<S>& plan,
                                const CanonicalMap& canon, int changer_pid,
                                int reader_pid, std::uint64_t max_rounds) {
  StarvationResult result;

  typename S::State current = spec.initial_state();

  auto change_to = [&](const typename S::State& target) {
    for (const typename S::Op& op : plan.change_seq(current, target)) {
      (void)sim::run_solo(sched, changer_pid, impl.apply(changer_pid, op));
      ++result.changer_ops;
    }
    current = target;
  };

  // The reader's o_read is invoked only after the first complete o_change,
  // exactly as in the proof of Theorem 17.
  change_to(plan.states.at(plan.states.size() > 1 ? 1 : 0));

  // The reader's single o_read runs through a Driver (which abandons it on
  // return if the adversary wins); the changer's ops run solo.
  std::vector<std::vector<typename S::Op>> reads(sched.num_processes());
  reads.at(reader_pid).push_back(plan.read_op);
  sim::Driver<S, Impl> reader(spec, sched, impl, reads);
  (void)reader.start(reader_pid);

  const std::uint64_t reader_steps_before = sched.steps_of(reader_pid);
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    if (!reader.can_step(reader_pid)) break;  // returned

    // Lemma 16: find two distinct states whose canonical representations
    // agree on the base object the reader accesses next.
    const int obj = sched.pending_object(reader_pid);
    assert(obj >= 0);
    const auto [first_word, last_word] = memory.word_range(obj);

    const typename S::State* pick = nullptr;
    const std::size_t n_states = plan.states.size();
    [&] {
      for (std::size_t i = 0; i < n_states; ++i) {
        for (std::size_t j = i + 1; j < n_states; ++j) {
          const auto& can_i = canon.at(spec.encode_state(plan.states[i]));
          const auto& can_j = canon.at(spec.encode_state(plan.states[j]));
          bool agree = true;
          for (std::size_t w = first_word; w < last_word; ++w) {
            if (can_i.words[w] != can_j.words[w]) {
              agree = false;
              break;
            }
          }
          if (agree) {
            // Prefer the pair element that actually changes the state, so
            // the changer's operation sequence is well-formed for objects
            // requiring from != to.
            const bool i_is_current = spec.encode_state(plan.states[i]) ==
                                      spec.encode_state(current);
            pick = i_is_current ? &plan.states[j] : &plan.states[i];
            return;
          }
        }
      }
    }();
    if (pick == nullptr) {
      // No pigeonhole pair: the base object is not "smaller" than the
      // abstract object — the impossibility argument does not apply, and
      // the adversary concedes.
      break;
    }

    if (spec.encode_state(*pick) != spec.encode_state(current)) {
      change_to(*pick);
    } else {
      // Degenerate (can only happen if |states| == 1): nothing to change.
      break;
    }
    if (!reader.can_step(reader_pid)) break;
    (void)reader.step(reader_pid);  // r_k: exactly one reader step per round
    ++result.rounds_executed;
  }

  result.reader_steps = sched.steps_of(reader_pid) - reader_steps_before;
  const auto& read = reader.history()[reader.op_index(reader_pid)];
  if (read.completed()) {
    result.reader_returned = true;
    result.reader_response =
        static_cast<std::uint32_t>(spec.encode_resp(read.resp));
  }
  return result;
}

}  // namespace hi::adversary
