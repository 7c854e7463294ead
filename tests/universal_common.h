// Shared fixtures for the universal-construction experiments (E11): spec
// factories, random workload generation per object type, and the standard
// check bundle (linearizability with final-state cross-validation,
// state-quiescent canonical invariants of Lemmas 25–27).
#pragma once

#include <cstdint>
#include <vector>

#include "algo/rllsc.h"
#include "algo/universal.h"
#include "env/sim_env.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim_system.h"
#include "spec/cas_spec.h"
#include "spec/counter_spec.h"
#include "spec/queue_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "spec/stack_spec.h"
#include "util/rng.h"

namespace hi::testing {

template <typename S>
struct SpecTraits;

template <>
struct SpecTraits<spec::CounterSpec> {
  static spec::CounterSpec make() { return spec::CounterSpec(1u << 20, 10); }
  static spec::CounterSpec::Op random_op(util::Xoshiro256& rng) {
    switch (rng.next_below(4)) {
      case 0: return spec::CounterSpec::read();
      case 1: return spec::CounterSpec::dec();
      default: return spec::CounterSpec::inc();
    }
  }
};

template <>
struct SpecTraits<spec::RegisterSpec> {
  static spec::RegisterSpec make() { return spec::RegisterSpec(8, 3); }
  static spec::RegisterSpec::Op random_op(util::Xoshiro256& rng) {
    if (rng.chance(1, 3)) return spec::RegisterSpec::read();
    return spec::RegisterSpec::write(
        static_cast<std::uint32_t>(rng.next_in(1, 8)));
  }
};

template <>
struct SpecTraits<spec::SetSpec> {
  static spec::SetSpec make() { return spec::SetSpec(12); }
  static spec::SetSpec::Op random_op(util::Xoshiro256& rng) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, 12));
    switch (rng.next_below(3)) {
      case 0: return spec::SetSpec::lookup(v);
      case 1: return spec::SetSpec::remove(v);
      default: return spec::SetSpec::insert(v);
    }
  }
};

template <>
struct SpecTraits<spec::QueueSpec> {
  static spec::QueueSpec make() { return spec::QueueSpec(9, 6); }
  static spec::QueueSpec::Op random_op(util::Xoshiro256& rng) {
    switch (rng.next_below(4)) {
      case 0: return spec::QueueSpec::peek();
      case 1: return spec::QueueSpec::dequeue();
      default:
        return spec::QueueSpec::enqueue(
            static_cast<std::uint8_t>(rng.next_in(1, 9)));
    }
  }
};

template <>
struct SpecTraits<spec::StackSpec> {
  static spec::StackSpec make() { return spec::StackSpec(9, 6); }
  static spec::StackSpec::Op random_op(util::Xoshiro256& rng) {
    switch (rng.next_below(4)) {
      case 0: return spec::StackSpec::top();
      case 1: return spec::StackSpec::pop();
      default:
        return spec::StackSpec::push(
            static_cast<std::uint8_t>(rng.next_in(1, 9)));
    }
  }
};

template <>
struct SpecTraits<spec::CasSpec> {
  static spec::CasSpec make() { return spec::CasSpec(6, 2); }
  static spec::CasSpec::Op random_op(util::Xoshiro256& rng) {
    const auto e = static_cast<std::uint32_t>(rng.next_in(1, 6));
    const auto d = static_cast<std::uint32_t>(rng.next_in(1, 6));
    switch (rng.next_below(4)) {
      case 0: return spec::CasSpec::read();
      case 1: return spec::CasSpec::write(d);
      default: return spec::CasSpec::cas(e, d);
    }
  }
};

template <typename S>
std::vector<std::vector<typename S::Op>> universal_workload(
    int num_procs, std::size_t ops_each, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<typename S::Op>> work(num_procs);
  for (auto& ops : work) {
    ops.reserve(ops_each);
    for (std::size_t i = 0; i < ops_each; ++i) {
      ops.push_back(SpecTraits<S>::random_op(rng));
    }
  }
  return work;
}

/// Algorithm 5 over `Cell`s in the step model.
template <typename S, typename Cell>
using SimUniversal = algo::UniversalAlg<env::SimEnv, S, Cell>;

/// A fresh simulated system hosting one universal object.
template <typename S, typename Cell>
struct UniversalSystem : SimSystem<S, SimUniversal<S, Cell>> {
  explicit UniversalSystem(int num_procs, bool clear_contexts = true,
                           bool combine = false)
      : SimSystem<S, SimUniversal<S, Cell>>(SpecTraits<S>::make(), num_procs,
                                            num_procs, clear_contexts,
                                            combine) {}
};

}  // namespace hi::testing
