// The system shape the simulator suites share: one spec, memory, scheduler
// and implementation, with the scheduler()/memory()/apply() members that
// sim::Explorer's factories must produce (sim::ExplorableSystem). A table
// entry's system is built by the entry's factory, an off-table object's by
// its constructor arguments:
//
//   testing::EntrySystem<testing::HiSetPadded> set(
//       spec::SetSpec(4), 2, &testing::HiSetPadded::make<env::SimEnv>);
//   testing::SimSystem<spec::CounterSpec, NativeUniversal> u(spec, 2, 2);
#pragma once

#include <type_traits>
#include <utility>

#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "spec/spec.h"

namespace hi::testing {

template <spec::SequentialSpec S, typename Impl>
struct SimSystem {
  S spec;
  sim::Memory mem;
  sim::Scheduler sched;
  Impl impl;

  /// Builds impl as Impl(mem, spec, args...), or as Impl(mem, args...) for
  /// an implementation that takes no spec.
  template <typename... Args>
  SimSystem(S s, int num_processes, const Args&... args)
      : spec(std::move(s)), sched(num_processes), impl(build(args...)) {}

  /// Builds impl as make(mem, spec, num_processes): a table entry's
  /// E::make<env::SimEnv> (tests/objects.h).
  SimSystem(S s, int num_processes, Impl (*make)(sim::Memory&, const S&, int))
      : spec(std::move(s)),
        sched(num_processes),
        impl(make(mem, spec, num_processes)) {}

  sim::Scheduler& scheduler() { return sched; }
  sim::Memory& memory() { return mem; }
  sim::OpTask<typename S::Resp> apply(int pid, typename S::Op op) {
    return impl.apply(pid, op);
  }

 private:
  template <typename... Args>
  Impl build(const Args&... args) {
    if constexpr (std::is_constructible_v<Impl, sim::Memory&, const S&,
                                          const Args&...>) {
      return Impl(mem, spec, args...);
    } else {
      return Impl(mem, args...);
    }
  }
};

}  // namespace hi::testing
