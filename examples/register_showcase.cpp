// Register showcase: the paper's §4 narrative end-to-end, on the simulator.
//
//   1. Algorithm 1 (Vidyasankar) is wait-free but leaks history: the exact
//      [1,1,0]-vs-[1,0,0] example from the paper.
//   2. Algorithm 2 fixes the leak by clearing upwards — state-quiescent HI —
//      but its reader becomes starvable: we run the Theorem 17 pigeonhole
//      adversary live and watch the reader spin.
//   3. Algorithm 4 restores wait-freedom through helping (array B) while
//      keeping quiescent HI: the same adversary fails, and after everything
//      quiesces the memory is back to canon.
//
//   $ ./examples/register_showcase
#include <cstdio>
#include <string>

#include "adversary/reader_adversary.h"
#include "algo/registers.h"
#include "env/sim_env.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/register_spec.h"

namespace {

constexpr int kWriter = 0;
constexpr int kReader = 1;
constexpr std::uint32_t kValues = 4;

template <typename Impl>
struct Sys {
  hi::spec::RegisterSpec spec;
  hi::sim::Memory memory;
  hi::sim::Scheduler sched;
  Impl impl;

  Sys() : spec(kValues, 1), sched(2), impl(memory, spec, kWriter, kReader) {}
};

template <typename Impl>
hi::adversary::CanonicalMap canon() {
  hi::adversary::CanonicalMap map;
  for (std::uint32_t v = 1; v <= kValues; ++v) {
    Sys<Impl> sys;
    if (v != 1) {
      (void)hi::sim::run_solo(sys.sched, kWriter,
                              sys.impl.write(kWriter, v));
    }
    map.emplace(v, sys.memory.snapshot());
  }
  return map;
}

}  // namespace

int main() {
  std::printf("=== 1. Algorithm 1 leaks (the paper's K=3 example) ===\n");
  {
    Sys<hi::algo::VidyasankarAlgPadded<hi::env::SimEnv>> sys;
    (void)hi::sim::run_solo(sys.sched, kWriter, sys.impl.write(kWriter, 2));
    (void)hi::sim::run_solo(sys.sched, kWriter, sys.impl.write(kWriter, 1));
    std::printf("  after Write(2); Write(1):  %s   <- A[2] still set!\n",
                sys.memory.dump().c_str());
  }
  {
    Sys<hi::algo::VidyasankarAlgPadded<hi::env::SimEnv>> sys;
    (void)hi::sim::run_solo(sys.sched, kWriter, sys.impl.write(kWriter, 1));
    std::printf("  after just Write(1):       %s\n", sys.memory.dump().c_str());
    std::printf("  same register value (1), different memory: an observer\n"
                "  learns a larger value was written earlier.\n\n");
  }

  std::printf("=== 2. Algorithm 2: HI, but the adversary starves reads ===\n");
  {
    const auto map = canon<hi::algo::LockFreeHiAlgPadded<hi::env::SimEnv>>();
    Sys<hi::algo::LockFreeHiAlgPadded<hi::env::SimEnv>> sys;
    const auto plan = hi::adversary::ct_plan(sys.spec);
    const auto result = hi::adversary::run_starvation(
        sys.spec, sys.memory, sys.sched, sys.impl, plan, map, kWriter,
        kReader, /*max_rounds=*/50000);
    std::printf("  adversary ran %llu rounds; reader took %llu steps and %s\n",
                static_cast<unsigned long long>(result.rounds_executed),
                static_cast<unsigned long long>(result.reader_steps),
                result.reader_returned ? "returned (?!)"
                                       : "NEVER returned (Theorem 17)");
    std::printf("  memory is nonetheless canonical after each write: %s\n\n",
                sys.memory.dump().c_str());
  }

  std::printf("=== 3. Algorithm 4: wait-free AND quiescent HI ===\n");
  {
    const auto map = canon<hi::algo::WaitFreeHiAlgPadded<hi::env::SimEnv>>();
    Sys<hi::algo::WaitFreeHiAlgPadded<hi::env::SimEnv>> sys;
    const auto plan = hi::adversary::ct_plan(sys.spec);
    const auto result = hi::adversary::run_starvation(
        sys.spec, sys.memory, sys.sched, sys.impl, plan, map, kWriter,
        kReader, /*max_rounds=*/50000);
    std::printf("  same adversary: reader returned %u after only %llu steps\n",
                result.reader_response,
                static_cast<unsigned long long>(result.reader_steps));
    (void)hi::sim::run_solo(sys.sched, kWriter, sys.impl.write(kWriter, 3));
    const bool canonical = sys.memory.snapshot() == map.at(3);
    std::printf("  after quiescing at value 3, memory %s canon:\n  %s\n",
                canonical ? "matches" : "DIFFERS FROM",
                sys.memory.dump().c_str());
    return canonical ? 0 : 1;
  }
}
