// The wait-free-simulated Alg 2/3 register (the Kogan–Petrank-style
// combinator of algo/wait_free_sim.h over the lock-free HI register) over
// the simulator, padded layout. The combinator and its commentary:
// algo/wait_free_sim.h.
#pragma once

#include "algo/wait_free_sim.h"
#include "env/sim_env.h"

namespace hi::core {

// perfbench/src/explore.h pins this name.
using WaitFreeSimHiRegister = algo::WaitFreeSimHiAlgPadded<env::SimEnv>;

}  // namespace hi::core
