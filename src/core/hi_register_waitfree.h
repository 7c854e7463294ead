// Algorithm 4 (wait-free quiescent-HI register, Theorem 12) over the
// simulator. The algorithm and its commentary: algo/registers.h.
#pragma once

#include "algo/registers.h"
#include "env/sim_env.h"

namespace hi::core {

using WaitFreeHiRegister = algo::WaitFreeHiAlgPadded<env::SimEnv>;
using PackedWaitFreeHiRegister = algo::WaitFreeHiAlgPacked<env::SimEnv>;

}  // namespace hi::core
