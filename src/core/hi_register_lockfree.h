// Algorithms 2 + 3 (lock-free state-quiescent-HI register, Theorem 9) over
// the simulator. The algorithm and its commentary: algo/registers.h.
#pragma once

#include "algo/registers.h"
#include "env/sim_env.h"

namespace hi::core {

using LockFreeHiRegister = algo::LockFreeHiAlgPadded<env::SimEnv>;
using PackedLockFreeHiRegister = algo::LockFreeHiAlgPacked<env::SimEnv>;

}  // namespace hi::core
