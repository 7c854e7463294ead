// §5.1's wait-free state-quiescent-HI max register over the simulator. The
// algorithm and its commentary: algo/max_register.h.
#pragma once

#include "algo/max_register.h"
#include "env/sim_env.h"

namespace hi::core {

using HiMaxRegister = algo::HiMaxRegisterAlgPadded<env::SimEnv>;
using PackedHiMaxRegister = algo::HiMaxRegisterAlgPacked<env::SimEnv>;

}  // namespace hi::core
