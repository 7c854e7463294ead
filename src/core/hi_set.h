// §5.1's wait-free perfect-HI set over the simulator. The algorithm and its
// commentary: algo/hi_set.h.
#pragma once

#include "algo/hi_set.h"
#include "env/sim_env.h"

namespace hi::core {

using HiSet = algo::HiSetAlgPadded<env::SimEnv>;
using PackedHiSet = algo::HiSetAlgPacked<env::SimEnv>;

}  // namespace hi::core
