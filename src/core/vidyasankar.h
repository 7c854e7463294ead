// Algorithm 1 (Vidyasankar [46], the paper's non-HI motivating example, §4)
// over the simulator. The algorithm and its commentary: algo/registers.h.
#pragma once

#include "algo/registers.h"
#include "env/sim_env.h"

namespace hi::core {

using VidyasankarRegister = algo::VidyasankarAlgPadded<env::SimEnv>;
using PackedVidyasankarRegister = algo::VidyasankarAlgPacked<env::SimEnv>;

}  // namespace hi::core
