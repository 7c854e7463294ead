// The sharded perfect-HI set over the simulator. The facade and its
// linearizability / HI argument: algo/sharded_set.h.
#pragma once

#include "algo/sharded_set.h"
#include "env/sim_env.h"

namespace hi::core {

using ShardedHiSet = algo::ShardedHiSetPacked<env::SimEnv>;

}  // namespace hi::core
