// The model-only native R-LLSC cell (sim/native_rllsc.h), the ideal atomic
// cell Algorithm 5 runs over when the Theorem 32 composition is not under
// test. Algorithm 6 over the simulator is algo::CasRllscAlg<env::SimEnv>.
#pragma once

#include "sim/native_rllsc.h"

namespace hi::core {

// perfbench/src/explore.h pins this name.
using NativeRllsc = sim::NativeRllsc;

}  // namespace hi::core
