// Algorithm 6 (lock-free perfect-HI R-LLSC from CAS, Theorem 28) over the
// simulator, and the model-only native R-LLSC cell behind the same
// interface. The algorithm and its commentary: algo/rllsc.h.
#pragma once

#include "algo/rllsc.h"
#include "algo/values.h"
#include "env/sim_env.h"
#include "sim/native_rllsc.h"

namespace hi::core {

using algo::RllscValue;
using CasRllsc = algo::CasRllscAlg<env::SimEnv>;
// perfbench/src/explore.h pins this name.
using NativeRllsc = sim::NativeRllsc;

}  // namespace hi::core
