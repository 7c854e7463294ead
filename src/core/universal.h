// Algorithm 5 (wait-free state-quiescent-HI universal construction from
// R-LLSC, §6.1) over the simulator:
//
//   Universal<S, NativeRllsc>  — Algorithm 5 over ideal atomic R-LLSC cells
//   Universal<S, CasRllsc>     — the full Theorem 32 composition over CAS
//
// The algorithm and its commentary: algo/universal.h.
#pragma once

#include "algo/universal.h"
#include "core/rllsc.h"
#include "env/sim_env.h"
#include "spec/spec.h"

namespace hi::core {

using algo::HeadView;

// perfbench/src/explore.h pins this name.
template <spec::SequentialSpec S, typename Cell = CasRllsc>
using Universal = algo::UniversalAlg<env::SimEnv, S, Cell>;

}  // namespace hi::core
