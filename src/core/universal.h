// Algorithm 5 (wait-free state-quiescent-HI universal construction from
// R-LLSC, §6.1) over the simulator:
//
//   Universal<S, core::NativeRllsc>  — Algorithm 5 over ideal atomic cells
//   Universal<S>                     — the full Theorem 32 composition over
//                                      Algorithm 6's CAS-based cells
//
// The algorithm and its commentary: algo/universal.h.
#pragma once

#include "algo/rllsc.h"
#include "algo/universal.h"
#include "core/rllsc.h"
#include "env/sim_env.h"
#include "spec/spec.h"

namespace hi::core {

// perfbench/src/explore.h pins this name.
template <spec::SequentialSpec S,
          typename Cell = algo::CasRllscAlg<env::SimEnv>>
using Universal = algo::UniversalAlg<env::SimEnv, S, Cell>;

}  // namespace hi::core
