// SimEnv: the simulated asynchronous shared-memory backend of the Env
// abstraction (see env.h, sched_env.h and docs/ENV.md).
//
// SchedEnvT over the plain sim::BaseObject cells: every primitive is the
// cell's own Primitive awaiter, so one scheduler resume executes exactly
// one primitive (§2's step granularity) and mem(C) snapshots, object ids
// and primitive kinds are the cells' own — the HI checker, the adversaries
// and the exhaustive explorer all run over the single-source algorithms.
#pragma once

#include "algo/values.h"
#include "env/sched_env.h"
#include "sim/base_object.h"

namespace hi::env {

/// The simulator's cells; Value is the two-word R-LLSC payload, room for
/// the paper's unbounded abstract states.
struct SimCells {
  using Bin = sim::BinaryRegister;
  using Packed = sim::PackedWordCell;
  using Cas = sim::WideCasCell;
  using WordCell = sim::CasCell;
  using Value = algo::RllscValue;
};

using SimEnv = SchedEnvT<SimCells>;

static_assert(ExecutionEnv<SimEnv>);

}  // namespace hi::env
