// SimEnv: the simulated asynchronous shared-memory backend of the Env
// abstraction (see env.h, sched_env.h and docs/ENV.md).
//
// SchedEnvT over sim::Cell<sim::Plain<W>>: every cell holds one plain word,
// every primitive is the Cell's own Primitive awaiter, so one scheduler
// resume executes exactly one primitive (§2's step granularity), and mem(C)
// snapshots, object ids and primitive kinds are the Cell's — the HI
// checker, the adversaries and the exhaustive explorer all run over the
// single-source algorithms.
#pragma once

#include <cstdint>

#include "algo/values.h"
#include "env/sched_env.h"
#include "sim/base_object.h"

namespace hi::env {

/// The simulator's cells; Value is the two-word R-LLSC payload, room for
/// the paper's unbounded abstract states.
struct SimCells {
  using Bin = sim::Cell<sim::Plain<std::uint8_t>>;
  using Packed = sim::Cell<sim::Plain<std::uint64_t>>;
  using Cas = sim::Cell<sim::Plain<algo::CtxWord<algo::RllscValue>>>;
  using WordCell = sim::Cell<sim::Plain<std::uint64_t>>;
  using Value = algo::RllscValue;
};

using SimEnv = SchedEnvT<SimCells>;

static_assert(ExecutionEnv<SimEnv>);

}  // namespace hi::env
