// Execution harness: drives workloads over a simulated implementation under
// a scheduling policy (through sim::Driver, which records the induced
// history H(α)), and records per-operation step counts (for the progress
// checks) and memory observations at the observation points of the three HI
// notions (Definitions 5, 7, 8).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/driver.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "spec/spec.h"
#include "util/rng.h"
#include "verify/history.h"

namespace hi::sim {

/// One memory observation: the configuration's memory representation plus
/// the abstract state reported by the caller-supplied oracle.
struct Observation {
  std::uint64_t at_step = 0;
  std::uint64_t state = 0;
  MemorySnapshot mem;
};

template <hi::spec::SequentialSpec S, typename Impl>
  requires SimImplementation<Impl, S>
class Runner {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  using Hist = verify::History<Op, Resp>;

  struct Options {
    std::uint64_t seed = 1;
    bool round_robin = false;
    /// Relative weight of invoking a new operation vs. granting a step, in
    /// the random policy. Lower start weight ⇒ less overlap, more
    /// (state-)quiescent points; higher ⇒ deeper concurrency.
    unsigned start_weight = 1;
    unsigned step_weight = 3;
    /// Abort the run (result.timed_out) if it exceeds this many steps —
    /// guards tests against livelock in lock-free-only algorithms.
    std::uint64_t max_steps = 5'000'000;
    /// When non-null, every scheduling event of the run is appended as a
    /// TraceStep — the deterministic re-execution recipe the replay harness
    /// (verify/replay.h) marches a hardware-atomics instantiation through.
    ScheduleTrace* trace = nullptr;
  };

  struct Result {
    Hist history;
    std::vector<Observation> state_quiescent;
    std::vector<Observation> quiescent;
    std::vector<std::uint64_t> op_steps;  // parallel to history entries
    std::uint64_t total_steps = 0;
    bool timed_out = false;
  };

  /// `state_oracle` reports the abstract state (encoded) of the object at a
  /// (state-)quiescent configuration, given the history recorded so far; see
  /// tests for per-implementation oracles (single-writer replay, head
  /// decoding, ...). It is only invoked at state-quiescent or quiescent
  /// configurations.
  using StateOracle = std::function<std::uint64_t(const Hist&)>;

  Runner(const S& spec, Memory& memory, Scheduler& sched, Impl& impl,
         StateOracle state_oracle)
      : spec_(spec),
        memory_(memory),
        sched_(sched),
        impl_(impl),
        state_oracle_(std::move(state_oracle)) {}

  /// Run the per-process workloads to completion under the policy.
  Result run(const std::vector<std::vector<Op>>& workload, Options opt) {
    const int n = sched_.num_processes();
    assert(static_cast<int>(workload.size()) <= n);

    Result result;
    Driver<S, Impl> driver(spec_, sched_, impl_, workload);
    std::vector<std::uint64_t> steps_at_start(n, 0);  // per-op step counts
    util::Xoshiro256 rng(opt.seed);
    sched_.record_to(opt.trace);
    observe(result, driver);  // the initial configuration is quiescent

    int rr_cursor = 0;
    for (;;) {
      if (sched_.total_steps() > opt.max_steps) {
        result.timed_out = true;
        break;
      }
      // Enumerate enabled events.
      startable_.clear();
      steppable_.clear();
      for (int pid = 0; pid < n; ++pid) {
        if (driver.can_step(pid)) {
          steppable_.push_back(pid);
        } else if (driver.can_start(pid)) {
          startable_.push_back(pid);
        }
      }
      if (startable_.empty() && steppable_.empty()) break;  // all done

      int pid;
      bool do_start;
      if (opt.round_robin) {
        pid = -1;
        for (int probe = 0; probe < n; ++probe) {
          const int cand = (rr_cursor + probe) % n;
          if (driver.can_step(cand) || driver.can_start(cand)) {
            pid = cand;
            break;
          }
        }
        assert(pid >= 0);
        rr_cursor = (pid + 1) % n;
        do_start = driver.can_start(pid);
      } else {
        const std::uint64_t start_total =
            static_cast<std::uint64_t>(startable_.size()) * opt.start_weight;
        const std::uint64_t step_total =
            static_cast<std::uint64_t>(steppable_.size()) * opt.step_weight;
        const std::uint64_t pick = rng.next_below(start_total + step_total);
        if (pick < start_total) {
          pid = startable_[pick / opt.start_weight];
          do_start = true;
        } else {
          pid = steppable_[(pick - start_total) / opt.step_weight];
          do_start = false;
        }
      }

      bool completed;
      if (do_start) {
        completed = driver.start(pid);
        steps_at_start[pid] = sched_.steps_of(pid);
      } else {
        completed = driver.step(pid);
      }
      if (completed) {
        result.op_steps.resize(driver.history().size(), 0);
        result.op_steps[driver.op_index(pid)] =
            sched_.steps_of(pid) - steps_at_start[pid];
      }
      observe(result, driver);
    }
    sched_.record_to(nullptr);
    result.history = driver.history();
    result.total_steps = sched_.total_steps();
    return result;
  }

 private:
  void observe(Result& result, const Driver<S, Impl>& driver) {
    if (driver.state_changing_pending() > 0) return;  // not state-quiescent
    Observation obs;
    obs.at_step = sched_.total_steps();
    obs.state = state_oracle_(driver.history());
    obs.mem = memory_.snapshot();
    if (driver.pending() == 0) result.quiescent.push_back(obs);
    result.state_quiescent.push_back(std::move(obs));
  }

  const S& spec_;
  Memory& memory_;
  Scheduler& sched_;
  Impl& impl_;
  StateOracle state_oracle_;
  std::vector<int> startable_;
  std::vector<int> steppable_;
};

/// Run a single operation solo (no other process takes steps) and return its
/// result — used to build canonical maps from sequential executions and for
/// end-of-run probes.
template <typename T>
T run_solo(Scheduler& sched, int pid, OpTask<T> task) {
  sched.start(pid, task);
  while (sched.runnable(pid)) sched.step(pid);
  assert(sched.op_finished(pid));
  sched.finish(pid);
  return task.take_result();
}

}  // namespace hi::sim
