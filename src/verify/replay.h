// Schedule-replay equivalence driver: march TWO instantiations of one
// single-source algorithm — the simulator's (SimEnv) and the
// hardware-atomics one (ReplayEnv) — through the SAME recorded schedule
// (sim/trace.h), in lockstep, and compare them after every event:
//
//   * the pending primitive (base-object id + kind) each side is about to
//     execute must match the trace annotation and each other;
//   * operations must complete at the same step, with equal responses
//     (compared via the spec's encode_resp);
//   * the caller-supplied memory comparator runs after every event —
//     snapshot_word_compare() for objects whose per-backend encodings are
//     bit-identical: the binary-register algorithms, the standalone R-LLSC,
//     and the universal constructions (every backend packs head/announce
//     cells through the shared Word64HeadCodec).
//
// This is the concurrency analogue of the sequential parity suite
// (tests/test_env_parity.cpp): any recorded sim interleaving — a random
// Runner run, an explorer Decision path, an adversary starvation schedule —
// becomes a step-exact differential test over real std::atomic operations,
// and a failing schedule pretty-prints as a TraceStep literal for a
// permanent regression test.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/driver.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "spec/spec.h"

namespace hi::verify {

/// Outcome of a differential replay. On divergence, `message` names the
/// first event at which the two backends disagreed and what differed.
struct ReplayReport {
  bool ok = true;
  std::size_t at = 0;  // index into trace.steps of the first divergence
  std::string message;
  std::uint64_t steps_executed = 0;
  std::uint64_t responses_compared = 0;
  std::uint64_t memory_checks = 0;
};

/// Word-for-word memory comparator: both systems' mem(C) snapshots must be
/// identical vectors. Use when the per-backend encodings coincide (binary
/// registers; the R-LLSC cell, whose replay encoding (value, 0, ctx)
/// matches the simulator's (lo, hi=0, ctx)).
inline auto snapshot_word_compare(const sim::Memory& sim_memory,
                                  const sim::Memory& replay_memory) {
  return [&sim_memory, &replay_memory]() -> std::optional<std::string> {
    if (sim_memory.snapshot() == replay_memory.snapshot()) {
      return std::nullopt;
    }
    return "mem(C) diverges:\n    sim:    " + sim_memory.dump() +
           "\n    replay: " + replay_memory.dump();
  };
}

/// March a sim-side and a replay-side instantiation through `trace`, each
/// driven by its own sim::Driver. `workload` is the per-process operation
/// sequence in invocation order — trace start events consume it per pid.
/// `compare` runs after every event: nullopt = equal, else a description of
/// the divergence. Operations a truncated trace leaves pending (adversary
/// schedules end mid-read) are abandoned on return.
template <spec::SequentialSpec S, typename SimImpl, typename ReplayImpl,
          typename CompareFn>
ReplayReport replay_differential(
    const S& spec, sim::Scheduler& sim_sched, SimImpl& sim_impl,
    sim::Scheduler& replay_sched, ReplayImpl& replay_impl,
    const std::vector<std::vector<typename S::Op>>& workload,
    const sim::ScheduleTrace& trace, CompareFn compare) {
  ReplayReport report;

  const auto fail = [&report](std::size_t at, std::string message) {
    report.ok = false;
    report.at = at;
    std::ostringstream out;
    out << "at trace step " << at << ": " << message;
    report.message = out.str();
  };
  const auto check_memory = [&](std::size_t at) {
    const std::optional<std::string> diff = compare();
    if (diff.has_value()) {
      fail(at, *diff);
      return false;
    }
    ++report.memory_checks;
    return true;
  };

  if (!check_memory(0)) return report;  // initial memories must agree

  const int num_processes = sim_sched.num_processes();
  if (replay_sched.num_processes() != num_processes) {
    fail(0, "process counts differ between the two systems");
    return report;
  }
  sim::Driver<S, SimImpl> sim_side(spec, sim_sched, sim_impl, workload);
  sim::Driver<S, ReplayImpl> replay_side(spec, replay_sched, replay_impl,
                                         workload);
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    const sim::TraceStep& event = trace.steps[i];
    // A corrupted trace (hand-persisted literals invite typos) must be
    // rejected cleanly, never indexed with.
    if (event.pid < 0 || event.pid >= num_processes) {
      fail(i, "trace names pid " + std::to_string(event.pid) + " but the "
              "systems have " + std::to_string(num_processes) + " processes");
      return report;
    }
    bool sim_done = false;
    bool replay_done = false;
    if (event.is_crash()) {
      // Crash events replay on both sides alike: the pid halts, its pending
      // operation (if any) never responds, and the lockstep march continues
      // over the survivors — so crashed schedules are differential tests
      // too (the post-crash survivor steps and memories must still agree).
      if (sim_sched.crashed(event.pid) || replay_sched.crashed(event.pid)) {
        fail(i, "trace crashes an already-crashed pid");
        return report;
      }
      sim_side.crash(event.pid);
      replay_side.crash(event.pid);
    } else if (event.start) {
      if (sim_sched.crashed(event.pid)) {
        fail(i, "trace starts an operation on p" + std::to_string(event.pid) +
                    ", which crashed earlier in the trace");
        return report;
      }
      if (!sim_side.can_start(event.pid) || !replay_side.can_start(event.pid)) {
        fail(i, "trace invokes an operation the workload does not provide");
        return report;
      }
      sim_done = sim_side.start(event.pid);
      replay_done = replay_side.start(event.pid);
    } else {
      if (!sim_side.can_step(event.pid)) {
        fail(i, "sim side has no runnable operation for the traced step");
        return report;
      }
      if (!replay_side.can_step(event.pid)) {
        fail(i, "replay side has no runnable operation — the backends "
                "completed the operation at different steps");
        return report;
      }
      // The sim re-execution must retrace the recorded annotation exactly
      // (determinism check), and the replay side must be about to execute
      // the SAME primitive on the SAME base object (equivalence check).
      const int sim_obj = sim_sched.pending_object(event.pid);
      const std::string_view sim_kind = sim_sched.pending_kind(event.pid);
      if (event.object >= 0 &&
          (sim_obj != event.object || sim_kind != event.kind)) {
        std::ostringstream out;
        out << "sim re-execution deviates from the recorded trace: pending ("
            << sim_obj << ", " << sim_kind << ") vs recorded ("
            << event.object << ", " << event.kind << ")";
        fail(i, out.str());
        return report;
      }
      const int replay_obj = replay_sched.pending_object(event.pid);
      const std::string_view replay_kind =
          replay_sched.pending_kind(event.pid);
      if (replay_obj != sim_obj || replay_kind != sim_kind) {
        std::ostringstream out;
        out << "pending primitive diverges: sim (" << sim_obj << ", "
            << sim_kind << ") vs replay (" << replay_obj << ", " << replay_kind
            << ")";
        fail(i, out.str());
        return report;
      }
      sim_done = sim_side.step(event.pid);
      replay_done = replay_side.step(event.pid);
      ++report.steps_executed;
    }

    if (sim_done != replay_done) {
      fail(i, sim_done
                  ? "sim operation completed but replay is still pending"
                  : "replay operation completed but sim is still pending");
      return report;
    }
    if (sim_done) {
      const std::uint32_t sim_word = spec.encode_resp(
          sim_side.history()[sim_side.op_index(event.pid)].resp);
      const std::uint32_t replay_word = spec.encode_resp(
          replay_side.history()[replay_side.op_index(event.pid)].resp);
      if (sim_word != replay_word) {
        std::ostringstream out;
        out << "response diverges for p" << event.pid << ": sim " << sim_word
            << " vs replay " << replay_word << " (encoded)";
        fail(i, out.str());
        return report;
      }
      ++report.responses_compared;
    }
    if (!check_memory(i)) return report;
  }
  return report;
}

/// Implementation wrapper that logs every invoked operation per pid while
/// forwarding to the wrapped implementation — how a workload is captured
/// from runs whose operations are chosen dynamically (the impossibility
/// adversaries), so the recorded schedule can be replayed from a fixed
/// per-process op sequence.
template <spec::SequentialSpec S, typename Impl>
class RecordingImpl {
 public:
  RecordingImpl(Impl& inner, std::vector<std::vector<typename S::Op>>& log)
      : inner_(inner), log_(log) {}

  sim::OpTask<typename S::Resp> apply(int pid, typename S::Op op) {
    log_[static_cast<std::size_t>(pid)].push_back(op);
    return inner_.apply(pid, op);
  }

 private:
  Impl& inner_;
  std::vector<std::vector<typename S::Op>>& log_;
};

}  // namespace hi::verify
