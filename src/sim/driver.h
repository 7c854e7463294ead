// The sim process driver: the one place where scheduling decisions — start
// p's next operation, grant p one step, crash p — become the history H(α)
// they induce (§2). It keeps each process's live OpTask, its next-op cursor
// into a fixed per-process workload and the history index of its pending
// operation, reaps an operation into the history as it completes, and counts
// pending and state-changing-pending operations (the (state-)quiescent
// observation points). The Runner, the Explorer, the replay differential,
// the crash drains and the starvation adversary all drive processes through
// it and add only their own policy.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>
#include <optional>
#include <vector>

#include "sim/scheduler.h"
#include "sim/task.h"
#include "spec/spec.h"
#include "verify/history.h"

namespace hi::sim {

/// A sim implementation of spec S: spawns the coroutine for one high-level
/// operation executed by process `pid`.
template <typename Impl, typename S>
concept SimImplementation =
    hi::spec::SequentialSpec<S> &&
    requires(Impl impl, int pid, typename S::Op op) {
      { impl.apply(pid, op) } -> std::same_as<OpTask<typename S::Resp>>;
    };

template <hi::spec::SequentialSpec S, typename Impl>
  requires SimImplementation<Impl, S>
class Driver {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  using Hist = verify::History<Op, Resp>;

  /// `workload[pid]` is pid's operation sequence in invocation order (pids
  /// past its end have none). It is read at each start, so it must outlive
  /// the driver, and a caller may append to a pid's sequence as it goes.
  Driver(const S& spec, Scheduler& sched, Impl& impl,
         const std::vector<std::vector<Op>>& workload)
      : spec_(spec),
        sched_(sched),
        impl_(impl),
        workload_(workload),
        procs_(static_cast<std::size_t>(sched.num_processes())) {}
  Driver(const S&, Scheduler&, Impl&, std::vector<std::vector<Op>>&&) = delete;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Abandons every operation still pending — crashed ones, and those a
  /// truncated schedule leaves mid-flight — and frees their frames.
  ~Driver() {
    for (int pid = 0; pid < static_cast<int>(procs_.size()); ++pid) {
      if (procs_[pid].task.has_value()) {
        sched_.abandon(pid);
        procs_[pid].task.reset();
      }
    }
  }

  /// Idle, not crashed, and the workload has an operation left.
  bool can_start(int pid) const {
    const Proc& p = procs_[pid];
    return !p.task.has_value() && !sched_.crashed(pid) &&
           static_cast<std::size_t>(pid) < workload_.size() &&
           p.next_op < workload_[pid].size();
  }
  /// Mid-operation and runnable (hence not crashed).
  bool can_step(int pid) const {
    return procs_[pid].task.has_value() && sched_.runnable(pid);
  }
  /// The crash an enumerating adversary considers: at a mid-operation
  /// primitive boundary. (crash() itself also accepts an idle pid.)
  bool can_crash(int pid) const { return can_step(pid); }

  /// Invoke pid's next operation. Returns whether it completed — a
  /// zero-primitive operation (an absorbed WriteMax) responds at its
  /// invocation.
  bool start(int pid) {
    assert(can_start(pid));
    Proc& p = procs_[pid];
    const Op& op = workload_[pid][p.next_op++];
    p.index = history_.invoke(pid, op);
    ++pending_;
    if (!spec_.is_read_only(op)) ++state_changing_pending_;
    p.task.emplace(impl_.apply(pid, op));
    sched_.start(pid, *p.task);
    return reap(pid);
  }

  /// Grant pid one primitive step. Returns whether its operation completed.
  bool step(int pid) {
    assert(can_step(pid));
    sched_.step(pid);
    return reap(pid);
  }

  /// Crash-fail pid (Scheduler::crash): it never moves again. A pending
  /// operation stays in the history without a response and counts in
  /// pending(). Completes nothing, so it returns false.
  bool crash(int pid) {
    sched_.crash(pid);
    return false;
  }

  Scheduler& scheduler() const { return sched_; }
  const Hist& history() const { return history_; }
  /// History index of pid's pending or most recently invoked operation.
  std::size_t op_index(int pid) const { return procs_[pid].index; }
  /// Invoked operations without a response (crashed ones included).
  int pending() const { return pending_; }
  int state_changing_pending() const { return state_changing_pending_; }

 private:
  struct Proc {
    std::optional<OpTask<Resp>> task;
    std::size_t next_op = 0;
    std::size_t index = 0;
  };

  bool reap(int pid) {
    Proc& p = procs_[pid];
    if (!sched_.op_finished(pid)) return false;
    history_.respond(p.index, p.task->take_result());
    sched_.finish(pid);
    p.task.reset();
    --pending_;
    if (!spec_.is_read_only(history_[p.index].op)) --state_changing_pending_;
    return true;
  }

  const S& spec_;
  Scheduler& sched_;
  Impl& impl_;
  const std::vector<std::vector<Op>>& workload_;
  std::vector<Proc> procs_;
  Hist history_;
  int pending_ = 0;
  int state_changing_pending_ = 0;
};

}  // namespace hi::sim
