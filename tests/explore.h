// The explore rung: the one exploration every exhaustive check in the
// step model goes through, and the loop over the table's explore rows.
// explore() checks linearizability on every complete history, and HI at
// every configuration the HI level makes observable (each one under
// kPerfect, the state-quiescent ones under kStateQuiescent, the quiescent
// ones under kQuiescent, and the initial one under all three): two
// configurations in one state must hold one memory. On request it collects
// history keys, so naive and DPOR runs compare as sets. Object-specific
// checks hook in through ExploreChecks.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "env/sim_env.h"
#include "objects.h"
#include "sim/explorer.h"
#include "sim_system.h"
#include "verify/hi_checker.h"
#include "verify/history.h"
#include "verify/linearizability.h"

namespace hi::testing {

/// A history entry with its operation and response encoded by the spec.
using EncodedOp = verify::HistoryOp<std::uint32_t, std::uint32_t>;

/// history_key's body over spec-encoded entries, compiled once whatever
/// the spec.
inline std::string encoded_key(const std::vector<EncodedOp>& entries) {
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Entries are in invocation order, so a stable sort by pid is enough.
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return entries[a].pid < entries[b].pid;
  });
  std::vector<std::size_t> label(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) label[order[i]] = i;

  std::ostringstream out;
  for (const std::size_t idx : order) {
    const EncodedOp& e = entries[idx];
    out << 'p' << e.pid << ':' << e.op << ':';
    if (e.completed()) {
      out << e.resp;
    } else {
      out << '?';
    }
    out << ';';
  }
  out << '|';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (i != j && entries[i].precedes(entries[j])) {
        out << label[i] << '<' << label[j] << ';';
      }
    }
  }
  return out.str();
}

/// Canonical key of a history: per-operation (pid, encoded op, encoded
/// response or '?' for a pending one) labelled in (pid, invocation order)
/// order, plus the real-time precedence relation over those labels. It is
/// invariant under exactly the reorderings DPOR prunes (swaps of adjacent
/// independent events keep per-process order, responses and precedence),
/// so equal key sets across modes is the soundness check.
template <typename S, typename Hist>
std::string history_key(const S& spec, const Hist& hist) {
  std::vector<EncodedOp> encoded;
  encoded.reserve(hist.entries().size());
  for (const auto& e : hist.entries()) {
    encoded.push_back({e.pid, spec.encode_op(e.op),
                       e.completed() ? spec.encode_resp(e.resp) : 0u,
                       e.invoked_at, e.responded_at});
  }
  return encoded_key(encoded);
}

/// The encoded state the completed state-changing operations reach in
/// completion order: the abstract state of an observable configuration
/// when operations take effect at their last step (set ops are one
/// primitive, the single writer's writes complete in program order,
/// counter updates commute). A selection pass, not a sort: it runs at
/// every observed configuration.
template <typename S, typename Hist>
std::uint64_t completed_state(const S& spec, const Hist& hist) {
  auto state = spec.initial_state();
  const typename Hist::Entry* last = nullptr;
  for (;;) {
    const typename Hist::Entry* next = nullptr;
    for (const auto& e : hist.entries()) {
      if (e.completed() && !spec.is_read_only(e.op) &&
          (last == nullptr || e.responded_at > last->responded_at) &&
          (next == nullptr || e.responded_at < next->responded_at)) {
        next = &e;
      }
    }
    if (next == nullptr) return spec.encode_state(state);
    state = spec.apply(state, next->op).first;
    last = next;
  }
}

/// Whether a configuration with `pending` invoked-but-unanswered ops, of
/// which `state_changing` may change the state, is observable at `level`.
inline bool observable(HiLevel level, int pending, int state_changing) {
  return level == HiLevel::kPerfect ||
         (level == HiLevel::kStateQuiescent && state_changing == 0) ||
         (level == HiLevel::kQuiescent && pending == 0);
}

/// What an exploration checks beyond linearizability.
template <typename S, typename System>
struct ExploreChecks {
  using Hist = verify::History<typename S::Op, typename S::Resp>;
  /// The configurations the HI checker observes.
  HiLevel hi = HiLevel::kNone;
  /// The abstract state of an observed configuration; null:
  /// completed_state.
  std::function<std::uint64_t(System&, const Hist&)> state_of;
  /// Object-specific checks at every configuration (pending and
  /// state-changing pending counts as for `observable`) and at every
  /// complete execution (with its decision path).
  std::function<void(System&, const Hist&, int, int)> observe;
  std::function<void(System&, const Hist&, const std::vector<sim::Decision>&)>
      complete;
  /// Collect every complete history's key.
  bool keys = false;
};

/// What one exploration found, whatever the system: the checks below read
/// only this, so they are compiled once rather than per system.
struct ExploreOutcome {
  sim::ExploreStats stats;
  std::uint64_t lin_failures = 0;
  verify::HiChecker hi;
  std::set<std::string> keys;
};

template <typename S, typename System>
struct Explored : ExploreOutcome {
  /// The explorer itself, for trace_of / try_execute after the run. Its
  /// spec is the caller's, which must outlive it.
  std::unique_ptr<sim::Explorer<S, System>> explorer;
};

/// The one exploration: every schedule of `work` over systems from
/// `factory`, within `limits`, checked as the file comment says.
template <typename System, typename S>
Explored<S, System> explore(
    const S& spec,
    typename sim::Explorer<S, System>::Factory factory,
    std::vector<std::vector<typename S::Op>> work,
    const sim::ExploreLimits& limits,
    const ExploreChecks<S, System>& checks = {}) {
  using Hist = typename ExploreChecks<S, System>::Hist;
  Explored<S, System> out;
  const auto state_of = [&](System& sys, const Hist& hist) {
    return checks.state_of ? checks.state_of(sys, hist)
                           : completed_state(spec, hist);
  };
  out.explorer = std::make_unique<sim::Explorer<S, System>>(
      spec, std::move(factory), std::move(work));
  const sim::Explorer<S, System>& explorer = *out.explorer;
  typename sim::Explorer<S, System>::Observer observer;
  if (checks.hi != HiLevel::kNone || checks.observe) {
    observer = [&](System& sys, const Hist& hist, int pending,
                   int state_changing) {
      if (observable(checks.hi, pending, state_changing)) {
        out.hi.observe(state_of(sys, hist), sys.memory().snapshot(),
                       "explored");
      }
      if (checks.observe) checks.observe(sys, hist, pending, state_changing);
    };
  }
  out.stats = out.explorer->explore(
      limits, std::move(observer), [&](System& sys, const Hist& hist) {
        if (checks.keys) out.keys.insert(history_key(spec, hist));
        if (!verify::check_linearizable(spec, hist).ok()) ++out.lin_failures;
        if (checks.complete) {
          checks.complete(sys, hist, explorer.current_prefix());
        }
      });
  return out;
}

/// The rung's verdict on one run: no linearizability failure, consistent
/// HI observations, the cap hit exactly when `exhausts` is false, and at
/// least `min_complete` complete executions.
inline void expect_clean(const ExploreOutcome& out, bool exhausts,
                         std::uint64_t min_complete,
                         std::string_view name = "") {
  EXPECT_EQ(out.stats.exhausted, exhausts)
      << name << (exhausts ? ": hit the execution cap"
                           : ": exhausted a tree the cap should cut");
  EXPECT_EQ(out.lin_failures, 0u) << name;
  EXPECT_TRUE(out.hi.consistent())
      << name << ": " << out.hi.violation()->message();
  EXPECT_GE(out.stats.executions_complete, min_complete) << name;
}

// ---- the table's rows ----

/// The sim system of a table entry, built by E::make.
template <typename E>
using EntrySystem =
    SimSystem<typename E::Spec, typename E::template Impl<env::SimEnv>>;

template <typename E>
std::function<std::unique_ptr<EntrySystem<E>>()> entry_factory(
    const typename E::Spec& spec, int processes) {
  return [spec, processes] {
    return std::make_unique<EntrySystem<E>>(spec, processes,
                                            &E::template make<env::SimEnv>);
  };
}

/// The checks an entry's rows start from: its HI level, and its own state
/// read-back where it has one (objects.h, E::state).
template <typename E>
ExploreChecks<typename E::Spec, EntrySystem<E>> entry_checks() {
  ExploreChecks<typename E::Spec, EntrySystem<E>> checks{.hi = E::kHi};
  if constexpr (requires(const EntrySystem<E>& sys) { E::state(sys.impl); }) {
    checks.state_of = [](EntrySystem<E>& sys, const auto&) {
      return E::state(sys.impl);
    };
  }
  return checks;
}

/// A row's test name: <entry>_<label>.
template <typename Row>
std::string row_name(const Row& row) {
  return std::string(Row::Entry::kName) + "_" + std::string(row.label);
}

/// An object-specific check on a row: it installs its hooks on a mode's
/// checks and returns the verdict to run after that mode's exploration.
template <typename Row, typename E = typename Row::Entry>
using ExploreExtra = std::function<std::function<void()>(
    ExploreChecks<typename E::Spec, EntrySystem<E>>&)>;

/// Runs a plan's modes through `run` (mode, cap → outcome) and checks the
/// outcomes: each clean, and with `dpor` one history set in fewer DPOR
/// executions.
inline void check_modes(
    const ExplorePlan& plan,
    const std::function<ExploreOutcome(sim::ExploreMode, std::uint64_t)>&
        run) {
  const auto checked = [&](sim::ExploreMode mode, std::uint64_t cap) {
    ExploreOutcome out = run(mode, cap);
    const char* name = mode == sim::ExploreMode::kNaive ? "naive" : "dpor";
    expect_clean(out, plan.exhausts,
                 mode == sim::ExploreMode::kNaive ? plan.min_complete : 1,
                 name);
    // An exhausted row reaches the end of every schedule within max_depth.
    if (plan.exhausts) {
      EXPECT_EQ(out.stats.executions_truncated, 0u) << name;
    }
    return out;
  };
  const ExploreOutcome naive =
      checked(sim::ExploreMode::kNaive, plan.max_executions);
  if (plan.naive_executions != 0) {
    EXPECT_EQ(naive.stats.executions_complete, plan.naive_executions);
  }
  if (!plan.dpor) return;
  const ExploreOutcome dpor =
      checked(sim::ExploreMode::kDpor,
              plan.dpor_cap != 0 ? plan.dpor_cap : plan.max_executions);
  EXPECT_LT(dpor.stats.executions_complete, naive.stats.executions_complete)
      << "DPOR explored as many executions as naive DFS: no reduction";
  EXPECT_FALSE(naive.keys.empty());
  EXPECT_EQ(naive.keys, dpor.keys)
      << "DPOR pruned a non-equivalent interleaving (or invented one)";
  if (plan.dpor_cap != 0) {
    // The same cap DPOR exhausted under stops naive DFS short.
    EXPECT_FALSE(run(sim::ExploreMode::kNaive, plan.dpor_cap).stats.exhausted)
        << "the cap is no longer tight for naive DFS: shrink dpor_cap";
  }
}

/// Runs one explore row in each of its modes, with `extra` (if any) hooked
/// into each run.
template <typename Row>
void run_explore(const Row& row, const ExploreExtra<Row>& extra = nullptr) {
  using E = typename Row::Entry;
  const auto factory =
      entry_factory<E>(row.spec, static_cast<int>(row.work.size()));
  check_modes(row.plan, [&](sim::ExploreMode mode,
                            std::uint64_t cap) -> ExploreOutcome {
    auto checks = entry_checks<E>();
    checks.keys = row.plan.dpor;
    const std::function<void()> verdict = extra ? extra(checks) : nullptr;
    auto out = explore<EntrySystem<E>>(
        row.spec, factory, row.work,
        {.max_depth = row.plan.max_depth, .max_executions = cap, .mode = mode},
        checks);
    if (verdict) verdict();
    return std::move(out);
  });
}

}  // namespace hi::testing
