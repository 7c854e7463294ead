// Workload explore: single-threaded verification. A naive exhaustive
// exploration of the wait-free-simulation slow pair (write(2) ‖ read,
// fast_limit=0), then a DPOR exploration of the combining universal
// inc ‖ inc at depth 36, with a linearizability check on every complete
// execution. Exercises sim/, env/sim_env.h, prefix re-execution, DPOR
// bookkeeping and verify/linearizability.h; no rt layer.
//
// The benchmark supplies each explorer's factory and completion callback,
// so it counts and times both from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "core/universal.h"
#include "core/wait_free_sim.h"
#include "sim/explorer.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"
#include "verify/linearizability.h"

namespace perfbench {

/// The naive system: 2 processes, every read forced onto the slow path.
struct WfsSlowPair {
  hi::spec::RegisterSpec spec{2, 1};
  hi::sim::Memory mem;
  hi::sim::Scheduler sched{2};
  hi::core::WaitFreeSimHiRegister impl{mem, spec, /*writer_pid=*/0,
                                       /*reader_pid=*/1, /*fast_limit=*/0};
  hi::sim::Scheduler& scheduler() { return sched; }
  hi::sim::Memory& memory() { return mem; }
  hi::sim::OpTask<std::uint32_t> apply(int pid, hi::spec::RegisterSpec::Op op) {
    return impl.apply(pid, op);
  }
};

/// The DPOR system: the 2-process combining universal counter over native
/// R-LLSC cells.
struct CombineCounterPair {
  hi::spec::CounterSpec spec{1u << 20, 10};
  hi::sim::Memory mem;
  hi::sim::Scheduler sched{2};
  hi::core::Universal<hi::spec::CounterSpec, hi::core::NativeRllsc> impl{
      mem, spec, /*num_processes=*/2, /*clear_contexts=*/true,
      /*combine=*/true};
  hi::sim::Scheduler& scheduler() { return sched; }
  hi::sim::Memory& memory() { return mem; }
  hi::sim::OpTask<std::uint32_t> apply(int pid, hi::spec::CounterSpec::Op op) {
    return impl.apply(pid, op);
  }
};

/// Pinned outcome of one exploration: exhausted, no linearizability
/// failure, and exactly these counts on every run.
struct ExplorePin {
  std::uint64_t complete;
  std::uint64_t truncated;
  std::uint64_t pruned;
  std::uint64_t configurations;
};
inline constexpr ExplorePin kNaivePin{1'296'177, 0, 0, 2'214'203};
inline constexpr ExplorePin kDporPin{31'310, 18'446, 8, 141'461};

/// What the benchmark's factory and completion callback see.
struct ExploreProbe {
  bool traced = false;
  Inject inject = Inject::kNone;
  SpanLog* log = nullptr;
  Progress* progress = nullptr;
  Histogram gap_ns;  // between successive complete executions
  std::uint64_t prev = 0;
  std::uint64_t factory_calls = 0;
  std::uint64_t completions = 0;
  std::uint64_t lin_failures = 0;
};

struct ExploreRep {
  hi::sim::ExploreStats naive;
  hi::sim::ExploreStats dpor;
  double naive_s = 0;
  double dpor_s = 0;
};

template <typename Spec, typename System>
hi::sim::ExploreStats explore_one(
    const Spec& spec, std::vector<std::vector<typename Spec::Op>> work,
    hi::sim::ExploreLimits limits, ExploreProbe& p, double& seconds) {
  hi::sim::Explorer<Spec, System> explorer(
      spec,
      [&p] {
        ++p.factory_calls;
        p.progress->done.store(p.factory_calls, std::memory_order_relaxed);
        if (!p.traced) return std::make_unique<System>();
        const std::uint64_t t0 = now_ns();
        auto system = std::make_unique<System>();
        p.log->record(Span::kExploreFactory, t0, now_ns(),
                      static_cast<std::uint32_t>(p.completions));
        return system;
      },
      std::move(work));
  const std::uint64_t t0 = now_ns();
  p.prev = t0;
  const hi::sim::ExploreStats stats = explorer.explore(
      limits, nullptr, [&](System&, const auto& history) {
        const std::uint64_t start = now_ns();
        const bool ok = hi::verify::check_linearizable(spec, history).ok();
        const std::uint64_t end = now_ns();
        if (p.traced) {
          p.log->record(Span::kExploreLincheck, start, end,
                        static_cast<std::uint32_t>(p.completions));
        }
        if (!ok) ++p.lin_failures;
        p.gap_ns.record(end - p.prev);
        p.prev = end;
        if (++p.completions == 1000 && p.inject == Inject::kHang) {
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        }
      });
  const std::uint64_t t1 = now_ns();
  seconds = static_cast<double>(t1 - t0) * 1e-9;
  if (p.traced) {
    p.log->record(limits.mode == hi::sim::ExploreMode::kNaive
                      ? Span::kExploreNaive
                      : Span::kExploreDpor,
                  t0, t1, 0);
  }
  return stats;
}

inline ExploreRep explore_rep(ExploreProbe& p) {
  using hi::spec::CounterSpec;
  using hi::spec::RegisterSpec;
  ExploreRep rep;
  const RegisterSpec reg(2, 1);
  rep.naive = explore_one<RegisterSpec, WfsSlowPair>(
      reg, {{RegisterSpec::write(2)}, {RegisterSpec::read()}},
      {.max_depth = 128, .max_executions = 2'000'000,
       .mode = hi::sim::ExploreMode::kNaive},
      p, rep.naive_s);
  const CounterSpec counter(1u << 20, 10);
  rep.dpor = explore_one<CounterSpec, CombineCounterPair>(
      counter, {{CounterSpec::inc()}, {CounterSpec::inc()}},
      {.max_depth = 36, .max_executions = 400'000,
       .mode = hi::sim::ExploreMode::kDpor},
      p, rep.dpor_s);
  return rep;
}

inline bool pin_holds(const hi::sim::ExploreStats& s, const ExplorePin& pin) {
  return s.exhausted && s.executions_complete == pin.complete &&
         s.executions_truncated == pin.truncated &&
         s.executions_pruned == pin.pruned &&
         s.configurations == pin.configurations;
}

inline std::uint64_t walks(const hi::sim::ExploreStats& s) {
  return s.executions_complete + s.executions_truncated + s.executions_pruned;
}

/// Set-up of one exploration pair: build both explorers' first systems.
inline double explore_setup_once() {
  const std::uint64_t t0 = now_ns();
  const auto a = std::make_unique<WfsSlowPair>();
  const auto b = std::make_unique<CombineCounterPair>();
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) * 1e-9;
}

inline Outcome run_explore(const RunConfig& cfg) {
  std::vector<double> setups;
  for (int i = 0; i < cfg.setup_trials; ++i) setups.push_back(explore_setup_once());

  std::vector<Progress> progress(1);
  ExploreProbe probe;
  probe.traced = cfg.traced;
  probe.inject = cfg.inject;
  probe.progress = &progress[0];
  if (cfg.traced) probe.log = cfg.tracer->new_log();
  std::vector<ExploreRep> reps;
  // Repeat whole exploration pairs while another fits in the run's time.
  std::thread worker([&] {
    const std::uint64_t t0 = now_ns();
    do {
      reps.push_back(explore_rep(probe));
    } while (static_cast<double>(now_ns() - t0) * 1e-9 +
                 reps.back().naive_s + reps.back().dpor_s <=
             cfg.seconds);
    progress[0].finished.store(true, std::memory_order_release);
  });
  Watchdog("explore", progress, cfg.watchdog_s).watch_until(0);
  worker.join();

  Outcome o;
  ExplorePin naive_pin = kNaivePin;
  if (cfg.inject == Inject::kWrongPin) ++naive_pin.complete;
  std::vector<double> rates, naive_s, dpor_s, total_s;
  for (const ExploreRep& rep : reps) {
    o.failed += (pin_holds(rep.naive, naive_pin) ? 0 : 1) +
                (pin_holds(rep.dpor, kDporPin) ? 0 : 1);
    o.attempted += 2;
    naive_s.push_back(rep.naive_s);
    dpor_s.push_back(rep.dpor_s);
    total_s.push_back(rep.naive_s + rep.dpor_s);
    rates.push_back(static_cast<double>(walks(rep.naive) + walks(rep.dpor)) /
                    (rep.naive_s + rep.dpor_s));
  }
  o.attempted += probe.completions;
  o.failed += probe.lin_failures;

  const ExploreRep& last = reps.back();
  const WfsSlowPair naive_sys;
  const CombineCounterPair dpor_sys;
  const double mem_bytes =
      8.0 * static_cast<double>(naive_sys.mem.snapshot().words.size() +
                                dpor_sys.mem.snapshot().words.size());
  o.e2e.set("setup_s", median(setups), "s");
  o.e2e.set("throughput_ops_s", median(rates), "ops/s");
  o.set_percentile("latency_p50_us", percentile(probe.gap_ns, 0.50), 1e-3, "us");
  o.set_percentile("latency_p99_us", percentile(probe.gap_ns, 0.99), 1e-3, "us");
  o.e2e.set("mem_bytes", mem_bytes, "B");

  o.note("explore_s", median(total_s));
  o.note("naive_s", median(naive_s));
  o.note("dpor_s", median(dpor_s));
  o.note("reps", static_cast<double>(reps.size()));
  o.note("rep_s", total_s);
  o.note("naive_complete", static_cast<double>(last.naive.executions_complete));
  o.note("naive_configurations", static_cast<double>(last.naive.configurations));
  o.note("dpor_complete", static_cast<double>(last.dpor.executions_complete));
  o.note("dpor_truncated", static_cast<double>(last.dpor.executions_truncated));
  o.note("dpor_pruned", static_cast<double>(last.dpor.executions_pruned));
  o.note("dpor_configurations", static_cast<double>(last.dpor.configurations));
  o.note("lin_failures", static_cast<double>(probe.lin_failures));
  o.note("execution_samples", static_cast<double>(probe.gap_ns.count()));
  o.note("threads", 1);

  if (cfg.traced) {
    const SpanLog::Total factory = cfg.tracer->total(Span::kExploreFactory);
    const SpanLog::Total lincheck = cfg.tracer->total(Span::kExploreLincheck);
    const double n = static_cast<double>(reps.size());
    o.layer.set("explore.naive_s", median(naive_s), "s");
    o.layer.set("explore.dpor_s", median(dpor_s), "s");
    o.layer.set("explore.executions",
                static_cast<double>(walks(last.naive) + walks(last.dpor)), "count");
    o.layer.set("explore.configurations",
                static_cast<double>(last.naive.configurations +
                                    last.dpor.configurations),
                "count");
    o.layer.set("explore.factory_calls",
                static_cast<double>(probe.factory_calls) / n, "count");
    o.layer.set("explore.factory_s", static_cast<double>(factory.ns) * 1e-9 / n, "s");
    o.layer.set("explore.lincheck_s", static_cast<double>(lincheck.ns) * 1e-9 / n,
                "s");
  }
  return o;
}

}  // namespace perfbench
