// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <universal_combine|sharded_store|explore>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--inject <fault>] [--watchdog-s <s>] [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans and
// prints the per-layer metrics (see README.md). Either way the last stdout
// line is {"correct", "attempted", "failed", "metrics"}; the line before it
// is the full report with provenance. Exit status: 0 when every oracle
// held, 1 when one failed, 3 when the watchdog found a stuck op.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "common.h"
#include "explore.h"
#include "sharded_store.h"
#include "universal_combine.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

// The metric names BENCHMARK.json declares, in its order.
const char* const kEndToEnd[] = {"setup_s",         "throughput_ops_s",
                                 "latency_p50_us",  "latency_p99_us",
                                 "mem_bytes",       "rss_peak_mb"};
const char* const kPerLayer[] = {
    "driver.clock_ns",         "driver.null_op_ns",
    "prim.cas16_shared_ns",    "prim.cas16_private_ns",
    "prim.load16_shared_ns",   "prim.cas16_fail_frac",
    "prim.cas16_lock_free",    "prim.rmw64_shared_ns",
    "prim.rmw64_private_ns",   "prim.load64_shared_ns",
    "rllsc.ll_sc_ns",          "rllsc.sc_fail_frac",
    "env.frames_per_op",       "env.fresh_slabs",
    "env.allocs_per_op",       "universal.update_ns",
    "universal.read_ns",       "universal.batch_size_mean",
    "set.insert_ns",           "set.remove_ns",
    "set.lookup_ns",           "set.audit_words_per_us",
    "set.shard_skew",          "explore.naive_s",
    "explore.dpor_s",          "explore.executions",
    "explore.configurations",  "explore.factory_calls",
    "explore.factory_s",       "explore.lincheck_s",
    "trace.overhead_frac"};

struct Workload {
  const char* name;
  int threads;
  bool wants_filler;  // see idle_fillers()
  int setup_trials;   // set-ups an untraced run times; setup_s is the median
  Outcome (*run)(const RunConfig&);
};
const Workload kWorkloads[] = {
    {"universal_combine", kUniversalClients, kUniversalWantsFiller, 320,
     run_universal_combine},
    {"sharded_store", kStoreClients, kStoreWantsFiller, 128, run_sharded_store},
    {"explore", 1, false, 101, run_explore},
};

struct Args {
  std::string workload;
  std::string trace_dir = ".";
  RunConfig cfg;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.cfg.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.cfg.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.cfg.traced = v == "1";
    } else if (flag == "--watchdog-s") {
      a.cfg.watchdog_s = std::stod(v);
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else if (flag == "--inject") {
      if (v == "none") {
        a.cfg.inject = Inject::kNone;
      } else if (v == "corrupt_count") {
        a.cfg.inject = Inject::kCorruptCount;
      } else if (v == "flip_image_bit") {
        a.cfg.inject = Inject::kFlipImageBit;
      } else if (v == "wrong_pin") {
        a.cfg.inject = Inject::kWrongPin;
      } else if (v == "hang") {
        a.cfg.inject = Inject::kHang;
      } else {
        usage(("unknown fault " + v).c_str());
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

std::string provenance(const Workload& w, std::uint64_t seed) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const Counter spec(kCounterMax, kCounterInitial);
  const Universal probe(spec, 1, true, true);
  std::string out = "{\"nproc\": " + std::to_string(nproc) +
                    ", \"compiler\": \"" + __VERSION__ + "\", \"flags\": \"" +
                    PERFBENCH_CXX_FLAGS + "\", \"universal_is_lock_free\": " +
                    (probe.is_lock_free() ? "true" : "false") +
                    ", \"threads\": " + std::to_string(w.threads) +
                    ", \"idle_fillers\": " +
                    std::to_string(idle_fillers(w.threads, w.wants_filler)) +
                    ", \"seed\": " + std::to_string(seed) + ", \"comparable\": " +
                    (static_cast<unsigned>(w.threads) <= nproc ? "true" : "false") +
                    "}";
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(metrics).c_str());
  std::fflush(stdout);
}

/// Picks `names` out of `from` in order; false if one is missing.
bool select(const Metrics& from, const char* const* names, std::size_t count,
            std::vector<Metric>& out) {
  bool complete = true;
  for (std::size_t i = 0; i < count; ++i) {
    if (const Metric* m = from.find(names[i])) {
      out.push_back(*m);
    } else {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", names[i]);
      complete = false;
    }
  }
  return complete;
}

int run_untraced(const Workload& w, RunConfig cfg) {
  cfg.setup_trials = w.setup_trials;
  const DriverFloor floor = measure_driver_floor(w.threads);
  Outcome o = w.run(cfg);
  o.e2e.set("rss_peak_mb", rss_peak_mb(), "MB");

  // A latency within 2x of the driver's own per-op floor measures the
  // harness, not the object.
  const double p50_ns = o.e2e.find("latency_p50_us")->value * 1e3;
  std::string report = "{\"workload\": \"" + std::string(w.name) +
                       "\", \"trace\": false, \"provenance\": " +
                       provenance(w, cfg.seed) +
                       ", \"e2e\": " + json_metrics(o.e2e.items()) +
                       ", \"failed_frac\": " +
                       json_number(static_cast<double>(o.failed) /
                                   static_cast<double>(o.attempted)) +
                       ", \"driver_clock_ns\": " + json_number(floor.clock_ns) +
                       ", \"driver_null_op_ns\": " + json_number(floor.null_op_ns) +
                       ", \"latency_harness_bound\": " +
                       (p50_ns < 2 * floor.null_op_ns ? "true" : "false");
  for (const auto& [key, value] : o.notes) report += ", \"" + key + "\": " + value;
  std::printf("%s}\n", report.c_str());

  // A percentile with fewer than kMinBeyond samples beyond it, even over
  // the whole run, is not a measurement: the run is incorrect.
  for (const std::string& name : o.unsupported) {
    std::fprintf(stderr,
                 "perfbench: %s has fewer than %llu samples beyond it; "
                 "run longer\n",
                 name.c_str(), static_cast<unsigned long long>(kMinBeyond));
  }
  std::vector<Metric> metrics;
  const bool complete = select(o.e2e, kEndToEnd, std::size(kEndToEnd), metrics);
  const bool correct = complete && o.failed == 0 && o.unsupported.empty();
  print_result(correct, o.attempted, o.failed, metrics);
  return correct ? 0 : 1;
}

/// Throughput of a run, the figure the tracing overhead is taken from.
double throughput(const Outcome& o) {
  return o.e2e.find("throughput_ops_s")->value;
}

int run_traced(const Workload& w, RunConfig cfg, const std::string& trace_dir) {
  Tracer tracer;
  Metrics layer;
  std::uint64_t attempted = 0, failed = 0;
  const auto absorb = [&](const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const Metric& m : o.layer.items()) {
      if (layer.find(m.name) == nullptr) layer.set(m.name, m.value, m.unit);
    }
  };

  // Calibration at the workload's own thread count.
  const DriverFloor floor = measure_driver_floor(w.threads);
  layer.set("driver.clock_ns", floor.clock_ns, "ns");
  layer.set("driver.null_op_ns", floor.null_op_ns, "ns");
  calibrate_primitives(w.threads, layer);
  calibrate_rllsc(w.threads, layer);

  // The target workload: a short untraced pass, then the traced pass; the
  // throughput difference is the tracing overhead.
  RunConfig plain = cfg;
  plain.traced = false;
  plain.seconds = cfg.seconds / 4;
  const Outcome untraced = w.run(plain);
  attempted += untraced.attempted;
  failed += untraced.failed;
  RunConfig traced = cfg;
  traced.tracer = &tracer;
  traced.seconds = cfg.seconds - plain.seconds;
  const Outcome target = w.run(traced);
  absorb(target);
  layer.set("trace.overhead_frac", 1.0 - throughput(target) / throughput(untraced),
            "frac");

  // Layers the target does not drive come from a short traced probe of the
  // workload that does, so every traced run reports every layer.
  for (const Workload& other : kWorkloads) {
    if (&other == &w) continue;
    RunConfig probe = cfg;
    probe.tracer = &tracer;
    probe.seconds = 2;
    absorb(other.run(probe));
  }

  const std::string path = trace_dir + "/trace-" + w.name + "-seed" +
                           std::to_string(cfg.seed) + ".json";
  const bool written = tracer.write(path);
  std::printf("{\"workload\": \"%s\", \"trace\": true, \"provenance\": %s, "
              "\"trace_file\": \"%s\", \"trace_written\": %s}\n",
              w.name, provenance(w, cfg.seed).c_str(), path.c_str(),
              written ? "true" : "false");

  std::vector<Metric> metrics;
  const bool complete = select(layer, kPerLayer, std::size(kPerLayer), metrics);
  const bool correct = complete && written && failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

[[noreturn]] void watchdog_abort(const char* workload, int worker,
                                 std::uint64_t ops_done, double stalled_s) {
  std::fprintf(stderr,
               "perfbench: watchdog: %s worker %d made no progress for %.1f s "
               "after %llu ops; counting its op as failed\n",
               workload, worker, stalled_s,
               static_cast<unsigned long long>(ops_done));
  print_result(false, 1, 1, {});
  std::_Exit(3);  // the stuck thread cannot be joined
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    return args.cfg.traced ? run_traced(w, args.cfg, args.trace_dir)
                           : run_untraced(w, args.cfg);
  }
  usage(("unknown workload '" + args.workload + "'").c_str());
}
