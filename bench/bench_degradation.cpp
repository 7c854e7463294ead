// Graceful degradation under stalled (crash-analog) threads: survivor
// throughput with k of n threads parked mid-operation, for the plain vs
// flat-combining universal construction and the wait-free simulation
// combinator vs the natively wait-free register (Alg 4).
//
// Rows in BENCH_degradation.json (k = 0 is the healthy baseline):
//   universal/plain_stall{k}of3    — lock-free universal, survivor incs
//   universal/combine_stall{k}of3  — flat-combining mode (stalls land right
//                                    after the announce store, BEFORE the
//                                    combining-record install — a stall
//                                    while holding the record blocks
//                                    survivors by design, the documented
//                                    limit in docs/FAULTS.md, and a bench
//                                    must not measure a hang)
//   wfs/sim_stall{k}of3            — combinator, writer survives, readers
//                                    stall (slow_path_entry_rate reported)
//   alg4/native_stall{k}of2        — natively wait-free control (rate 0.0).
//                                    Alg 4 is a SWSR register, so its sweep
//                                    is the 2-thread SWSR configuration:
//                                    k=1 stalls the one reader mid-scan and
//                                    measures the writer alone
//
// Stalling uses the FuzzEnv stall injector (env/fuzz_env.h): a stalled
// thread arms a deterministic park point a couple of primitive boundaries
// into its first operation and stays parked for the whole measured window —
// from the survivors' perspective it crash-failed mid-op, mid-announce.
// Every row (including the k = 0 baselines and the Alg 4 control) runs over
// FuzzEnv with the injector disarmed on survivor threads, which costs one
// predictable branch per primitive — identical across rows, so the k-sweeps
// compare apples to apples. Absolute numbers are therefore NOT comparable
// to the RtEnv suites (bench_universal_rt, bench_waitfree_sim); the signal
// here is the SHAPE: survivor throughput must stay > 0 at every k < n
// (tools/check_bench.py's degradation suite gates on it) and should degrade
// roughly with the survivor count, not collapse.
//
// allocs_per_op must be 0 on every row: FuzzEnv reuses RtEnv's frame-arena
// tasks, and a parked peer must not push survivors onto an allocating path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/universal.h"
#include "algo/wait_free_sim.h"
#include "env/fuzz_env.h"
#include "spec/counter_spec.h"
#include "util/alloc_probe.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hi {
namespace {

using env::FuzzEnv;
using FuzzPacked = env::PackedBins<FuzzEnv>;

constexpr int kThreads = 3;
constexpr std::uint32_t kValues = 64;

/// measure_throughput with the first `stalled` of `total_threads` threads
/// parked mid-operation: each stalled thread arms the deterministic stall
/// injector (no random perturbation — permille 0), runs ops until it parks
/// (right after its `stall_after`-th primitive boundary), and stays parked
/// for the whole measured window. Survivors warm up, wait until every
/// stalled thread is actually parked, then run the timed loop exactly like
/// util::measure_throughput. ops/sec counts SURVIVOR completions only;
/// `threads` still reports the total (that is the configured machine, k of
/// which the adversary seized).
template <typename OpFn>
util::BenchResult measure_with_stalls(std::string name, int total_threads,
                                      int stalled, std::uint64_t stall_after,
                                      std::size_t ops_per_thread, OpFn op) {
  using Clock = std::chrono::steady_clock;
  const int survivors = total_threads - stalled;
  const std::size_t warmup_ops = std::min<std::size_t>(ops_per_thread, 1024);

  env::StallGate gate;
  std::vector<std::thread> parked;
  parked.reserve(static_cast<std::size_t>(stalled));
  for (int tid = 0; tid < stalled; ++tid) {
    parked.emplace_back([&, tid] {
      env::YieldInjector::arm(0x9e0u + static_cast<std::uint64_t>(tid),
                              env::YieldPolicy{/*permille=*/0, 1, 1});
      env::YieldInjector::arm_stall(&gate, stall_after);
      // Runs until the injector parks it mid-op (the bound only matters if
      // the stall point were unreachable, which these workloads never hit).
      for (int i = 0; i < 8; ++i) op(tid, static_cast<std::size_t>(i));
      env::YieldInjector::disarm();
    });
  }
  // Survivors must measure against peers that are already "crashed".
  const auto stall_deadline = Clock::now() + std::chrono::seconds(2);
  while (gate.stalled.load(std::memory_order_acquire) < stalled &&
         Clock::now() < stall_deadline) {
    std::this_thread::yield();
  }
  if (gate.stalled.load(std::memory_order_acquire) < stalled) {
    std::fprintf(stderr, "bench_degradation: %s: only %d of %d threads "
                         "parked before the window\n",
                 name.c_str(), gate.stalled.load(), stalled);
  }

  std::vector<util::Samples> per_thread(static_cast<std::size_t>(survivors));
  std::vector<std::uint64_t> allocs(static_cast<std::size_t>(survivors), 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(survivors));
  for (int s = 0; s < survivors; ++s) {
    const int tid = stalled + s;
    pool.emplace_back([&, s, tid] {
      util::Samples& samples = per_thread[static_cast<std::size_t>(s)];
      samples.reserve(ops_per_thread);
      for (std::size_t i = 0; i < warmup_ops; ++i) op(tid, i);
      const util::AllocTally tally;
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const auto start = Clock::now();
        op(tid, i);
        const auto end = Clock::now();
        samples.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()));
      }
      allocs[static_cast<std::size_t>(s)] = tally.allocs();
    });
  }
  while (ready.load(std::memory_order_acquire) < survivors) {
  }
  const auto wall_start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& worker : pool) worker.join();
  const auto wall_end = Clock::now();
  gate.release_all();
  for (auto& worker : parked) worker.join();

  util::Samples merged;
  std::uint64_t total_allocs = 0;
  for (const util::Samples& samples : per_thread) merged.merge(samples);
  for (const std::uint64_t a : allocs) total_allocs += a;
  const double wall_sec =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(survivors);

  util::BenchResult result;
  result.name = std::move(name);
  result.threads = total_threads;
  result.ops_per_sec = wall_sec > 0 ? total_ops / wall_sec : 0.0;
  result.p50_ns = merged.percentile(0.5);
  result.p99_ns = merged.percentile(0.99);
  result.allocs_per_op =
      total_ops > 0 ? static_cast<double>(total_allocs) / total_ops : 0.0;
  return result;
}

void universal_rows(util::BenchReport& report, bool combine) {
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg =
      algo::UniversalAlg<FuzzEnv, spec::CounterSpec, algo::CasRllscAlg<FuzzEnv>>;
  for (int k = 0; k < kThreads; ++k) {
    Alg obj(FuzzEnv::Ctx{}, spec, kThreads, /*clear_contexts=*/true, combine);
    const std::string name = std::string("universal/") +
                             (combine ? "combine" : "plain") + "_stall" +
                             std::to_string(k) + "of" + std::to_string(kThreads);
    // stall_after = 1: FuzzEnv brackets each primitive with two injector
    // points, so the park lands right after the FIRST primitive of the
    // stalled inc — the announce store, safely before any combining-record
    // install (survivors help the orphaned announcement; they never wait on
    // the parked thread).
    auto result = measure_with_stalls(
        name, kThreads, k, /*stall_after=*/1, 30'000,
        [&](int tid, std::size_t) {
          benchmark::DoNotOptimize(
              obj.apply(tid, spec::CounterSpec::inc()).get());
        });
    result.bytes_per_object = obj.memory_bytes();
    if (combine && obj.batches_installed() > 0) {
      result.batch_size_mean =
          static_cast<double>(obj.ops_combined()) /
          static_cast<double>(obj.batches_installed());
    }
    report.add(std::move(result));
  }
}

void wfs_rows(util::BenchReport& report) {
  using Alg = algo::WaitFreeSimHiAlg<FuzzEnv, FuzzPacked>;
  for (int k = 0; k < kThreads; ++k) {
    Alg reg(FuzzEnv::Ctx{}, kValues, kValues / 2, /*num_processes=*/kThreads,
            /*fast_limit=*/1);
    reg.reset_stats();
    util::Xoshiro256 rng(41 + static_cast<std::uint64_t>(k));
    // The writer is the HIGHEST tid, so it survives every k < n; stalled
    // low tids park mid-read (crash-analog readers).
    auto result = measure_with_stalls(
        "wfs/sim_stall" + std::to_string(k) + "of" + std::to_string(kThreads),
        kThreads, k, /*stall_after=*/2, 30'000, [&](int tid, std::size_t) {
          if (tid == kThreads - 1) {
            (void)reg.write(tid,
                            static_cast<std::uint32_t>(rng.next_in(1, kValues)))
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read(tid).get());
          }
        });
    result.bytes_per_object = reg.memory_bytes();
    result.slow_path_entry_rate =
        reg.total_ops() > 0
            ? static_cast<double>(reg.slow_path_entries()) /
                  static_cast<double>(reg.total_ops())
            : 0.0;
    report.add(std::move(result));
  }
}

void alg4_rows(util::BenchReport& report) {
  // Alg 4 is SWSR: its sweep is the 2-thread configuration. tid 0 is the
  // reader (stalled when k = 1, parked mid-scan with its announce flag up);
  // tid 1 is the writer, whose help path (lines 11–15) is bounded, so it
  // stays wait-free against a reader that crashed mid-read.
  using Alg = algo::WaitFreeHiAlg<FuzzEnv, FuzzPacked>;
  constexpr int kSwsr = 2;
  for (int k = 0; k < kSwsr; ++k) {
    Alg reg(FuzzEnv::Ctx{}, kValues, kValues / 2);
    util::Xoshiro256 rng(51 + static_cast<std::uint64_t>(k));
    auto result = measure_with_stalls(
        "alg4/native_stall" + std::to_string(k) + "of" + std::to_string(kSwsr),
        kSwsr, k, /*stall_after=*/2, 30'000, [&](int tid, std::size_t) {
          if (tid == kSwsr - 1) {
            (void)reg.write(static_cast<std::uint32_t>(rng.next_in(1, kValues)))
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read().get());
          }
        });
    result.bytes_per_object = reg.memory_bytes();
    result.slow_path_entry_rate = 0.0;  // natively wait-free: no slow path
    report.add(std::move(result));
  }
}

void emit_bench_json() {
  util::BenchReport report("degradation");
  universal_rows(report, /*combine=*/false);
  universal_rows(report, /*combine=*/true);
  wfs_rows(report);
  alg4_rows(report);
  report.write();
}

}  // namespace
}  // namespace hi

int main(int argc, char** argv) {
  hi::emit_bench_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
