// Calibration spans of the traced run: the driver floor (a clock read and a
// null op), primitive unit costs (rt/cells.h bodies on one shared cell and on
// private ones) and rt::RtRllsc LL→SC pairs. Each runs at the calling
// workload's thread count, all threads calling through one shared window.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "rt/cells.h"
#include "rt/rllsc_rt.h"

namespace perfbench {

struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;  // CAS / SC attempts that did not install
};

struct WindowResult {
  double ns_per_call = 0;  // mean over threads of elapsed time / calls
  Tally total;
  double fail_frac() const {
    return static_cast<double>(total.failures) /
           static_cast<double>(total.calls);
  }
};

inline constexpr int kCalibrationMs = 100;
inline constexpr int kChunk = 256;  // calls between checks of the stop flag

/// Runs body(tid, stop) → Tally on `threads` threads released together for
/// kCalibrationMs, so every thread's calls overlap the others'. body runs
/// chunks of kChunk calls until stop is set.
template <typename Body>
WindowResult timed_window(int threads, Body body) {
  Window window;
  std::vector<Tally> tallies(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> ns(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      window.ready.fetch_add(1);
      spin_until(window.go);
      const std::uint64_t t0 = now_ns();
      tallies[static_cast<std::size_t>(t)] = body(t, window.stop);
      ns[static_cast<std::size_t>(t)] = now_ns() - t0;
    });
  }
  while (window.ready.load() < threads) std::this_thread::yield();
  window.go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(kCalibrationMs));
  window.stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  WindowResult r;
  for (std::size_t t = 0; t < tallies.size(); ++t) {
    r.ns_per_call += static_cast<double>(ns[t]) /
                     static_cast<double>(tallies[t].calls) / threads;
    r.total.calls += tallies[t].calls;
    r.total.failures += tallies[t].failures;
  }
  return r;
}

/// Repeats `call` in chunks until `stop`; call() returns true on failure.
template <typename Call>
Tally until_stopped(const std::atomic<bool>& stop, Call call) {
  Tally tally;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < kChunk; ++i) tally.failures += call() ? 1 : 0;
    tally.calls += kChunk;
  }
  return tally;
}

/// The driver's per-op bookkeeping around a call that does nothing: draw
/// from the RNG, read the clock, record the gap, publish progress. Every
/// timed workload loop pays exactly this on top of the op itself.
[[gnu::noinline]] inline std::uint32_t null_op(std::uint32_t x) { return x; }

struct DriverFloor {
  double clock_ns = 0;
  double null_op_ns = 0;
};

inline DriverFloor measure_driver_floor(int threads) {
  DriverFloor floor;
  floor.clock_ns =
      timed_window(threads, [](int, const std::atomic<bool>& stop) {
        std::uint64_t sink = 0;
        Tally tally = until_stopped(stop, [&] {
          sink += now_ns();
          return false;
        });
        tally.failures = sink == 0;
        return tally;
      }).ns_per_call;
  floor.null_op_ns =
      timed_window(threads, [](int t, const std::atomic<bool>& stop) {
        Rng rng(static_cast<std::uint64_t>(t) + 1);
        Histogram hist;
        Progress progress;
        std::uint64_t prev = now_ns();
        std::uint64_t ops = 0;
        std::uint32_t sink = 0;
        Tally tally = until_stopped(stop, [&] {
          sink += null_op(rng.below(10));
          const std::uint64_t t1 = now_ns();
          hist.record(t1 - prev);
          prev = t1;
          progress.done.store(++ops, std::memory_order_relaxed);
          return false;
        });
        tally.failures = sink == 0xffffffffu;
        return tally;
      }).ns_per_call;
  return floor;
}

inline void calibrate_primitives(int threads, Metrics& out) {
  using hi::rt::CasCell128;
  using hi::rt::CasWord;
  using Stop = const std::atomic<bool>;

  // 16-byte CAS: each attempt expects the word its last attempt observed.
  const auto cas_calls = [](CasCell128& cell, Stop& stop) {
    CasWord expected = hi::rt::cas128_read(cell);
    return until_stopped(stop, [&] {
      const CasWord desired{expected.value + 1, expected.ctx};
      const auto r = hi::rt::cas128_cas(cell, expected, desired);
      expected = r.installed ? desired : r.observed;
      return !r.installed;
    });
  };
  CasCell128 shared16;
  const WindowResult cas_shared = timed_window(
      threads, [&](int, Stop& stop) { return cas_calls(shared16, stop); });
  std::vector<CasCell128> private16(static_cast<std::size_t>(threads));
  const WindowResult cas_private = timed_window(threads, [&](int t, Stop& stop) {
    return cas_calls(private16[static_cast<std::size_t>(t)], stop);
  });
  const WindowResult load16 = timed_window(threads, [&](int, Stop& stop) {
    return until_stopped(stop, [&] {
      return hi::rt::cas128_read(shared16).value == ~std::uint64_t{0};
    });
  });

  // 8-byte RMW: set, then clear, the thread's own bit, as the packed set's
  // insert and remove do.
  struct alignas(kLine) Word64 {
    std::atomic<std::uint64_t> word{0};
  };
  const auto rmw_calls = [](std::atomic<std::uint64_t>& word, int t,
                            Stop& stop) {
    const std::uint64_t mask = std::uint64_t{1} << t;
    bool set = true;
    return until_stopped(stop, [&] {
      if (set) {
        hi::rt::packed_or(word, mask);
      } else {
        hi::rt::packed_and(word, ~mask);
      }
      set = !set;
      return false;
    });
  };
  Word64 shared64;
  const WindowResult rmw_shared = timed_window(threads, [&](int t, Stop& stop) {
    return rmw_calls(shared64.word, t, stop);
  });
  std::vector<Word64> private64(static_cast<std::size_t>(threads));
  const WindowResult rmw_private = timed_window(threads, [&](int t, Stop& stop) {
    return rmw_calls(private64[static_cast<std::size_t>(t)].word, t, stop);
  });
  const WindowResult load64 = timed_window(threads, [&](int, Stop& stop) {
    return until_stopped(stop, [&] {
      return hi::rt::packed_load(shared64.word) == ~std::uint64_t{0};
    });
  });

  out.set("prim.cas16_shared_ns", cas_shared.ns_per_call, "ns");
  out.set("prim.cas16_private_ns", cas_private.ns_per_call, "ns");
  out.set("prim.load16_shared_ns", load16.ns_per_call, "ns");
  out.set("prim.cas16_fail_frac", cas_shared.fail_frac(), "frac");
  out.set("prim.cas16_lock_free", shared16.word.is_lock_free() ? 1.0 : 0.0,
          "bool");
  out.set("prim.rmw64_shared_ns", rmw_shared.ns_per_call, "ns");
  out.set("prim.rmw64_private_ns", rmw_private.ns_per_call, "ns");
  out.set("prim.load64_shared_ns", load64.ns_per_call, "ns");
}

/// rt::RtRllsc LL→SC pairs on one shared cell; a call is one pair.
inline void calibrate_rllsc(int threads, Metrics& out) {
  hi::rt::RtRllsc cell;
  const WindowResult pairs =
      timed_window(threads, [&](int pid, const std::atomic<bool>& stop) {
        return until_stopped(stop, [&] {
          const std::uint64_t v = cell.ll(pid);
          // A failed SC means another SC reset the context: nothing to RL.
          return !cell.sc(pid, v + 1);
        });
      });
  out.set("rllsc.ll_sc_ns", pairs.ns_per_call, "ns");
  out.set("rllsc.sc_fail_frac", pairs.fail_frac(), "frac");
}

}  // namespace perfbench
