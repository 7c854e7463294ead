// Harness pieces shared by every workload: clock, seeded RNG, log-bucket
// latency histogram, per-thread span logs, the metric table, the stuck-op
// watchdog and provenance. Depends on the standard library only.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kLine = 64;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: the benchmark's own generator, so a change to the library's
/// RNG cannot change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }

 private:
  std::uint64_t state_;
};

inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x100000001b3ULL + stream).next();
}

/// Log-linear histogram: exact below 64, then 64 sub-buckets per power of
/// two (≤ 1.6% bucket width). Fixed size, so recording never allocates.
class Histogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = kSub + 58 * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
    sum_ += v;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
    sum_ += other.sum_;
  }
  std::uint64_t count() const { return n_; }
  double mean() const {
    return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
  }

  /// The sample of rank ceil(q·n), placed inside its bucket by its rank
  /// among the bucket's samples (spread evenly over the bucket's width).
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return low(i) + within * width(i);
      }
      seen += counts_[i];
    }
    return low(kBuckets - 1);
  }
  /// Samples ranked above quantile q: a percentile is reportable only with
  /// at least 10 of them.
  std::uint64_t beyond(double q) const {
    const auto rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    return n_ > rank ? n_ - rank : 0;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    const std::size_t i = kSub + static_cast<std::size_t>(shift) * kSub +
                          static_cast<std::size_t>((v >> shift) - kSub);
    return std::min(i, kBuckets - 1);
  }
  static double low(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = (i - kSub) / kSub;
    return static_cast<double>((kSub + (i - kSub) % kSub) << shift);
  }
  static double width(std::size_t i) {
    return i < kSub ? 1.0
                    : static_cast<double>(std::uint64_t{1} << ((i - kSub) / kSub));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

// ---------------------------------------------------------------- tracing

/// Every span the benchmark records: one per call (or run of same-kind calls)
/// into a layer's public function, named by module.
enum class Span : std::uint16_t {
  kUniversalUpdate,  // rt::RtUniversal::apply, inc/dec
  kUniversalRead,    // rt::RtUniversal::apply, read
  kSetInsert,        // rt::RtShardedHiSet::insert, run of calls
  kSetRemove,        // rt::RtShardedHiSet::remove, run of calls
  kSetLookup,        // rt::RtShardedHiSet::lookup, run of calls
  kSetAudit,         // rt::RtShardedHiSet::snapshot_members
  kExploreNaive,     // sim::Explorer::explore, kNaive
  kExploreDpor,      // sim::Explorer::explore, kDpor
  kExploreFactory,   // the explorer's system factory
  kExploreLincheck,  // verify::check_linearizable on a complete execution
  kCount,
};

inline const char* span_name(Span s) {
  static constexpr const char* kNames[] = {
      "universal.update", "universal.read",  "set.insert",
      "set.remove",       "set.lookup",      "set.audit",
      "explore.naive",    "explore.dpor",    "explore.factory",
      "explore.lincheck"};
  return kNames[static_cast<std::size_t>(s)];
}

/// One worker's spans: a per-name total for every span, plus the first
/// kRawCapacity spans verbatim for the trace file. Owned by one thread
/// while the workload runs; read by the main thread after join.
class SpanLog {
 public:
  static constexpr std::size_t kRawCapacity = 1 << 14;
  struct Raw {
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t request;  // the driver op (or run) that made the call
    std::uint16_t name;
    std::uint16_t thread;
  };
  struct Total {
    std::uint64_t spans = 0;
    std::uint64_t calls = 0;  // > spans when a span covers a run of calls
    std::uint64_t ns = 0;
  };

  explicit SpanLog(std::uint16_t thread) : thread_(thread) {
    raw_.reserve(kRawCapacity);
  }

  void record(Span name, std::uint64_t start, std::uint64_t end,
              std::uint32_t request, std::uint64_t calls = 1) {
    Total& t = totals_[static_cast<std::size_t>(name)];
    ++t.spans;
    t.calls += calls;
    t.ns += end - start;
    if (raw_.size() < kRawCapacity) {
      raw_.push_back({start, end, request, static_cast<std::uint16_t>(name),
                      thread_});
    }
  }

  const Total& total(Span name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  const std::vector<Raw>& raw() const { return raw_; }

 private:
  std::uint16_t thread_;
  Total totals_[static_cast<std::size_t>(Span::kCount)]{};
  std::vector<Raw> raw_;
};

/// Process-wide registry of span logs, written out once at exit.
class Tracer {
 public:
  SpanLog* new_log() {
    logs_.push_back(
        std::make_unique<SpanLog>(static_cast<std::uint16_t>(logs_.size())));
    return logs_.back().get();
  }
  SpanLog::Total total(Span name) const {
    SpanLog::Total sum;
    for (const auto& log : logs_) {
      sum.spans += log->total(name).spans;
      sum.calls += log->total(name).calls;
      sum.ns += log->total(name).ns;
    }
    return sum;
  }
  /// Mean ns per call of `name`, or -1 when the span never ran.
  double mean_call_ns(Span name) const {
    const SpanLog::Total t = total(name);
    return t.calls == 0 ? -1.0
                        : static_cast<double>(t.ns) /
                              static_cast<double>(t.calls);
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"totals\": {");
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
      const SpanLog::Total t = total(static_cast<Span>(i));
      std::fprintf(f, "%s\"%s\": {\"spans\": %llu, \"calls\": %llu, \"ns\": %llu}",
                   i == 0 ? "" : ", ", span_name(static_cast<Span>(i)),
                   static_cast<unsigned long long>(t.spans),
                   static_cast<unsigned long long>(t.calls),
                   static_cast<unsigned long long>(t.ns));
    }
    std::fprintf(f, "},\n\"spans\": [");
    bool first = true;
    for (const auto& log : logs_) {
      for (const SpanLog::Raw& s : log->raw()) {
        std::fprintf(f, "%s\n[\"%s\", %u, %u, %llu, %llu]", first ? "" : ",",
                     span_name(static_cast<Span>(s.name)), s.thread, s.request,
                     static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end));
        first = false;
      }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered name → (value, unit) table; one per run.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : items_) {
      if (m.name == name) {
        m = Metric{name, value, unit};
        return;
      }
    }
    items_.push_back(Metric{name, value, unit});
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_metrics(const std::vector<Metric>& items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items[i].name + "\": {\"value\": " +
           json_number(items[i].value) + ", \"unit\": \"" + items[i].unit +
           "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- workers

/// Completed-op counter of one worker, on its own cache line; the watchdog
/// reads it to find an op that stopped making progress.
struct alignas(kLine) Progress {
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> finished{false};
};

/// An rt workload's measured time is cut into kSlices rounds of equal
/// length, each on a freshly built object (see run_live); its throughput
/// and latency figures are taken per round and reported for the fastest
/// quarter of rounds (see pool_rounds below).
inline constexpr int kSlices = 32;

/// Shared start/stop flags of one round's threads.
struct alignas(kLine) Window {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  alignas(kLine) std::atomic<bool> stop{false};
};

inline void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

/// Ends the process when a worker's op misses the deadline: the stuck op
/// cannot be joined, so the run reports it as failed and exits nonzero.
[[noreturn]] void watchdog_abort(const char* workload, int worker,
                                 std::uint64_t ops_done, double stalled_s);

/// Main-thread monitor of a set of workers: checks that each one's progress
/// counter keeps moving, and ends the run through watchdog_abort when one
/// has not moved for `deadline_s`.
class Watchdog {
 public:
  Watchdog(const char* workload, std::vector<Progress>& progress,
           double deadline_s)
      : workload_(workload),
        progress_(progress),
        deadline_ns_(static_cast<std::uint64_t>(deadline_s * 1e9)),
        last_(progress.size(), 0),
        moved_at_(progress.size(), now_ns()) {}

  /// Watches until `until_ns`, or with 0 until every worker has finished.
  void watch_until(std::uint64_t until_ns) {
    for (;;) {
      const std::uint64_t t = now_ns();
      bool all_finished = true;
      for (std::size_t i = 0; i < progress_.size(); ++i) {
        if (progress_[i].finished.load(std::memory_order_acquire)) continue;
        all_finished = false;
        const std::uint64_t done =
            progress_[i].done.load(std::memory_order_relaxed);
        if (done != last_[i]) {
          last_[i] = done;
          moved_at_[i] = t;
        } else if (t - moved_at_[i] > deadline_ns_) {
          watchdog_abort(workload_, static_cast<int>(i), done,
                         static_cast<double>(t - moved_at_[i]) * 1e-9);
        }
      }
      if (until_ns != 0 ? t >= until_ns : all_finished) return;
      const std::uint64_t poll_ns = 50'000'000;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          until_ns != 0 ? std::min(poll_ns, until_ns - t) : poll_ns));
    }
  }

 private:
  const char* workload_;
  std::vector<Progress>& progress_;
  std::uint64_t deadline_ns_;
  std::vector<std::uint64_t> last_;
  std::vector<std::uint64_t> moved_at_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// One histogram per round, for the per-round percentiles.
using SliceHistograms = std::vector<Histogram>;

inline SliceHistograms slice_histograms() { return SliceHistograms(kSlices); }

/// A percentile is reported only if at least this many samples lie beyond
/// it in every histogram it is taken from.
inline constexpr std::uint64_t kMinBeyond = 10;

/// A latency percentile, in the histogram's unit, with the fewest samples
/// that lay beyond it in any histogram it was taken from.
struct Percentile {
  double value = 0;
  std::uint64_t min_beyond = 0;
  bool supported() const { return min_beyond >= kMinBeyond; }
};

/// Quantile q of one histogram.
inline Percentile percentile(const Histogram& h, double q) {
  return {h.quantile(q), h.beyond(q)};
}

// Fastest quarter of rounds. On a shared 4-vCPU VM the host slows each
// CPU by up to a quarter, in phases of seconds to minutes and independently
// per CPU (a pinned arithmetic loop on each CPU read 63k–88k iterations per
// second, second by second). A median over rounds reports the mix of phases
// a run met: the audit latency of a 16M-key store moved 0.20–0.24 of its
// median between runs of the same code. The rounds the host slowed least
// give the figure the code sets and the host can only lower, so the rt
// workloads report them: throughput is the mean rate of the fastest quarter
// of rounds, and latency percentiles pool the samples of the quarter of
// rounds with the lowest p50. A single best round was noisier: the best
// round's audit p99 spread 0.18–0.19 of its median over 10 and 5 seeds.
inline constexpr int kBestRounds = kSlices / 4;

/// Mean of the kBestRounds highest round rates.
inline double best_rounds_rate(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end(), std::greater<>());
  rates.resize(std::min<std::size_t>(rates.size(), kBestRounds));
  double sum = 0;
  for (const double r : rates) sum += r;
  return rates.empty() ? 0.0 : sum / static_cast<double>(rates.size());
}

/// Latency samples merged over every thread: over the kBestRounds rounds
/// with the lowest p50 (`best`) and over every round (`all`).
struct PooledRounds {
  Histogram best;
  Histogram all;
};

inline PooledRounds pool_rounds(
    const std::vector<const SliceHistograms*>& per_thread) {
  PooledRounds out;
  std::vector<Histogram> rounds(kSlices);
  std::vector<std::pair<double, int>> by_p50;
  for (int k = 0; k < kSlices; ++k) {
    Histogram& round = rounds[static_cast<std::size_t>(k)];
    for (const SliceHistograms* h : per_thread) {
      round.merge((*h)[static_cast<std::size_t>(k)]);
    }
    out.all.merge(round);
    by_p50.emplace_back(round.count() == 0 ? INFINITY : round.quantile(0.5), k);
  }
  std::sort(by_p50.begin(), by_p50.end());
  for (int i = 0; i < kBestRounds; ++i) {
    out.best.merge(rounds[static_cast<std::size_t>(by_p50[static_cast<std::size_t>(i)].second)]);
  }
  return out;
}

/// Quantile q of the fastest rounds' samples; of every sample of the run
/// when those hold too few beyond q to support it.
inline Percentile pooled_percentile(const PooledRounds& rounds, double q) {
  const Percentile best = percentile(rounds.best, q);
  return best.supported() ? best : percentile(rounds.all, q);
}


/// Coroutine frames a FrameArena::Stats snapshot has handed out.
template <typename ArenaStats>
std::uint64_t arena_frames(const ArenaStats& s) {
  return s.fresh_slabs + s.reuse_hits + s.oversize;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so it would report a larger parent's peak.)
inline double rss_peak_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Faults a negative control plants so the matching oracle must fire.
enum class Inject { kNone, kCorruptCount, kFlipImageBit, kWrongPin, kHang };

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  Inject inject = Inject::kNone;
  double watchdog_s = 10.0;
  int setup_trials = 1;  // setups timed; setup_s is their median
  Tracer* tracer = nullptr;
};

/// What one workload run measured. `e2e` holds the end-to-end metrics,
/// `layer` the per-layer ones (traced runs), `notes` extra report fields,
/// `unsupported` the e2e percentiles with too few samples beyond them.
struct Outcome {
  Metrics e2e;
  Metrics layer;
  std::vector<std::pair<std::string, std::string>> notes;  // key → JSON
  std::vector<std::string> unsupported;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Sets an end-to-end percentile metric (`scale` converts the histogram
  /// unit to `unit`) and notes its support; an unsupported percentile
  /// makes an untraced run incorrect.
  void set_percentile(const std::string& name, const Percentile& p,
                      double scale, const std::string& unit) {
    e2e.set(name, p.value * scale, unit);
    note(name + "_min_beyond", static_cast<double>(p.min_beyond));
    if (!p.supported()) unsupported.push_back(name);
  }

  void note(const std::string& key, double value) {
    notes.emplace_back(key, json_number(value));
  }
  void note(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      list += (i == 0 ? "" : ", ") + json_number(values[i]);
    }
    notes.emplace_back(key, list + "]");
  }
};

/// Timing of one closed-loop run: every set-up, and every round's window.
struct LiveTiming {
  std::vector<double> setup_s;  // one per set-up
  std::vector<double> round_s;  // measured length of each round
  // done[k][t]: ops worker t completed in round k's window.
  std::vector<std::vector<std::uint64_t>> done;

  double window_s() const {
    double s = 0;
    for (const double r : round_s) s += r;
    return s;
  }
  /// Progress rate of workers [first, last) in each round.
  std::vector<double> slice_rates(int first, int last) const {
    std::vector<double> rates;
    for (std::size_t k = 0; k < round_s.size(); ++k) {
      std::uint64_t ops = 0;
      for (int t = first; t < last; ++t) ops += done[k][static_cast<std::size_t>(t)];
      rates.push_back(static_cast<double>(ops) / round_s[k]);
    }
    return rates;
  }
};

/// Idle-priority filler threads a workload with `threads` workers runs
/// beside its measured window: one if it asks for a filler and a CPU is
/// left over, else none.
///
/// Left idle, the fourth CPU of a 4-CPU host made the sharded auditor's scan
/// time bimodal (about 2.4 ms or 3.4 ms per audit, mixed in a proportion
/// that changed from run to run and moved audit p50 by 30% between sets of
/// runs); one filler on it removed that. SCHED_IDLE lets any other task take
/// the filler's CPU at once. The count is capped at one, the case that was
/// measured, so a larger host gets no crowd of spinning threads beside the
/// workers. universal_combine runs without one: its spreads tripled with a
/// filler (0.03 → 0.10 of the median).
inline int idle_fillers(int threads, bool wants_filler) {
  const int spare = static_cast<int>(std::thread::hardware_concurrency()) - threads;
  return wants_filler && spare > 0 ? 1 : 0;
}

/// Closed-loop scaffold shared by the rt workloads. The run is kSlices
/// rounds. Each round times cfg.setup_trials / kSlices set-ups (at least
/// one): a set-up builds the object with make(), and that is its set-up
/// time. The round's last object is live: `threads` workers start and warm
/// up (untimed), run closed loop for cfg.seconds / kSlices under the
/// watchdog, and then finish(object) checks the object at quiescence.
///
/// Thread start and warm-up stay out of set-up time: they measured the
/// host's wake-up latency (57–320 µs for 3 threads, from run to run) far
/// more than the library. Host speed on a shared VM also shifts in phases
/// of seconds (the same 16M-key store build took 21 ms in one phase and
/// 33 ms in the next), so set-ups timed at one moment of a run measured
/// that moment's phase; spread over the rounds, they see the same mix of
/// phases as the rounds' windows.
///
/// worker(object, tid, round, window, progress) must: warm up, bump
/// window.ready, spin on window.go, run ops until window.stop, bumping
/// progress.done.
template <typename Make, typename Worker, typename Finish>
void run_live(const char* workload, const RunConfig& cfg, int threads,
              bool wants_filler, Make make, Worker worker, Finish finish,
              LiveTiming& timing) {
  const int setups = std::max(1, cfg.setup_trials / kSlices);
  const auto round_ns = static_cast<std::uint64_t>(cfg.seconds * 1e9 / kSlices);
  for (int round = 0; round < kSlices; ++round) {
    for (int trial = 0; trial < setups; ++trial) {
      const bool live = trial + 1 == setups;
      Window window;
      std::vector<Progress> progress(static_cast<std::size_t>(threads));
      const std::uint64_t t0 = now_ns();
      auto object = make();
      timing.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (!live) continue;
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          Progress& p = progress[static_cast<std::size_t>(t)];
          worker(*object, t, round, window, p);
          p.finished.store(true, std::memory_order_release);
        });
      }
      while (window.ready.load(std::memory_order_acquire) < threads) {
        if (static_cast<double>(now_ns() - t0) * 1e-9 > cfg.watchdog_s) {
          watchdog_abort(workload, -1, 0, cfg.watchdog_s);
        }
        std::this_thread::yield();
      }
      std::vector<std::thread> fillers;
      for (int i = 0; i < idle_fillers(threads, wants_filler); ++i) {
        fillers.emplace_back([&window] {
          const sched_param idle{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
          while (!window.stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
          }
        });
      }
      Watchdog watchdog(workload, progress, cfg.watchdog_s);
      const std::uint64_t go = now_ns();
      window.go.store(true, std::memory_order_release);
      watchdog.watch_until(go + round_ns);
      std::vector<std::uint64_t> done;
      for (const Progress& p : progress) {
        done.push_back(p.done.load(std::memory_order_relaxed));
      }
      timing.round_s.push_back(static_cast<double>(now_ns() - go) * 1e-9);
      timing.done.push_back(std::move(done));
      window.stop.store(true, std::memory_order_relaxed);
      watchdog.watch_until(0);
      for (auto& th : pool) th.join();
      for (auto& th : fillers) th.join();
      finish(*object);
    }
  }
}

}  // namespace perfbench
