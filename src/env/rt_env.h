// RtEnv: the real-hardware backend of the Env abstraction (see env.h).
//
// Primitives map onto std::atomic operations (seq_cst after construction —
// the §4/§6 proofs assume atomic base objects with a total order on
// operations; the factories' initialization stores are relaxed, because an
// object reaches other threads only through a happens-before edge such as
// thread start — docs/ENV.md "Factories"), binary cells keep their
// per-cache-line padding, and the CAS base object is the 16-byte Atomic128
// word (CMPXCHG16B via -mcx16).
//
// Every primitive executes its atomic access inside the primitive call
// itself and returns a detail::Done awaiter that carries only the already-
// computed result (never suspends), so an algorithm coroutine instantiated
// with RtEnv runs to completion synchronously inside the call — EagerTask
// is just the vehicle that lets the same coroutine body serve both
// environments. Execute-at-call is deliberate, not a convenience: see the
// detail::Done comment in env.h for the GCC miscompile that deferred
// execution via argument-capturing awaiters ran into.
//
// RtEnv is RtEnvT<NoProbe>. The probe hook brackets each primitive's atomic
// access; env/fuzz_env.h instantiates it with the seeded YieldInjector.
//
// GCC rarely elides the coroutine frame, so without help every
// operation/helper call would pay one heap allocation; instead EagerTask's
// promise allocates its frame from a per-thread FrameArena (below), making
// the steady-state hot path allocation-free. A body that is a single
// primitive skips the frame altogether: RtEnvT::lift returns a frameless
// EagerTask::ready holding the result, RtEnvT::lift_each runs a body of
// independent primitives (the packed audit's word loads, the packed clears'
// fetch_ands) as a plain loop, and RtEnvT::cas_loop runs a CAS retry loop
// (Algorithm 6's LL/SC/RL) as a plain loop.
// The arena lifecycle rules are documented in docs/ENV.md;
// tests/test_rt_alloc.cpp enforces the zero and perfbench reports it as
// env.allocs_per_op (docs/PERF.md).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "rt/atomic128.h"
#include "rt/cells.h"
#include "util/bits.h"
#include "util/padded.h"

namespace hi::env {

/// Per-thread recycling allocator for EagerTask coroutine frames.
///
/// Frames are size-bucketed at kGranule resolution; deallocating a frame
/// parks its slab on the owning thread's free list (linked through the
/// slab's first word) and the next same-bucket allocation pops it back, so
/// after a handful of warmup operations the RtEnv fast path touches the
/// global heap zero times per operation. Sizes above kMaxCachedBytes fall
/// through to ::operator new (no EagerTask frame in this codebase comes
/// close; tests cover the path directly).
///
/// Lifecycle rules (docs/ENV.md "RtEnv: frame arena"):
///   * allocate and deallocate MUST happen on the same thread — an
///     EagerTask has run to completion by the time the caller holds it and
///     is consumed synchronously at the call site (`.get()`), so frames never
///     migrate; handing a live EagerTask to another thread would break
///     this contract (and TSan flags it — see
///     RtAllocChurn.MultiThreadArenaBalance in tests/test_rt_alloc.cpp);
///   * cached slabs are released by drain(), which the thread-exit
///     destructor runs — a detached frame outliving its thread would
///     dangle, which is why EagerTask frames may never outlive the owning
///     thread;
///   * stats() is observer-side bookkeeping for tests/benches, never part
///     of an algorithm's step count.
class FrameArena {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::size_t kMaxCachedBytes = kGranule * kBuckets;  // 4 KiB
  // Buckets 0..kPrewarmBuckets-1 (frame sizes up to 1 KiB) get
  // kPrewarmDepth slabs parked at the thread's FIRST minted slab — inside
  // any workload's warmup that opens a frame at all; a thread whose ops
  // are all frameless (RtEnvT::lift, lift_each, cas_loop) never mints and
  // never prewarms. Every algo coroutine in this codebase frames at 80–560
  // bytes with at most 6 frames live at once (the wait-free simulation's
  // helping chain; a §4 register op reaches 4, a universal update 1), so
  // after prewarm the steady state is DETERMINISTICALLY
  // allocation-free: even a contention path first reached mid-measurement
  // (a helping chain's deepest frame combination) pops a reserved slab
  // instead of minting.
  static constexpr std::size_t kPrewarmBuckets = 16;
  static constexpr std::size_t kPrewarmDepth = 8;

  struct Stats {
    std::uint64_t fresh_slabs = 0;  // bucket misses: slabs minted from the heap
    std::uint64_t reuse_hits = 0;   // bucket hits: slabs popped off a free list
    std::uint64_t oversize = 0;     // > kMaxCachedBytes pass-through allocations
    std::uint64_t outstanding = 0;  // live frames: allocate() minus deallocate()
    std::uint64_t cached = 0;       // slabs currently parked on free lists
  };

  /// The calling thread's arena (constructed on first use, drained at
  /// thread exit). Construction allocates nothing.
  static FrameArena& local() noexcept {
    static thread_local FrameArena arena;
    return arena;
  }

  void* allocate(std::size_t bytes) {
    ++stats_.outstanding;
    const std::size_t bucket = bucket_of(bytes);
    if (bucket >= kBuckets) {
      ++stats_.oversize;
      return ::operator new(bytes);
    }
    if (free_[bucket] == nullptr && !prewarmed_) prewarm();
    if (void* slab = free_[bucket]) {
      free_[bucket] = *static_cast<void**>(slab);
      ++stats_.reuse_hits;
      --stats_.cached;
      return slab;
    }
    ++stats_.fresh_slabs;
    return ::operator new((bucket + 1) * kGranule);
  }

  void deallocate(void* ptr, std::size_t bytes) noexcept {
    --stats_.outstanding;
    const std::size_t bucket = bucket_of(bytes);
    if (bucket >= kBuckets) {
      ::operator delete(ptr);
      return;
    }
    *static_cast<void**>(ptr) = free_[bucket];
    free_[bucket] = ptr;
    ++stats_.cached;
  }

  /// Releases every cached slab back to the heap. Runs at thread exit;
  /// callable any time there are no live frames on this thread.
  void drain() noexcept {
    for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
      void* slab = free_[bucket];
      free_[bucket] = nullptr;
      while (slab != nullptr) {
        void* next = *static_cast<void**>(slab);
        ::operator delete(slab);
        --stats_.cached;
        slab = next;
      }
    }
  }

  Stats stats() const noexcept { return stats_; }

  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena() { drain(); }

 private:
  FrameArena() = default;

  /// Parks the reserve; runs once per thread, at its first bucket miss.
  void prewarm() {
    prewarmed_ = true;
    for (std::size_t bucket = 0; bucket < kPrewarmBuckets; ++bucket) {
      for (std::size_t i = 0; i < kPrewarmDepth; ++i) {
        void* slab = ::operator new((bucket + 1) * kGranule);
        *static_cast<void**>(slab) = free_[bucket];
        free_[bucket] = slab;
        ++stats_.fresh_slabs;  // prewarm mints count as fresh, so
        ++stats_.cached;       // cached == fresh_slabs holds at rest
      }
    }
  }

  static std::size_t bucket_of(std::size_t bytes) noexcept {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }

  std::array<void*, kBuckets> free_{};
  Stats stats_{};
  bool prewarmed_ = false;
};

/// Coroutine type for RtEnv operations and helpers. Eagerly started; since
/// no RtEnv awaitable ever suspends, the body has run to completion by the
/// time the caller holds the task. `get()` extracts the result
/// synchronously; the awaiter interface lets EagerTasks nest inside other
/// EagerTasks exactly where sim::SubTasks nest inside sim::OpTasks.
///
/// `ready(value)` makes a FRAMELESS task that just holds its value: what
/// RtEnvT::lift, lift_each and cas_loop return, whose primitives have
/// already run by the time the task exists.
///
/// Frames come from the per-thread FrameArena via the class-level
/// operator new/delete on the promise: nested helper frames (an Op awaiting
/// a Sub awaiting another Sub) draw from the same arena, so a steady-state
/// operation performs ZERO heap allocations regardless of helper depth.
/// Only the sized operator delete is declared — the coroutine frame size is
/// the bucket key, and an unsized call would be a (loud, compile-time)
/// contract violation rather than silent corruption.
template <typename T>
class [[nodiscard]] EagerTask {
 public:
  struct promise_type {
    std::optional<T> result;
    std::exception_ptr error;

    static void* operator new(std::size_t bytes) {
      return FrameArena::local().allocate(bytes);
    }
    static void operator delete(void* ptr, std::size_t bytes) noexcept {
      FrameArena::local().deallocate(ptr, bytes);
    }

    EagerTask get_return_object() {
      return EagerTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(T value) { result = std::move(value); }
    void unhandled_exception() { error = std::current_exception(); }
  };

  explicit EagerTask(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  /// A completed task with no coroutine frame behind it.
  static EagerTask ready(T value) { return EagerTask(std::move(value)); }
  EagerTask(EagerTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)),
        value_(std::move(other.value_)) {}
  EagerTask& operator=(EagerTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
      value_ = std::move(other.value_);
    }
    return *this;
  }
  EagerTask(const EagerTask&) = delete;
  EagerTask& operator=(const EagerTask&) = delete;
  ~EagerTask() { destroy(); }

  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return take(); }

  /// Synchronous extraction: callers write `obj.op(...).get()`.
  T get() { return take(); }

 private:
  explicit EagerTask(T value) : value_(std::move(value)) {}

  T take() {
    if (!handle_) {
      assert(value_.has_value() && "a task is consumed once");
      return std::move(*value_);
    }
    assert(handle_.done() && "RtEnv coroutines complete eagerly");
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
    assert(handle_.promise().result.has_value());
    return std::move(*handle_.promise().result);
  }

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
  std::optional<T> value_;  // the result of a frameless (ready) task
};

/// The probe with an empty body: RtEnvT<NoProbe> (= RtEnv) compiles every
/// primitive to its bare atomic access.
struct NoProbe {
  static void point() noexcept {}
};

/// The hardware environment, parameterized by a probe hook. Every one of the
/// 11 primitives runs `Probe::point()` immediately before and after its
/// atomic access, inside the primitive call, and only the computed result
/// rides back through detail::ready (execute-at-call; see detail::Done in
/// env.h). Factories, peeks and relax() never call the probe. A probe is
/// any type with a static, argument-free `point()`: NoProbe for RtEnv,
/// YieldInjector for FuzzEnv (env/fuzz_env.h). Storage and task types do not
/// depend on the probe, so every instantiation shares them.
template <typename Probe>
struct RtEnvT {
 private:
  /// Runs `access` — one atomic operation — bracketed by the probe, and
  /// wraps its result. The first point can delay the access, the second the
  /// caller's next local step, so a perturbing probe reaches both sides of
  /// every inter-primitive window, including the invoke and response edges.
  template <typename Access>
  static auto probed(Access access) {
    Probe::point();
    auto result = access();
    Probe::point();
    return detail::ready(std::move(result));
  }

 public:
  struct Ctx {};  // hardware objects own their storage; nothing to register

  template <typename T>
  using Op = EagerTask<T>;
  template <typename T>
  using Sub = EagerTask<T>;

  /// A single-primitive body as a frameless task (env.h "lift"): the
  /// source's primitive already ran at its call (execute-at-call), and an
  /// awaited Sub has already completed, so the result is taken here and no
  /// coroutine frame is opened. Nothing crosses an await transform, so the
  /// GCC 12 hazard of detail::Done cannot arise either.
  template <typename Task, typename Source, typename Fn>
  static Task lift(Source source, Fn fn) {
    if constexpr (detail::DeferredSource<Source>) {
      return lift<Task>(source(), std::move(fn));
    } else {
      assert(source.await_ready() && "RtEnv awaitables never suspend");
      return Task::ready(fn(source.await_resume()));
    }
  }

  /// `count` independent steps as a frameless task (env.h "lift_each"): a
  /// plain loop over the same source calls, so each primitive still runs
  /// (and probes) at its call, in order; each result goes straight to the
  /// sink. No coroutine frame, and no loop state kept across an await.
  template <typename Task, typename Source, typename Sink>
  static Task lift_each(std::uint32_t count, Source source, Sink sink) {
    for (std::uint32_t i = 0; i < count; ++i) {
      auto step = source(i);
      assert(step.await_ready() && "RtEnv awaitables never suspend");
      sink(i, step.await_resume());
    }
    return Task::ready(sink.done());
  }

  // ---- binary registers (the §4/§5.1 base objects) ----
  //
  // Cell types and primitive bodies are shared with the ReplayEnv backend
  // (rt/cells.h): one memory layout, one set of atomic operations — only
  // the execution discipline (eager here, scheduler-driven there) differs.

  using BinArray = std::vector<rt::BinCell>;

  /// Allocates `count` cache-line-padded atomic bytes; slot v starts at bit
  /// (v-1) of the flat multi-word bitmap `words` (util::bin_test; missing
  /// trailing words read as 0). Construction only — no shared-memory step.
  static BinArray make_bin_array_words(Ctx, const char* /*prefix*/,
                                       std::uint32_t count,
                                       std::span<const std::uint64_t> words) {
    BinArray array(count);
    for (std::uint32_t v = 1; v <= count; ++v) {
      array[v - 1]->store(util::bin_test(words, v) ? 1 : 0,
                          std::memory_order_relaxed);
    }
    return array;
  }

  /// read(A[index]) — one seq_cst atomic load; models 1 binary-register-read
  /// step of the paper's model. `index` is 1-based (the paper's A[v]).
  static auto read_bit(BinArray& array, std::uint32_t index) {
    return probed([&] { return rt::bin_read(*array[index - 1]); });
  }
  /// write(A[index], value) — one seq_cst atomic store; 1 step.
  static auto write_bit(BinArray& array, std::uint32_t index,
                        std::uint8_t value) {
    return probed([&] {
      rt::bin_write(*array[index - 1], value);
      return true;
    });
  }
  /// Observer-side peek — not an algorithm step; only meaningful at
  /// quiescence unless the caller tolerates racing reads.
  static std::uint8_t peek_bit(const BinArray& array, std::uint32_t index) {
    return array[index - 1]->load(std::memory_order_seq_cst);
  }
  /// Actual bytes of shared storage: one padded cache line per bin.
  static std::size_t bin_storage_bytes(const BinArray& array) {
    return array.size() * sizeof(rt::BinCell);
  }

  // ---- packed bin arrays: 64 bins per UNPADDED atomic word ----
  //
  // Storage and primitive bodies shared with ReplayEnv (rt/cells.h). The
  // density is the point: K=1024 bins occupy 2 cache lines instead of the
  // padded layout's 64 KiB, so scans are O(K/64) loads; the tradeoff is
  // word contention between bins sharing a word (docs/PERF.md).

  using PackedBinArray = rt::PackedBits;

  /// Allocates ceil(count/64) contiguous atomic words; word w starts from
  /// `words[w]` (bit v-1 of the flat bitmap = bin v); missing trailing words
  /// read as 0 and bits beyond `count` are dropped — the same words as
  /// util::init_word, but copied with plain relaxed stores and only the
  /// last copied word masked (util::bin_live_mask). Construction only.
  static PackedBinArray make_packed_bin_array_words(
      Ctx, const char* /*prefix*/, std::uint32_t count,
      std::span<const std::uint64_t> words) {
    PackedBinArray array;
    array.bins = count;
    array.words = std::vector<std::atomic<std::uint64_t>>(
        util::bin_words(count));
    const std::size_t copied = std::min(words.size(), array.words.size());
    for (std::size_t w = 0; w < copied; ++w) {
      array.words[w].store(words[w], std::memory_order_relaxed);
    }
    if (copied > 0) {
      const auto last = static_cast<std::uint32_t>(copied - 1);
      array.words[last].store(words[last] & util::bin_live_mask(count, last),
                              std::memory_order_relaxed);
    }
    return array;
  }

  static std::uint32_t packed_bins(const PackedBinArray& array) {
    return array.bins;
  }
  static std::uint32_t packed_words(const PackedBinArray& array) {
    return static_cast<std::uint32_t>(array.words.size());
  }

  /// Word load — one seq_cst atomic load; 1 step, 64 bins atomically.
  static auto load_packed_word(PackedBinArray& array, std::uint32_t w) {
    return probed([&] { return rt::packed_load(array.words[w]); });
  }
  /// One LOCK OR; 1 step — sets every bin in `mask`.
  static auto or_packed_word(PackedBinArray& array, std::uint32_t w,
                             std::uint64_t mask) {
    return probed([&] {
      rt::packed_or(array.words[w], mask);
      return true;
    });
  }
  /// One LOCK AND; 1 step — keeps only the bins in `mask`.
  static auto and_packed_word(PackedBinArray& array, std::uint32_t w,
                              std::uint64_t mask) {
    return probed([&] {
      rt::packed_and(array.words[w], mask);
      return true;
    });
  }
  /// Observer-side peek — not an algorithm step.
  static std::uint64_t peek_packed_word(const PackedBinArray& array,
                                        std::uint32_t w) {
    return array.words[w].load(std::memory_order_seq_cst);
  }
  /// Actual bytes of shared storage (observer-side).
  static std::size_t packed_storage_bytes(const PackedBinArray& array) {
    return array.words.size() * sizeof(std::atomic<std::uint64_t>);
  }

  // ---- one CAS base object: 16-byte atomic word, cache-line padded ----

  using Value = std::uint64_t;
  using Word = algo::CtxWord<Value>;
  using CasCell = rt::CasCell128;

  /// Construction only — no shared-memory step.
  static CasCell make_cas(Ctx, const std::string& /*name*/, Value initial) {
    return CasCell{rt::Word128{initial, 0}};
  }

  /// Read(X) — one seq_cst 16-byte atomic load; 1 step of the model.
  static auto cas_read(CasCell& cell) {
    return probed([&] { return rt::cas128_read(cell); });
  }
  /// CAS(X, expected, desired) — one CMPXCHG16B; 1 step. Failure-word
  /// semantics come for free: compare_exchange writes the current word back
  /// into `expected` on failure, and that word is returned as `observed`.
  /// The words are taken BY VALUE. With `const Word&` parameters, gcc 12
  /// -O2 compiled the retry loop of CasRllscAlg::ll_interleaved (a CAS, then
  /// a poll coroutine, then `cur = r.observed`) so that each retry's
  /// `expected` was the word observed one attempt earlier, while `desired`
  /// was built from the current one. When head's value recurred, that stale
  /// CAS could succeed and write an old state back: the rt universal lost or
  /// repeated operations, or hung. Copying the words at the call leaves the
  /// inlined CAS no reference into the coroutine frame.
  static auto cas(CasCell& cell, Word expected, Word desired) {
    return probed([&] { return rt::cas128_cas(cell, expected, desired); });
  }
  /// Write(X, desired) — one seq_cst 16-byte atomic store; 1 step.
  static auto cas_write(CasCell& cell, Word desired) {
    return probed([&] {
      rt::cas128_write(cell, desired);
      return true;
    });
  }
  /// Observer-side peek — not an algorithm step.
  static Word peek_cas(const CasCell& cell) { return rt::cas128_read(cell); }
  /// False iff libatomic fell back to a lock table (no CMPXCHG16B).
  static bool cas_is_lock_free(const CasCell& cell) {
    return cell.word.is_lock_free();
  }
  /// A failure-word CAS retry loop as a frameless task (env.h
  /// "cas_loop"): a plain loop over the same cas_read/cas calls, so each
  /// primitive still runs (and probes) at its call, in order, and a failed
  /// CAS's observed word is the next attempt's `expected`. The poll, when
  /// the plan has one, is a primitive or a Sub, so it has already run by
  /// the time it returns. No coroutine frame, and no loop state kept across
  /// an await.
  template <typename Task, detail::CasPlan<Word> Plan>
  static Task cas_loop(CasCell& cell, Plan plan) {
    Word cur = cas_read(cell).await_resume();
    for (;;) {
      const std::optional<Word> next = plan.want(cur);
      if (!next.has_value()) return Task::ready(plan.stopped(cur));
      const algo::CasResult<Word> r = cas(cell, cur, *next).await_resume();
      if (r.installed) return Task::ready(plan.done(cur));
      if constexpr (detail::PolledCasPlan<Plan>) {
        auto poll = plan.poll();
        assert(poll.await_ready() && "RtEnv awaitables never suspend");
        if (poll.await_resume()) return Task::ready(plan.bailed());
      }
      cur = r.observed;
    }
  }
  /// Local scheduling hint for spin retries — never a step, never touches
  /// shared memory. On real threads, hand the core back so a preempted peer
  /// (e.g. a flat-combining winner mid-phase) can finish.
  static void relax() noexcept { std::this_thread::yield(); }

  // ---- arrays of 64-bit CAS words (per-process announce/result tables) ----

  using WordArray = std::vector<rt::WordCell>;

  /// Allocates `count` cache-line-padded atomic words, all starting at
  /// `initial`. 0-based indices (per-process cells keyed by pid).
  /// Construction only.
  static WordArray make_word_array(Ctx, const char* /*prefix*/,
                                   std::uint32_t count, std::uint64_t initial) {
    WordArray array(count);
    for (auto& cell : array) cell->store(initial, std::memory_order_relaxed);
    return array;
  }

  /// read(W[index]) — one seq_cst atomic load; 1 step.
  static auto read_word(WordArray& array, std::uint32_t index) {
    return probed([&] { return rt::word_read(*array[index]); });
  }
  /// write(W[index], value) — one seq_cst atomic store; 1 step.
  static auto write_word(WordArray& array, std::uint32_t index,
                         std::uint64_t value) {
    return probed([&] {
      rt::word_write(*array[index], value);
      return true;
    });
  }
  /// CAS(W[index], expected, desired) — one LOCK CMPXCHG; 1 step,
  /// failure-word semantics as for cas().
  static auto cas_word(WordArray& array, std::uint32_t index,
                       std::uint64_t expected, std::uint64_t desired) {
    return probed(
        [&] { return rt::word_cas(*array[index], expected, desired); });
  }
  /// Observer-side peek — not an algorithm step.
  static std::uint64_t peek_word(const WordArray& array, std::uint32_t index) {
    return array[index]->load(std::memory_order_seq_cst);
  }
};

using RtEnv = RtEnvT<NoProbe>;

static_assert(ExecutionEnv<RtEnv>);

}  // namespace hi::env
