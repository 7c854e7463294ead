// The execution-environment abstraction.
//
// Every algorithm in src/algo is written ONCE as a coroutine templated over
// an environment policy `Env` that supplies:
//
//   Ctx                       — construction context, passed to algorithm
//                               constructors (the simulator's Memory&; an
//                               empty tag on hardware);
//   Op<T> / Sub<T>            — the coroutine types for a high-level
//                               operation and for an internal helper. In the
//                               simulator these are sim::OpTask/sim::SubTask
//                               (every primitive suspends; one scheduler
//                               resume == one step of the paper's §2 model).
//                               On hardware they are EagerTask: no awaitable
//                               ever suspends, so the coroutine runs to
//                               completion synchronously inside the call;
//   lift<Task>(source, fn)    — a body that is ONE awaited primitive (or
//                               Sub) plus local computation, as a Task:
//                               the one-await coroutine itself in the
//                               simulator; on hardware, where the primitive
//                               already ran at its call, a frameless
//                               EagerTask::ready(fn(result)) — no coroutine
//                               frame, no arena traffic;
//   lift_each<Task>(count, source, sink)
//                             — a body of `count` independent primitives
//                               (or Subs): step i awaits source(i), and
//                               sink(i, result) consumes the results in
//                               order; the task's value is sink.done(). A
//                               coroutine awaiting each step in the
//                               simulator; on hardware a plain loop over
//                               the same primitive calls returning
//                               Task::ready(sink.done()) — no frame;
//   cas_loop<Task>(cell, plan)
//                             — a failure-word CAS retry loop on one CasCell
//                               (Algorithm 6's LL/SC/RL): cas_read, then one
//                               cas per attempt against plan.want(cur), with
//                               plan.poll() between a failed attempt and the
//                               next (CasPlan below). A coroutine in the
//                               simulator; on hardware a plain loop over the
//                               same primitive calls returning Task::ready —
//                               no frame;
//   BinArray + read_bit/write_bit/peek_bit
//                             — an array of binary (Boolean) registers, the
//                               small base objects of the §4/§5.1 algorithms;
//   Value, CasCell + cas_read/cas/cas_write/peek_cas
//                             — one CAS base object over CtxWord<Value>, the
//                               base object of Algorithm 6 (§6.3);
//   WordArray + read_word/write_word/cas_word/peek_word
//                             — an array of 64-bit CAS words, the
//                               per-process announce/result tables of the
//                               leaky (non-HI) universal baseline.
//
// The 11 primitives (read_bit/write_bit, load_packed_word/or_packed_word/
// and_packed_word, cas_read/cas/cas_write, read_word/write_word/cas_word)
// return AWAITABLES: in the simulator each is a sim::Primitive that suspends
// until the scheduler grants the process its step; on hardware the
// std::atomic operation runs inside the primitive call itself and the
// awaitable is a detail::Done carrying only its result. Each awaitable
// costs exactly ONE primitive step — in particular cas/cas_word are
// failure-word CASes (the result is an algo::CasResult carrying the word
// observed at the step), so retry loops cost one primitive per attempt
// rather than a CAS plus a re-read. The peek_* functions are observer-side
// (never a step of the model) and are what memory_image()/parity checks are
// built from.
//
// Allocation contract: the coroutine frames behind Op/Sub are the
// environment's cost to manage, not the algorithm's. RtEnv backs every
// EagerTask frame with a per-thread recycling arena so the hardware fast
// path is allocation-free in steady state (tests/test_rt_alloc.cpp; see
// docs/PERF.md); SimEnv frames are ordinary heap
// allocations, fine for model checking. Algorithm bodies should still keep
// helper-call chains shallow — at most one live Sub per nesting level —
// because a frame is recycled only when its task is destroyed.
//
// The full contract — memory-step semantics, the one-resume-one-step
// invariant in SimEnv, the EagerTask rules in RtEnv, the frame-arena
// lifecycle, and how to add a backend — is documented in docs/ENV.md.
//
// The payoff: one algorithm definition gets exhaustive interleaving checks
// and HI model checking from the SimEnv instantiation, and real-thread
// stress tests plus hardware benchmarks from the RtEnv instantiation.
#pragma once

#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "util/bits.h"
#include "util/padded.h"

namespace hi::env {

namespace detail {

/// Awaiter adapter: forwards readiness/suspension to an inner awaitable and
/// applies `fn` to its result. Zero-allocation; PackedBins::read uses it to
/// extract one bin from a word load without an intermediate coroutine
/// frame.
template <typename Awaitable, typename Fn>
struct [[nodiscard]] MapAwait {
  Awaitable inner;
  Fn fn;

  bool await_ready() noexcept(noexcept(inner.await_ready())) {
    return inner.await_ready();
  }
  auto await_suspend(std::coroutine_handle<> handle) {
    return inner.await_suspend(handle);
  }
  auto await_resume() { return fn(inner.await_resume()); }
};

template <typename Awaitable, typename Fn>
MapAwait(Awaitable, Fn) -> MapAwait<Awaitable, Fn>;

/// An already-computed value as an awaitable: the shape RtEnvT (and so
/// FuzzEnv) returns from every primitive. The atomic access executes inside
/// the primitive call itself, while all argument references are trivially
/// alive, and only the plain result value rides through the await
/// transform. Carrying argument *captures* through nested always-ready
/// awaiters instead (an awaiter running a lambda at await_resume, nested
/// inside another) was observed to miscompile under GCC 12 with -DNDEBUG:
/// in a CAS retry loop the captured `expected` word lagged the refreshed value
/// by one iteration and was transiently clobbered with bytes from a nested
/// poll coroutine's frame, letting a stale CAS succeed and resurrect a
/// retired flat-combining record (livelock). A value-only payload with no
/// lambda and no nesting gives the transform nothing to get wrong.
template <typename T>
struct [[nodiscard]] Done {
  T value;

  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return std::move(value); }
};

/// An already-computed value as an awaitable; also lets bool-returning
/// legacy polls satisfy the awaitable-poll interface of ll_interleaved.
template <typename T>
auto ready(T value) {
  return Done<T>{std::move(value)};
}

/// The source of an Env::lift: an awaitable, or a nullary callable that
/// builds one. The callable form exists for a lifted Op that awaits a Sub:
/// a scheduler-driven Op starts lazily, while a Sub starts eagerly where it
/// is built, so the Sub must be built inside the Op's first resume — as it
/// is in a coroutine body — not at the call that makes the Op.
template <typename Source>
concept DeferredSource = std::invocable<Source&>;

/// Env::lift for the scheduler-driven backends (SchedEnvT): a
/// one-await coroutine, the body as it would be written by hand, so the
/// step sequence is the source's own.
template <typename Task, typename Source, typename Fn>
Task lift_await(Source source, Fn fn) {
  if constexpr (DeferredSource<Source>) {
    auto result = co_await source();
    co_return fn(std::move(result));
  } else {
    auto result = co_await std::move(source);
    co_return fn(std::move(result));
  }
}

/// Env::lift_each for the scheduler-driven backends: awaits source(0),
/// source(1), … in turn, each built inside the resume that awaits it, and
/// hands each result to sink(i, result) — the loop as it would be written
/// by hand, so the step sequence is the sources' own.
template <typename Task, typename Source, typename Sink>
Task lift_each_await(std::uint32_t count, Source source, Sink sink) {
  for (std::uint32_t i = 0; i < count; ++i) {
    auto result = co_await source(i);
    sink(i, std::move(result));
  }
  co_return sink.done();
}

/// The plan of an Env::cas_loop over CAS words of type Word. want(cur) is
/// the word to CAS against the current word `cur`, or nullopt to stop with
/// stopped(cur); done(cur) is the result once a CAS against `cur`
/// installs. want/done/stopped are local computation, never steps.
template <typename Plan, typename Word>
concept CasPlan = requires(Plan& plan, const Word& cur) {
  { plan.want(cur) } -> std::same_as<std::optional<Word>>;
  plan.done(cur);
  plan.stopped(cur);
};

/// A CasPlan with Algorithm 5's `‖` right-hand side: poll() — a nullary
/// call returning an awaitable of bool (a primitive or a Sub) — runs
/// between a failed CAS and the next attempt, and a true poll ends the
/// loop with bailed().
template <typename Plan>
concept PolledCasPlan = requires(Plan& plan) {
  plan.poll();
  plan.bailed();
};

/// Env::cas_loop for the scheduler-driven backends: cas_read, then one
/// cas per attempt, each failed attempt followed by the plan's poll — the
/// loop as it would be written by hand, so the step sequence is the
/// primitives' (and the poll's) own.
template <typename Task, typename Env, CasPlan<typename Env::Word> Plan>
Task cas_loop_await(typename Env::CasCell& cell, Plan plan) {
  using Word = typename Env::Word;
  Word cur = co_await Env::cas_read(cell);
  for (;;) {
    const std::optional<Word> next = plan.want(cur);
    if (!next.has_value()) co_return plan.stopped(cur);
    const auto r = co_await Env::cas(cell, cur, *next);
    if (r.installed) co_return plan.done(cur);
    if constexpr (PolledCasPlan<Plan>) {
      const bool bail = co_await plan.poll();
      if (bail) co_return plan.bailed();
    }
    cur = r.observed;
  }
}

/// The plan ExecutionEnv instantiates cas_loop with: stops at the first
/// read.
struct StopPlan {
  template <typename Word>
  std::optional<Word> want(const Word&) const {
    return std::nullopt;
  }
  template <typename Word>
  int done(const Word&) const {
    return 1;
  }
  template <typename Word>
  int stopped(const Word&) const {
    return 0;
  }
};

}  // namespace detail

/// A lift_each sink that sums the steps' results.
template <typename T>
struct Total {
  T total{};

  void operator()(std::uint32_t, T value) { total += value; }
  T done() const { return total; }
};

// ---------------------------------------------------------------------------
// Bin-array layouts and the word-scan library.
//
// The §4/§5.1 algorithms spend their hot paths scanning an array of binary
// registers. Two memory representations of the same abstract bins are
// supported, selected per instantiation through a `Bins` traits policy the
// algorithm bodies are templated over:
//
//   PaddedBins<Env>  — one base object per bin (BinArray). Every scan step
//                      reads or writes ONE bin: exactly the paper's
//                      single-bit register primitives, O(K) steps per scan.
//                      On hardware each bin is its own cache-line-padded
//                      atomic byte (K=1024 ⇒ 64 KiB, scans walk up to K
//                      lines) — false-sharing-free but scan-hostile.
//   PackedBins<Env>  — 64 bins per word-sized base object (PackedBinArray).
//                      Every scan step LOADS one whole word (a free 64-bin
//                      snapshot — strictly stronger than the paper's
//                      single-bit read) or RMWs up to 64 bins via
//                      fetch_or/fetch_and, so scans cost O(K/64) steps and
//                      on hardware touch O(K/64) unpadded, contiguous
//                      cache lines (K=1024 ⇒ 128 bytes = 2 lines). The
//                      price is word contention between bins sharing a
//                      word.
//
// HI is preserved by packing because the packed word vector is a pure
// function of the abstract bin contents — can(v) maps to exactly one word
// image — so every canonical-representation argument (state-quiescent HI
// for Algorithms 2/3, quiescent HI for Algorithm 4, perfect HI for the
// §5.1 set) carries over verbatim; only the base-object granularity of
// mem(C) changes. See docs/ENV.md "Packed bin arrays" and the deviation
// note in docs/PAPER_MAP.md.
//
// Step costs (each co_await below = exactly ONE primitive step):
//
//   op                  PaddedBins                PackedBins
//   read(a, v)          1 (bit read)              1 (word load + extract)
//   set/clear(a, v)     1 (bit write)             1 (fetch_or/fetch_and)
//   scan_up(a, from)    1 per bin examined        1 word load per 64 bins
//   scan_down(a, from)  1 per bin examined        1 word load per 64 bins
//   scan_members(a, f)  1 per bin (size(a))       1 word load per word
//   clear_down(a, from) `from` bit writes         1 fetch_and per word
//   clear_up(a, from)   size-from+1 bit writes    1 fetch_and per word
//
// The scans are Subs (multi-step operations built from one-step
// primitives), so the simulator explores every interleaving point between
// word accesses and the explorer/replay suites model-check the packed
// granularity like any other primitive sequence. PackedBins::scan_members,
// clear_down and clear_up are Env::lift_each loops over their word
// accesses: the same one-await-per-word coroutine on the scheduler-driven
// backends, a frameless loop on RtEnvT. The decode between loads is local
// computation and costs no step.
// ---------------------------------------------------------------------------

/// The padded-per-bit layout: delegates to the environment's BinArray
/// primitives. Scan/clear loops reproduce the §4/§5.1 bodies' original
/// bit-at-a-time primitive sequences EXACTLY (same objects, same order), so
/// instantiations that predate packing — including persisted ScheduleTrace
/// literals and step-count tests — are unaffected by the Bins refactor.
template <typename Env>
struct PaddedBins {
  using Array = typename Env::BinArray;
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  /// One-hot initializer: bin `one_index` (1-based; 0 = none) starts at 1,
  /// every other bin at 0 — the §4 registers' A[initial].
  static Array make(typename Env::Ctx ctx, const char* prefix,
                    std::uint32_t count, std::uint32_t one_index) {
    return make_bits(ctx, prefix, count, util::one_hot_words(one_index));
  }
  /// Multi-word initializer: word w of `words` seeds bins 64w+1..64w+64
  /// (bit v-1 of the flat bitmap = bin v); missing trailing words read as 0
  /// and bits beyond `count` are dropped (util::init_word defines that
  /// geometry).
  static Array make_bits(typename Env::Ctx ctx, const char* prefix,
                         std::uint32_t count,
                         std::span<const std::uint64_t> words) {
    return Env::make_bin_array_words(ctx, prefix, count, words);
  }

  static std::uint32_t size(const Array& a) {
    return static_cast<std::uint32_t>(a.size());
  }

  /// read(A[v]) — 1 step.
  static auto read(Array& a, std::uint32_t v) { return Env::read_bit(a, v); }
  /// A[v] ← 1 — 1 step.
  static auto set(Array& a, std::uint32_t v) { return Env::write_bit(a, v, 1); }
  /// A[v] ← 0 — 1 step.
  static auto clear(Array& a, std::uint32_t v) {
    return Env::write_bit(a, v, 0);
  }
  /// Observer-side peek — 0 steps.
  static std::uint8_t peek(const Array& a, std::uint32_t v) {
    return Env::peek_bit(a, v);
  }

  /// First set bin at-or-above `from`, else 0 — 1 step per bin examined,
  /// ascending, stopping at the first 1 (Algorithm 1/3's upward scan).
  static Sub<std::uint32_t> scan_up(Array& a, std::uint32_t from) {
    const std::uint32_t limit = size(a);
    for (std::uint32_t j = from; j <= limit; ++j) {
      const std::uint8_t bit = co_await Env::read_bit(a, j);
      if (bit == 1) co_return j;
    }
    co_return 0;
  }

  /// First set bin at-or-below `from`, else 0 — 1 step per bin examined,
  /// descending, stopping at the first 1. Iterating scan_down until it
  /// returns 0 reads every bin below the start exactly once, descending —
  /// the §4 downward confirmation scan, decomposed.
  static Sub<std::uint32_t> scan_down(Array& a, std::uint32_t from) {
    for (std::uint32_t j = from; j >= 1; --j) {
      const std::uint8_t bit = co_await Env::read_bit(a, j);
      if (bit == 1) co_return j;
    }
    co_return 0;
  }

  /// Every set bin, ascending, passed to `emit` — exactly one bit read per
  /// bin, size(a) steps whatever the membership (the §5.1 audit). Returns
  /// the number of bins emitted.
  template <typename Emit>
  static Sub<std::uint32_t> scan_members(Array& a, Emit emit) {
    const std::uint32_t limit = size(a);
    std::uint32_t found = 0;
    for (std::uint32_t j = 1; j <= limit; ++j) {
      const std::uint8_t bit = co_await Env::read_bit(a, j);
      if (bit == 1) {
        emit(j);
        ++found;
      }
    }
    co_return found;
  }

  /// A[from], A[from-1], …, A[1] ← 0 — one bit write per bin, descending
  /// (Algorithm 1/2 line "for j = v−1 down to 1"). from == 0 is a no-op.
  static Sub<bool> clear_down(Array& a, std::uint32_t from) {
    for (std::uint32_t j = from; j >= 1; --j) {
      co_await Env::write_bit(a, j, 0);
    }
    co_return true;
  }

  /// A[from], A[from+1], …, A[K] ← 0 — one bit write per bin, ascending
  /// (Algorithm 2 line "for j = v+1 to K"). from > K is a no-op.
  static Sub<bool> clear_up(Array& a, std::uint32_t from) {
    const std::uint32_t limit = size(a);
    for (std::uint32_t j = from; j <= limit; ++j) {
      co_await Env::write_bit(a, j, 0);
    }
    co_return true;
  }

  /// Bytes behind the shared representation (observer-side): the actual
  /// padded-cell storage on RtEnv, the modeled snapshot-word footprint on
  /// the scheduler-driven backends.
  static std::size_t footprint_bytes(const Array& a) {
    return Env::bin_storage_bytes(a);
  }
};

/// The packed layout: 64 bins per word, scans via one word load per 64 bins
/// plus TZCNT/LZCNT, clears via one masked fetch_and per word. Requires the
/// environment's PackedBinArray primitives (load_packed_word /
/// or_packed_word / and_packed_word — one step each).
template <typename Env>
struct PackedBins {
  using Array = typename Env::PackedBinArray;
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  /// One-hot initializer — see the PaddedBins counterpart.
  static Array make(typename Env::Ctx ctx, const char* prefix,
                    std::uint32_t count, std::uint32_t one_index) {
    return make_bits(ctx, prefix, count, util::one_hot_words(one_index));
  }
  /// Multi-word initializer — see the PaddedBins counterpart for the word
  /// geometry contract. RtEnv copies the words in bulk rather than calling
  /// util::init_word per word, and must produce init_word's words:
  /// PackedRt.*BitsInitializationRoundTrip and
  /// EnvParity.ShardedSeedIsInsertsOfSeededKeys check that.
  static Array make_bits(typename Env::Ctx ctx, const char* prefix,
                         std::uint32_t count,
                         std::span<const std::uint64_t> words) {
    return Env::make_packed_bin_array_words(ctx, prefix, count, words);
  }

  static std::uint32_t size(const Array& a) { return Env::packed_bins(a); }

  /// read(A[v]) — 1 step: one word load, bit extracted locally.
  static auto read(Array& a, std::uint32_t v) {
    return detail::MapAwait{
        Env::load_packed_word(a, util::bin_word(v)),
        [v](std::uint64_t word) {
          return static_cast<std::uint8_t>((word >> util::bin_bit(v)) & 1u);
        }};
  }
  /// A[v] ← 1 — 1 step: one fetch_or on the containing word.
  static auto set(Array& a, std::uint32_t v) {
    return Env::or_packed_word(a, util::bin_word(v), util::bin_mask(v));
  }
  /// A[v] ← 0 — 1 step: one fetch_and on the containing word.
  static auto clear(Array& a, std::uint32_t v) {
    return Env::and_packed_word(a, util::bin_word(v), ~util::bin_mask(v));
  }
  /// Observer-side peek — 0 steps.
  static std::uint8_t peek(const Array& a, std::uint32_t v) {
    return static_cast<std::uint8_t>(
        (Env::peek_packed_word(a, util::bin_word(v)) >> util::bin_bit(v)) &
        1u);
  }

  /// First set bin at-or-above `from`, else 0 — one word load per 64 bins,
  /// ascending; TZCNT picks the lowest hit inside the first nonzero word.
  /// Bins beyond size(a) are never set (factory + set() maintain this), so
  /// the tail word needs no trimming.
  static Sub<std::uint32_t> scan_up(Array& a, std::uint32_t from) {
    const std::uint32_t nwords = Env::packed_words(a);
    std::uint64_t mask = util::mask_from(util::bin_bit(from));
    for (std::uint32_t w = util::bin_word(from); w < nwords; ++w) {
      const std::uint64_t word = co_await Env::load_packed_word(a, w);
      const std::uint64_t hits = word & mask;
      if (hits != 0) co_return w * 64 + util::lowest_set(hits) + 1;
      mask = ~std::uint64_t{0};
    }
    co_return 0;
  }

  /// First set bin at-or-below `from`, else 0 — one word load per 64 bins,
  /// descending; LZCNT picks the highest hit inside the first nonzero word.
  static Sub<std::uint32_t> scan_down(Array& a, std::uint32_t from) {
    if (from == 0) co_return 0;
    std::uint64_t mask = util::mask_upto(util::bin_bit(from));
    for (std::uint32_t w = util::bin_word(from) + 1; w-- > 0;) {
      const std::uint64_t word = co_await Env::load_packed_word(a, w);
      const std::uint64_t hits = word & mask;
      if (hits != 0) co_return w * 64 + util::highest_set(hits) + 1;
      mask = ~std::uint64_t{0};
    }
    co_return 0;
  }

  /// Every set bin, ascending, passed to `emit` — exactly one word load per
  /// word, whatever the membership: each member is extracted from the one
  /// loaded value, so all members sharing a word come from one atomic
  /// observation. Returns the number of bins emitted. An Env::lift_each
  /// over the loads, decoded by util::MemberSink.
  ///
  /// On RtEnv the word loop is inlined here, so HI_ALIGN_LOOPS pins its
  /// head to a 64-byte boundary: without the pin, code added anywhere
  /// earlier in a translation unit can shift the loop and move the audit's
  /// latency by 20–30% (docs/PERF.md "How to read a regression").
  template <typename Emit>
  HI_ALIGN_LOOPS static Sub<std::uint32_t> scan_members(Array& a, Emit emit) {
    return Env::template lift_each<Sub<std::uint32_t>>(
        Env::packed_words(a),
        [&a](std::uint32_t w) { return Env::load_packed_word(a, w); },
        util::MemberSink<Emit>{std::move(emit)});
  }

  /// A[from..1] ← 0 — ONE masked fetch_and per word, descending: the word
  /// holding `from` keeps its bins above `from`; lower words clear fully.
  /// from == 0 is a no-op. An Env::lift_each: step i is word words − 1 − i.
  static Sub<bool> clear_down(Array& a, std::uint32_t from) {
    const std::uint32_t words = from == 0 ? 0 : util::bin_word(from) + 1;
    const std::uint64_t keep =
        from == 0 ? 0 : ~util::mask_upto(util::bin_bit(from));
    return Env::template lift_each<Sub<bool>>(
        words,
        [&a, words, keep](std::uint32_t i) {
          return Env::and_packed_word(a, words - 1 - i, i == 0 ? keep : 0);
        },
        Cleared{});
  }

  /// A[from..K] ← 0 — ONE masked fetch_and per word, ascending: the word
  /// holding `from` keeps its bins below `from`; higher words clear fully
  /// (tail bits beyond K are already 0). from > K is a no-op. An
  /// Env::lift_each: step i is word bottom + i.
  static Sub<bool> clear_up(Array& a, std::uint32_t from) {
    const std::uint32_t bottom = util::bin_word(from);
    const std::uint64_t keep = ~util::mask_from(util::bin_bit(from));
    return Env::template lift_each<Sub<bool>>(
        from > size(a) ? 0 : Env::packed_words(a) - bottom,
        [&a, bottom, keep](std::uint32_t i) {
          return Env::and_packed_word(a, bottom + i, i == 0 ? keep : 0);
        },
        Cleared{});
  }

  /// Bytes behind the shared representation (see PaddedBins counterpart).
  static std::size_t footprint_bytes(const Array& a) {
    return Env::packed_storage_bytes(a);
  }

 private:
  /// The clears' sink: every fetch_and's result is `true`, and so is the
  /// clear's.
  struct Cleared {
    void operator()(std::uint32_t, bool) const {}
    bool done() const { return true; }
  };
};

/// The §4/§5.1 downward confirmation pass, shared by every reader
/// (Algorithm 1's Read, Algorithm 3's TryRead, the max register's
/// ReadMax): having found a 1 at `from_hit`, read every bin below it
/// descending and return the smallest 1 seen (or `from_hit` if none).
/// Decomposed as iterated Bins::scan_down — each call stops at its first
/// 1, so the union of the calls reads each bin exactly once, descending:
/// bit-for-bit the paper's loop under PaddedBins, one word load per 64
/// bins (plus one reload per additional hit sharing a word) under
/// PackedBins.
template <typename Bins>
typename Bins::template Sub<std::uint32_t> confirm_down(
    typename Bins::Array& a, std::uint32_t from_hit) {
  std::uint32_t val = from_hit;
  std::uint32_t cur = from_hit - 1;
  while (cur >= 1) {
    const std::uint32_t hit = co_await Bins::scan_down(a, cur);
    if (hit == 0) break;
    val = hit;
    cur = hit - 1;
  }
  co_return val;
}

/// Structural requirements every execution environment satisfies. Kept
/// intentionally shallow (the awaitable-returning statics cannot be
/// expressed without picking a coroutine context); the real contract is
/// documented above and enforced by the algo-layer instantiations.
template <typename E>
concept ExecutionEnv = requires {
  typename E::Ctx;
  typename E::BinArray;
  typename E::PackedBinArray;
  typename E::Value;
  typename E::Word;
  typename E::CasCell;
  typename E::WordArray;
  typename E::template Op<int>;
  typename E::template Sub<int>;
  E::relax();
  {
    E::template lift<typename E::template Op<int>>(detail::ready(0),
                                                   [](int v) { return v; })
  } -> std::same_as<typename E::template Op<int>>;
  {
    E::template lift_each<typename E::template Op<int>>(
        2, [](std::uint32_t i) { return detail::ready(int(i)); },
        Total<int>{})
  } -> std::same_as<typename E::template Op<int>>;
  {
    E::template cas_loop<typename E::template Op<int>>(
        std::declval<typename E::CasCell&>(), detail::StopPlan{})
  } -> std::same_as<typename E::template Op<int>>;
};

}  // namespace hi::env
