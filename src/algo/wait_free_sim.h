// Wait-free simulation of a normalized lock-free algorithm — the
// Kogan–Petrank transform (help queue + fast-path/slow-path + operation
// records with versioned CAS), written once over the Env abstraction so the
// SAME combinator body runs under SimEnv (exhaustive interleavings + step
// counts), RtEnv (hardware benchmarks), ReplayEnv (schedule re-execution)
// and FuzzEnv (real-thread yield fuzzing).
//
// Why it exists here: the paper's Theorem 17 (and Corollary 18) prove that
// wait-freedom and state-quiescent history independence are incompatible
// for most objects. This combinator is the empirical probe of that
// boundary: it wraps the lock-free state-quiescent-HI register of
// Algorithms 2+3 and yields a WAIT-FREE register — so by Thm 17 the result
// MUST lose state-quiescent HI, and it does, in exactly the words this file
// adds: per-process operation records and the help-queue ring/head/tail
// counters persist across quiescence and encode how often (and in which
// order) readers were forced onto the slow path. tests/test_waitfree_sim.cpp
// pins the violation and asserts it is localized to those words; the inner
// A array stays canonical.
//
// Shape of the transform (vs the original):
//   * The inner algorithm is presented in NORMALIZED form: a single
//     `attempt(op_word)` Sub performing one bounded try — nullopt means a
//     contention failure (for Alg 3's TryRead: the scan chased a moving 1).
//   * Operation records: one 64-bit word per process,
//     [63:62] state (idle/pending/done) | [61:32] seq | [31:0] payload
//     (the op word while pending, the result once done). The owner
//     announces pending(seq, op) with a plain write (single writer per
//     record); completion is ONE CAS pending→done, so exactly one of
//     {owner, helpers} installs the result, and the seq field makes a
//     stale helper's CAS fail harmlessly.
//   * Help queue: a bounded ring of `4 × processes` versioned slots,
//     [63:8] round | [7:0] pid+1 (0 = empty at that round), plus monotone
//     head/tail index words. Slot i serves indices i, i+cap, i+2·cap, …;
//     retiring an entry re-arms its slot for the next round, so the ABA
//     window is a full 2^56-round wraparound. Enqueue claims the tail slot
//     with a CAS and then helps advance tail; anyone can retire a completed
//     head entry and advance head.
//   * Every operation HELPS THE HEAD ENTRY FIRST, then runs its fast path
//     (up to `fast_limit` inner attempts, suppressed entirely while the
//     process's contention-failure streak is ≥ fast_limit), then announces,
//     enqueues, and helps until its own record is done.
//
// Progress argument for the register instantiation (WaitFreeSimHiAlg,
// single writer, reads helped): while any process helps the head read, the
// helper itself performs no conflicting writes; in the single-writer
// workloads the ladder checks, the writer's pre-write help runs when no
// write is in flight, so the helped TryRead scans a stable nonzero A and
// succeeds in one attempt. A queued read is therefore completed by the
// first write that starts after it is enqueued (or by its own helping loop
// if no write intervenes) — every operation finishes within O(write steps +
// K + capacity) primitive steps, the bound the step-exact tests derive.
// The plain Alg 2 reader starves forever under the same adversarial
// schedule; tests/test_waitfree_sim.cpp shows both sides.
//
// Helping discipline for general inners: only operations whose attempts are
// read-only may go through run() (helpers may execute an attempt for a
// record that was already completed — harmless for reads, not for writes).
// Operations that mutate but already succeed in one bounded attempt (the
// Alg 2 write) go through run_direct(): they still help — that is what
// bounds the queued slow-path ops — but are never themselves enqueued, so
// their side effects run exactly once.
//
// NOTE: every co_await lands in a named local before being branched on
// (GCC 12 miscompiles awaits inside if/while conditions), and the
// combinator is built entirely from Sub coroutines so it composes under
// any outer Op (sim OpTasks are not awaitable; Subs are).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "algo/registers.h"
#include "algo/values.h"
#include "env/env.h"
#include "spec/register_spec.h"
#include "util/padded.h"

namespace hi::algo {

/// Field encodings for the operation records and help-queue slots. Pure
/// functions, shared by the combinator, the step-exact tests and the
/// HI-divergence probe.
namespace wfs {

// Operation-record states ([63:62] of the record word).
inline constexpr std::uint64_t kIdle = 0;
inline constexpr std::uint64_t kPending = 1;
inline constexpr std::uint64_t kDone = 2;

inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 30) - 1;

inline constexpr std::uint64_t rec_word(std::uint64_t state, std::uint64_t seq,
                                        std::uint64_t payload) {
  return (state << 62) | ((seq & kSeqMask) << 32) | (payload & 0xffffffffull);
}
inline constexpr std::uint64_t rec_state(std::uint64_t w) { return w >> 62; }
inline constexpr std::uint64_t rec_seq(std::uint64_t w) {
  return (w >> 32) & kSeqMask;
}
inline constexpr std::uint64_t rec_payload(std::uint64_t w) {
  return w & 0xffffffffull;
}

// Help-queue slot words: [63:8] round, [7:0] pid+1 (0 = empty this round).
inline constexpr std::uint64_t slot_empty(std::uint64_t round) {
  return round << 8;
}
inline constexpr std::uint64_t slot_word(std::uint64_t round, int pid) {
  return (round << 8) | static_cast<std::uint64_t>(pid + 1);
}
inline constexpr std::uint64_t slot_round(std::uint64_t w) { return w >> 8; }
inline constexpr int slot_pid(std::uint64_t w) {
  return static_cast<int>(w & 0xff) - 1;
}

}  // namespace wfs

/// The bounded versioned-slot help queue. A standalone class (rather than a
/// private detail of WaitFreeSim) so the step-exact tests can drive the
/// enqueue/peek/dequeue CAS protocol directly.
template <typename Env>
class HelpQueue {
 public:
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  /// What peek() saw at the head. `stale` means the head entry was already
  /// retired but the head pointer lags (the retirer is stalled between its
  /// two CASes); advance_head(head) repairs it.
  struct Peek {
    bool has = false;
    bool stale = false;
    std::uint64_t head = 0;
    std::uint64_t index = 0;  // == head when `has`
    int pid = -1;
  };

  HelpQueue(typename Env::Ctx ctx, int num_processes)
      : cap_(4 * static_cast<std::uint32_t>(num_processes)),
        slots_(Env::make_word_array(ctx, "wfs.q", cap_, wfs::slot_empty(0))),
        ctl_(Env::make_word_array(ctx, "wfs.qctl", 2, 0)) {
    assert(num_processes >= 1 && num_processes <= 0xfe);
  }

  /// Append an entry for `pid`; returns the index it landed at. 4 steps
  /// uncontended (read tail, read slot, claim CAS, tail-advance CAS); under
  /// contention the loop helps tail forward and retries, bounded because
  /// each process keeps at most two outstanding entries (capacity = 4 ×
  /// processes, asserted via the round invariant below).
  Sub<std::uint64_t> enqueue(int pid) {
    for (std::uint64_t spin = 0;; ++spin) {
      assert(spin <= 4 * std::uint64_t{cap_} && "help queue livelocked");
      const std::uint64_t t = co_await Env::read_word(ctl_, kTail);
      const std::uint64_t round = t / cap_;
      const std::uint64_t seen = co_await Env::read_word(slots_, slot_of(t));
      if (wfs::slot_round(seen) == round && wfs::slot_pid(seen) < 0) {
        const algo::CasResult<std::uint64_t> claim = co_await Env::cas_word(
            slots_, slot_of(t), seen, wfs::slot_word(round, pid));
        if (claim.installed) {
          (void)co_await Env::cas_word(ctl_, kTail, t, t + 1);
          co_return t;
        }
        // Lost the slot to a concurrent enqueuer; help tail forward, retry.
      }
      // A slot still armed for an EARLIER round would mean index t−cap was
      // never retired: the queue is full, which the outstanding-entry bound
      // makes unreachable.
      assert(wfs::slot_round(seen) >= round && "help queue overflow");
      (void)co_await Env::cas_word(ctl_, kTail, t, t + 1);
    }
  }

  /// Read the head entry without removing it — 2 steps (head, slot).
  Sub<Peek> peek() {
    Peek out;
    const std::uint64_t h = co_await Env::read_word(ctl_, kHead);
    out.head = h;
    const std::uint64_t seen = co_await Env::read_word(slots_, slot_of(h));
    const std::uint64_t round = h / cap_;
    if (wfs::slot_round(seen) == round) {
      const int pid = wfs::slot_pid(seen);
      if (pid >= 0) {
        out.has = true;
        out.index = h;
        out.pid = pid;
      }
    } else if (wfs::slot_round(seen) > round) {
      out.stale = true;
    }
    co_return out;
  }

  /// Retire entry `index` held by `pid`: re-arm its slot for the next round,
  /// then advance head — 2 steps. The head CAS runs even when the slot CAS
  /// lost (the winner may be stalled between its two CASes; head progress is
  /// what the wait-freedom bound leans on). Returns whether this caller won
  /// the retirement.
  Sub<bool> try_dequeue(std::uint64_t index, int pid) {
    const std::uint64_t round = index / cap_;
    const algo::CasResult<std::uint64_t> rearm =
        co_await Env::cas_word(slots_, slot_of(index), wfs::slot_word(round, pid),
                               wfs::slot_empty(round + 1));
    (void)co_await Env::cas_word(ctl_, kHead, index, index + 1);
    co_return rearm.installed;
  }

  /// Repair a lagging head pointer (peek() reported `stale`) — 1 step.
  Sub<bool> advance_head(std::uint64_t index) {
    return Env::template lift<Sub<bool>>(
        Env::cas_word(ctl_, kHead, index, index + 1),
        [](const algo::CasResult<std::uint64_t>& moved) {
          return moved.installed;
        });
  }

  // ---- observer side (never a step) ----

  std::uint32_t capacity() const { return cap_; }
  std::uint64_t peek_head() const { return Env::peek_word(ctl_, kHead); }
  std::uint64_t peek_tail() const { return Env::peek_word(ctl_, kTail); }
  std::uint64_t peek_slot(std::uint32_t i) const {
    return Env::peek_word(slots_, i);
  }
  /// Observer-side emptiness (meaningful at quiescence, where the tail
  /// advance of every claimed slot has landed).
  bool quiescent_empty() const { return peek_head() == peek_tail(); }

 private:
  static constexpr std::uint32_t kHead = 0;
  static constexpr std::uint32_t kTail = 1;

  std::uint32_t slot_of(std::uint64_t index) const {
    return static_cast<std::uint32_t>(index % cap_);
  }

  std::uint32_t cap_;
  typename Env::WordArray slots_;
  typename Env::WordArray ctl_;
};

/// The generic combinator. `Inner` provides
///   Sub<std::optional<std::uint64_t>> attempt(std::uint64_t op_word)
/// — one bounded normalized attempt; nullopt = contention failure. The
/// inner object is constructed FIRST, so in the sim memory layout its words
/// are the snapshot prefix and every combinator word sits in the suffix —
/// the property the HI-divergence probe localizes against.
template <typename Env, typename Inner>
class WaitFreeSim {
 public:
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  template <typename... InnerArgs>
  WaitFreeSim(typename Env::Ctx ctx, int num_processes,
              std::uint32_t fast_limit, InnerArgs&&... inner_args)
      : inner_(ctx, std::forward<InnerArgs>(inner_args)...),
        rec_(Env::make_word_array(ctx, "wfs.rec",
                                  static_cast<std::uint32_t>(num_processes),
                                  wfs::rec_word(wfs::kIdle, 0, 0))),
        queue_(ctx, num_processes),
        num_processes_(num_processes),
        fast_limit_(fast_limit),
        local_(static_cast<std::size_t>(num_processes)) {
    assert(num_processes >= 1);
  }

  /// A helped (retry-needing, read-only-attempt) operation: help the head,
  /// try the fast path, fall back to announce + enqueue + help-until-done.
  Sub<std::uint64_t> run(int pid, std::uint64_t op_word) {
    total_ops_.fetch_add(1, std::memory_order_relaxed);
    const bool helped = co_await help_head(pid);
    (void)helped;
    // Fast path: attempt until the process's contention-failure streak
    // reaches fast_limit (0 ⇒ skipped entirely). The streak resets on every
    // completion — fast success here, slow-path completion below — so it is
    // nonzero exactly between a failed attempt and the end of its operation,
    // which is when the tests observe it.
    Local& me = *local_[static_cast<std::size_t>(pid)];
    while (me.fail_streak < fast_limit_) {
      const std::optional<std::uint64_t> got = co_await inner_.attempt(op_word);
      if (got.has_value()) {
        me.fail_streak = 0;
        co_return *got;
      }
      ++me.fail_streak;
    }
    slow_entries_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seq = ++me.seq;
    const bool announced = co_await Env::write_word(
        rec_, static_cast<std::uint32_t>(pid),
        wfs::rec_word(wfs::kPending, seq, op_word));
    (void)announced;
    const std::uint64_t at = co_await queue_.enqueue(pid);
    (void)at;
    for (std::uint64_t spin = 0;; ++spin) {
      assert(spin < kSlowPathBound &&
             "helping discipline violated: slow path did not terminate");
      const std::uint64_t mine =
          co_await Env::read_word(rec_, static_cast<std::uint32_t>(pid));
      if (wfs::rec_state(mine) == wfs::kDone &&
          wfs::rec_seq(mine) == (seq & wfs::kSeqMask)) {
        me.fail_streak = 0;
        co_return wfs::rec_payload(mine);
      }
      const bool progressed = co_await help_head(pid);
      (void)progressed;
    }
  }

  /// An operation whose every attempt succeeds (the inner is already
  /// wait-free for it — e.g. the Alg 2 write): help the head entry first
  /// (the step that bounds every queued slow-path op), then run inline.
  /// Never enqueued, so its side effects execute exactly once.
  Sub<std::uint64_t> run_direct(int pid, std::uint64_t op_word) {
    total_ops_.fetch_add(1, std::memory_order_relaxed);
    const bool helped = co_await help_head(pid);
    (void)helped;
    const std::optional<std::uint64_t> got = co_await inner_.attempt(op_word);
    assert(got.has_value() &&
           "run_direct requires a single-attempt-success operation");
    co_return got.value_or(0);
  }

  /// Process the head entry once: if its record is pending, run one inner
  /// attempt on the owner's behalf and CAS the result in; if the record is
  /// (by now) done, retire the entry. Returns true iff the call made
  /// progress (completed, retired, or repaired a stale head). A contention
  /// failure of the helped attempt leaves the entry queued for the next
  /// helper.
  Sub<bool> help_head(int helper_pid) {
    const typename HelpQueue<Env>::Peek p = co_await queue_.peek();
    if (!p.has) {
      if (p.stale) {
        const bool moved = co_await queue_.advance_head(p.head);
        co_return moved;
      }
      co_return false;
    }
    const std::uint64_t rec =
        co_await Env::read_word(rec_, static_cast<std::uint32_t>(p.pid));
    if (wfs::rec_state(rec) == wfs::kPending) {
      const std::optional<std::uint64_t> got =
          co_await inner_.attempt(wfs::rec_payload(rec));
      if (!got.has_value()) co_return false;
      const algo::CasResult<std::uint64_t> install = co_await Env::cas_word(
          rec_, static_cast<std::uint32_t>(p.pid), rec,
          wfs::rec_word(wfs::kDone, wfs::rec_seq(rec), *got));
      if (install.installed && helper_pid != p.pid) {
        helped_completions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const bool retired = co_await queue_.try_dequeue(p.index, p.pid);
    (void)retired;
    co_return true;
  }

  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }
  HelpQueue<Env>& queue() { return queue_; }
  const HelpQueue<Env>& queue() const { return queue_; }

  // ---- observer side (never a step) ----

  int num_processes() const { return num_processes_; }
  std::uint32_t fast_limit() const { return fast_limit_; }
  std::uint64_t peek_record(int pid) const {
    return Env::peek_word(rec_, static_cast<std::uint32_t>(pid));
  }
  std::uint32_t fail_streak(int pid) const {
    return local_[static_cast<std::size_t>(pid)]->fail_streak;
  }
  std::uint64_t total_ops() const {
    return total_ops_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_path_entries() const {
    return slow_entries_.load(std::memory_order_relaxed);
  }
  std::uint64_t helped_completions() const {
    return helped_completions_.load(std::memory_order_relaxed);
  }
  void reset_stats() {
    total_ops_.store(0, std::memory_order_relaxed);
    slow_entries_.store(0, std::memory_order_relaxed);
    helped_completions_.store(0, std::memory_order_relaxed);
  }

  /// The combinator's shared words (records, then head, tail, then the ring
  /// slots) appended as 8 little-endian bytes each. This is the non-HI
  /// residue the Thm 17 probe pins.
  void encode_combinator_words(std::vector<std::uint8_t>& out) const {
    const auto push_word = [&out](std::uint64_t w) {
      for (int b = 0; b < 8; ++b) {
        out.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
      }
    };
    for (int pid = 0; pid < num_processes_; ++pid) push_word(peek_record(pid));
    push_word(queue_.peek_head());
    push_word(queue_.peek_tail());
    for (std::uint32_t i = 0; i < queue_.capacity(); ++i) {
      push_word(queue_.peek_slot(i));
    }
  }

  /// Logical bytes of combinator shared state (records + head/tail + ring).
  std::size_t combinator_bytes() const {
    return 8 * (static_cast<std::size_t>(num_processes_) + 2 +
                queue_.capacity());
  }

 private:
  // Generous backstop for the owner's help loop: reachable only if the
  // helping discipline is broken (a mutating op routed through run(), or a
  // workload with no helpers), in which case failing loudly beats spinning.
  static constexpr std::uint64_t kSlowPathBound = std::uint64_t{1} << 22;

  Inner inner_;  // constructed first: snapshot prefix, stays canonical
  typename Env::WordArray rec_;
  HelpQueue<Env> queue_;
  int num_processes_;
  std::uint32_t fast_limit_;
  // Owner-local bookkeeping (never shared memory, never part of mem(C)):
  // each entry is touched only by its owning process, and padded so
  // hardware threads do not false-share.
  struct Local {
    std::uint64_t seq = 0;
    std::uint32_t fail_streak = 0;
  };
  std::vector<util::Padded<Local>> local_;
  // Observer-side stats; relaxed atomics so real-thread harnesses can read
  // them race-free.
  std::atomic<std::uint64_t> total_ops_{0};
  std::atomic<std::uint64_t> slow_entries_{0};
  std::atomic<std::uint64_t> helped_completions_{0};
};

/// The lock-free Alg 2/3 register in normalized form: one `attempt` entry
/// point over 32-bit op words (bit 31 = write flag, low bits = the value;
/// reads encode as 0). A read attempt is one TryRead (Alg 3) and may fail;
/// a write attempt is the full Alg 2 write body and cannot.
template <typename Env, typename Bins>
class NormalizedHiRegister {
 public:
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  static constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 31;
  static constexpr std::uint64_t encode_read() { return 0; }
  static constexpr std::uint64_t encode_write(std::uint32_t value) {
    return kWriteBit | value;
  }

  NormalizedHiRegister(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                       int writer_pid, int reader_pid)
      : alg_(ctx, spec, writer_pid, reader_pid) {}

  Sub<std::optional<std::uint64_t>> attempt(std::uint64_t op_word) {
    if ((op_word & kWriteBit) != 0) {
      const auto value = static_cast<std::uint32_t>(op_word & ~kWriteBit);
      const std::uint32_t echoed = co_await alg_.write_sub(value);
      co_return std::uint64_t{echoed};
    }
    const std::optional<std::uint32_t> got = co_await alg_.attempt_read();
    if (!got.has_value()) co_return std::nullopt;
    co_return std::uint64_t{*got};
  }

  LockFreeHiAlg<Env, Bins>& alg() { return alg_; }
  const LockFreeHiAlg<Env, Bins>& alg() const { return alg_; }

  void encode_memory(std::vector<std::uint8_t>& out) const {
    alg_.encode_memory(out);
  }
  std::uint32_t num_values() const { return alg_.num_values(); }
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  LockFreeHiAlg<Env, Bins> alg_;
};

/// The combinator applied to the Alg 2/3 register: a WAIT-FREE K-valued
/// single-writer register whose reads are helped slow-path operations and
/// whose writes run direct (helping first). The Thm 17 price: NOT
/// state-quiescent HI — the records and queue counters persist (see the
/// file comment).
///
/// Roles: p_w writes; every other pid below `num_processes` may read (the
/// help queue and records are sized per process). `num_processes` defaults
/// to max(p_w, p_r) + 1, the SWSR sizing.
template <typename Env, typename Bins>
class WaitFreeSimHiAlg : public SwsrRoles {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;
  using Inner = NormalizedHiRegister<Env, Bins>;

  WaitFreeSimHiAlg(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                   int writer_pid, int reader_pid,
                   std::uint32_t fast_limit = 1, int num_processes = 0)
      : SwsrRoles(writer_pid, reader_pid),
        sim_(ctx,
             num_processes > 0 ? num_processes
                               : std::max(writer_pid, reader_pid) + 1,
             fast_limit, spec, writer_pid, reader_pid),
        num_values_(spec.num_values()) {}

  Op<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read(pid);
    return write(pid, op.value);
  }

  /// Wait-free Read by any non-writer process `pid`.
  Op<std::uint32_t> read(int pid) {
    assert(pid != writer_pid() && pid >= 0 &&
           pid < sim_.num_processes() && "wrong role: p_w may not read");
    return Env::template lift<Op<std::uint32_t>>(
        [this, pid] { return sim_.run(pid, Inner::encode_read()); },
        [](std::uint64_t got) { return static_cast<std::uint32_t>(got); });
  }

  /// Write by process `pid` — Alg 2's write is already wait-free, so it runs
  /// direct; its leading help is what completes any queued read.
  Op<std::uint32_t> write(int pid, std::uint32_t value) {
    assert_writer(pid);
    assert(value >= 1 && value <= num_values_);
    return Env::template lift<Op<std::uint32_t>>(
        [this, pid, value] {
          return sim_.run_direct(pid, Inner::encode_write(value));
        },
        [](std::uint64_t got) { return static_cast<std::uint32_t>(got); });
  }

  /// Memory image: the inner A bins (one byte per bin, like every register
  /// algorithm), then each combinator word as 8 LE bytes.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    sim_.inner().encode_memory(out);
    sim_.encode_combinator_words(out);
  }

  WaitFreeSim<Env, Inner>& combinator() { return sim_; }
  const WaitFreeSim<Env, Inner>& combinator() const { return sim_; }

  std::uint32_t num_values() const { return num_values_; }
  std::size_t memory_bytes() const {
    return sim_.inner().memory_bytes() + sim_.combinator_bytes();
  }

  std::uint64_t total_ops() const { return sim_.total_ops(); }
  std::uint64_t slow_path_entries() const { return sim_.slow_path_entries(); }
  std::uint64_t helped_completions() const {
    return sim_.helped_completions();
  }
  void reset_stats() { sim_.reset_stats(); }

 private:
  WaitFreeSim<Env, Inner> sim_;
  std::uint32_t num_values_;
};

template <typename E>
using WaitFreeSimHiAlgPadded = WaitFreeSimHiAlg<E, env::PaddedBins<E>>;
template <typename E>
using WaitFreeSimHiAlgPacked = WaitFreeSimHiAlg<E, env::PackedBins<E>>;

}  // namespace hi::algo
