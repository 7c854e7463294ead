// Algorithm 6: lock-free perfect-HI releasable-LL/SC object from atomic CAS
// (§6.3, Theorem 28), written ONCE over an execution environment Env and
// instantiated over every Env (on hardware over a 16-byte CMPXCHG16B word).
//
// The R-LLSC state (val, context) is stored in a *single* CAS word; memory
// is therefore exactly the encoding of the abstract state — no auxiliary
// information exists — which is why the implementation is perfect HI.
// LL, SC and RL are CAS retry loops and hence only lock-free; VL, Load and
// Store are single primitives. Each retry loop is one Env::cas_loop
// (env/env.h) with a small plan — what to CAS against the current word, and
// what to return — over the environment's failure-word CAS (Env::cas
// returns the word it observed), so a failed retry costs ONE 16-byte atomic
// on hardware — not a CAS plus a re-read — and one simulator step; the sim
// step-exact tests pin this sequence.
//
// The interleaved-LL entry point realizes Algorithm 5's `‖` construction:
// between successive CAS attempts of a (possibly blocking) LL, one step of
// the caller-provided right-hand-side poll runs, and a true poll abandons
// the LL (leaving at most a context trace, which the caller's RL erases —
// line 18R.2).
//
// Process identities are explicit small integers (0..63) supplied by the
// caller, exactly as the paper's p_i. apply(pid, op) is the spec-level
// entry point (spec::RllscSpec); apply_rllsc is the one RllscSpec → cell
// dispatcher, shared with the model-only native cell (sim/native_rllsc.h).
//
// Every entry point is a Sub, and none opens a coroutine frame on RtEnv:
// the retry loops (LL, SC, RL) are Env::cas_loop plain loops and the
// single-primitive VL, Load and Store are lifted by Env::lift (env/env.h).
// On the scheduler-driven backends each is the coroutine it would be by
// hand. The steady state performs zero heap allocations —
// RtAllocSteadyState.Rllsc and RtLiftedOps.OpenNoFrame pin this
// (docs/PERF.md).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "algo/values.h"
#include "env/env.h"
#include "spec/rllsc_spec.h"
#include "util/bits.h"

namespace hi::algo {

/// Runs one spec::RllscSpec operation on any R-LLSC cell exposing the
/// pid-explicit ll/vl/sc/rl and load/store Subs, as an `OpT` task. Spec
/// values fill the low word of a two-word RllscValue (the simulator's
/// Value) or the whole packed word (the hardware's).
template <template <typename> class OpT, typename Cell>
OpT<spec::RllscSpec::Resp> apply_rllsc(Cell& cell, int pid,
                                       spec::RllscSpec::Op op) {
  using V = typename Cell::V;
  using Resp = spec::RllscSpec::Resp;
  assert(pid == op.pid && "RllscSpec ops carry the invoking pid");
  const auto value = [](std::uint64_t raw) {
    if constexpr (std::is_same_v<V, RllscValue>) {
      return RllscValue{raw, 0};
    } else {
      return static_cast<V>(raw);
    }
  };
  const auto low = [](const V& v) {
    if constexpr (std::is_same_v<V, RllscValue>) {
      return static_cast<std::uint32_t>(v.lo);
    } else {
      return static_cast<std::uint32_t>(v);
    }
  };
  switch (op.kind) {
    case spec::RllscSpec::Kind::kLL: {
      const V v = co_await cell.ll(pid);
      co_return Resp{low(v), true};
    }
    case spec::RllscSpec::Kind::kVL: {
      const bool linked = co_await cell.vl(pid);
      co_return Resp{0, linked};
    }
    case spec::RllscSpec::Kind::kSC: {
      const bool done = co_await cell.sc(pid, value(op.arg));
      co_return Resp{0, done};
    }
    case spec::RllscSpec::Kind::kRL: {
      const bool done = co_await cell.rl(pid);
      co_return Resp{0, done};
    }
    case spec::RllscSpec::Kind::kLoad: {
      const V v = co_await cell.load();
      co_return Resp{low(v), true};
    }
    case spec::RllscSpec::Kind::kStore: {
      const bool done = co_await cell.store(value(op.arg));
      co_return Resp{0, done};
    }
  }
  co_return Resp{};  // unreachable
}

template <typename Env>
class CasRllscAlg {
 public:
  using V = typename Env::Value;
  using Word = typename Env::Word;
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  CasRllscAlg(typename Env::Ctx ctx, std::string name, V initial)
      : cell_(Env::make_cas(ctx, std::move(name), initial)) {}

  /// The spec-level entry point (spec::RllscSpec ops carry their pid).
  typename Env::template Op<spec::RllscSpec::Resp> apply(
      int pid, spec::RllscSpec::Op op) {
    return apply_rllsc<Env::template Op>(*this, pid, op);
  }

  /// LL(O) — lines 1–6: CAS-install the caller's context bit, retrying on
  /// interference. Lock-free; may run forever under contention. A failed CAS
  /// reports the word it observed, which becomes the next attempt's
  /// expectation — one primitive per retry, no separate re-read. This is
  /// ll_interleaved with a stepless poll that never bails.
  Sub<V> ll(int pid) {
    return Env::template cas_loop<Sub<V>>(
        cell_, Link<V, NeverBail>{bit(pid), NeverBail{}});
  }

  /// LL with Algorithm 5's `‖` right-hand side: after every failed CAS
  /// attempt run one poll; a true poll abandons the LL and yields nullopt.
  /// `poll` is a nullary callable returning an awaitable of bool. The next
  /// attempt reuses the failed CAS's observed word (any write racing with
  /// the poll just fails that CAS, which re-observes).
  template <typename Poll>
  Sub<std::optional<V>> ll_interleaved(int pid, Poll poll) {
    return Env::template cas_loop<Sub<std::optional<V>>>(
        cell_, Link<std::optional<V>, Poll>{bit(pid), std::move(poll)});
  }

  /// VL(O) — lines 12–13.
  Sub<bool> vl(int pid) {
    return Env::template lift<Sub<bool>>(
        Env::cas_read(cell_),
        [pid](const Word& cur) { return util::test_bit(cur.ctx, bit(pid)); });
  }

  /// SC(O, new) — lines 7–11: succeeds iff the caller is still linked.
  /// Failed CAS attempts feed their observed word into the re-check.
  Sub<bool> sc(int pid, V desired) {
    return Env::template cas_loop<Sub<bool>>(cell_,
                                            Swap{bit(pid), Word{desired, 0}});
  }

  /// RL(O) — lines 14–20: removes the caller from the context; always true.
  Sub<bool> rl(int pid) {
    return Env::template cas_loop<Sub<bool>>(cell_, Release{bit(pid)});
  }

  /// Load(O) — lines 21–22.
  Sub<V> load() {
    return Env::template lift<Sub<V>>(
        Env::cas_read(cell_), [](const Word& cur) { return cur.value; });
  }

  /// Store(O, new) — lines 23–24: unconditional, resets the context.
  Sub<bool> store(V desired) {
    return Env::template lift<Sub<bool>>(
        Env::cas_write(cell_, Word{desired, 0}), [](bool done) { return done; });
  }

  // Observer-side introspection (not steps): abstract state of the R-LLSC
  // object, which for this implementation is literally the memory word.
  V peek_value() const { return Env::peek_cas(cell_).value; }
  std::uint64_t peek_context() const { return Env::peek_cas(cell_).ctx; }
  Word peek_word() const { return Env::peek_cas(cell_); }

  /// Bytes of shared storage (one CAS cell; observer-side).
  std::size_t memory_bytes() const { return sizeof(typename Env::CasCell); }

  bool is_lock_free() const { return Env::cas_is_lock_free(cell_); }

 private:
  static unsigned bit(int pid) { return static_cast<unsigned>(pid); }

  // The Env::cas_loop plans (env/env.h) of the retry loops: what to CAS
  // against the current word, and what the loop returns.

  /// LL's poll: stepless, never bails.
  struct NeverBail {
    auto operator()() const { return env::detail::ready(false); }
  };

  /// LL: install the caller's bit into whatever word is current; return
  /// the value linked to. A true poll bails with an empty Result.
  template <typename Result, typename Poll>
  struct Link {
    unsigned bit;
    Poll poll;

    std::optional<Word> want(Word cur) const {
      cur.ctx = util::set_bit(cur.ctx, bit);
      return cur;
    }
    Result done(const Word& cur) const { return cur.value; }
    Result stopped(const Word& cur) const { return cur.value; }  // never
    Result bailed() const { return Result{}; }
  };

  /// SC: while the caller is linked, replace the word with `desired`
  /// (context reset); true iff installed.
  struct Swap {
    unsigned bit;
    Word desired;

    std::optional<Word> want(const Word& cur) const {
      if (!util::test_bit(cur.ctx, bit)) return std::nullopt;
      return desired;
    }
    bool done(const Word&) const { return true; }
    bool stopped(const Word&) const { return false; }
  };

  /// RL: while the caller is linked, clear its bit; always true.
  struct Release {
    unsigned bit;

    std::optional<Word> want(Word cur) const {
      if (!util::test_bit(cur.ctx, bit)) return std::nullopt;
      cur.ctx = util::clear_bit(cur.ctx, bit);
      return cur;
    }
    bool done(const Word&) const { return true; }
    bool stopped(const Word&) const { return true; }
  };

  typename Env::CasCell cell_;
};

}  // namespace hi::algo
