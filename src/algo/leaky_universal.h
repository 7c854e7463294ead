// Non-history-independent universal construction baseline (experiment E13),
// written ONCE over an execution environment Env (src/env/env.h) and
// instantiated over every Env: the tests and the voting-machine example name
// LeakyUniversalAlg<env::SimEnv, S> / <env::RtEnv, S> / <env::ReplayEnv, S>
// directly.
//
// Prior universal constructions [Herlihy '90/'93; Fatourou–Kallimanis '11]
// are linearizable and wait-free but leak history: "the implementation in
// [27] explicitly keeps track of all the operations that have ever been
// invoked, while the implementations in [26, 28] store information that
// depends on the sequence of applied operations … [19] keeps information
// about completed operations, such as their responses, and is therefore not
// history independent" (§6 related work).
//
// This baseline follows the Fatourou–Kallimanis shape over the Env base
// objects: one CAS word (Env::CasCell) holds the abstract state, a version
// counter and the record of the most recently applied operation
// ⟨pid, seq, rsp⟩; per-process announce and result tables (Env::WordArray)
// are never cleared. It is linearizable and wait-free (helping with
// priority rotation, like Algorithm 5), but at quiescence the memory still
// reveals:
//   * the total number of state-changing operations ever applied (version),
//   * each process's most recent operation (announce, never cleared),
//   * each process's most recent response (result table, never cleared).
// The HI checker rejects it on exactly these fields; Algorithm 5 passes the
// same workloads.
//
// Packing limits (both backends, for bit-exact sim↔rt parity of the decoded
// fields): encoded abstract states ≤ 32 bits, versions and per-process
// sequence numbers ≤ 24 bits, responses ≤ 32 bits, ≤ 64 processes.
//
// The body spawns no helper coroutines — apply() forwards to the
// apply_read_only/apply_update Op without an extra frame, and the retry
// loops are plain loops over Env primitives — so on RtEnv an update is a
// single arena-recycled frame and a read-only operation, lifted by
// Env::lift (env/env.h), none: zero steady-state heap allocations, like the
// HI construction it is benchmarked against.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/values.h"
#include "spec/spec.h"
#include "util/padded.h"

namespace hi::algo {

/// Packing of the head tuple ⟨state, version, record⟩ into the environment's
/// CAS word. `record` is the last applied operation's ⟨pid, seq, rsp⟩
/// (pid bits 56–61, seq bits 32–55, rsp bits 0–31; 0 before any operation).
/// The simulator's two-word value carries ⟨state|version, record⟩ in
/// ⟨lo, hi⟩ with the context word unused; the hardware word carries
/// state|version in the value half and the record in the context half of
/// the same 16-byte CAS word.
template <typename W>
struct FkHeadCodec;

template <>
struct FkHeadCodec<CtxWord<RllscValue>> {
  using W = CtxWord<RllscValue>;

  static RllscValue initial(std::uint64_t state) { return RllscValue{state, 0}; }
  static W make(std::uint64_t state, std::uint64_t version,
                std::uint64_t record) {
    return W{{state | (version << 32), record}, 0};
  }
  static std::uint64_t state(const W& w) { return w.value.lo & 0xffffffffu; }
  static std::uint64_t version(const W& w) { return w.value.lo >> 32; }
  static std::uint64_t record(const W& w) { return w.value.hi; }
};

template <>
struct FkHeadCodec<CtxWord<std::uint64_t>> {
  using W = CtxWord<std::uint64_t>;

  static std::uint64_t initial(std::uint64_t state) { return state; }
  static W make(std::uint64_t state, std::uint64_t version,
                std::uint64_t record) {
    return W{state | (version << 32), record};
  }
  static std::uint64_t state(const W& w) { return w.value & 0xffffffffu; }
  static std::uint64_t version(const W& w) { return w.value >> 32; }
  static std::uint64_t record(const W& w) { return w.ctx; }
};

template <typename Env, spec::SequentialSpec S>
class LeakyUniversalAlg {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  using Word = typename Env::Word;
  using Codec = FkHeadCodec<Word>;
  template <typename T>
  using OpT = typename Env::template Op<T>;

  LeakyUniversalAlg(typename Env::Ctx ctx, const S& spec, int num_processes)
      : spec_(spec),
        n_(num_processes),
        head_(Env::make_cas(
            ctx, "fk-head",
            Codec::initial(spec.encode_state(spec.initial_state())))),
        announce_(Env::make_word_array(ctx, "fk-announce",
                                      static_cast<std::uint32_t>(num_processes),
                                      0)),
        result_(Env::make_word_array(ctx, "fk-result",
                                     static_cast<std::uint32_t>(num_processes),
                                     0)),
        local_(static_cast<std::size_t>(num_processes)) {
    assert(num_processes >= 1 && num_processes <= 64);
    assert(spec.encode_state(spec.initial_state()) <= 0xffffffffull);
    for (int i = 0; i < n_; ++i) local_[i]->priority = i;
  }

  OpT<Resp> apply(int pid, Op op) {
    if (spec_.is_read_only(op)) return apply_read_only(pid, op);
    return apply_update(pid, op);
  }

  /// Read-only operations evaluate Δ against the head's state locally —
  /// a single Read, no shared-memory footprint.
  OpT<Resp> apply_read_only(int pid, Op op) {
    (void)pid;
    return Env::template lift<OpT<Resp>>(
        Env::cas_read(head_), [this, op](const Word& head) {
          return spec_.apply(spec_.decode_state(Codec::state(head)), op)
              .second;
        });
  }

  /// Update operations: announce (never cleared — the leak), then help/apply
  /// with priority rotation until the own result appears in the result
  /// table, persisting each installed head record on the way.
  OpT<Resp> apply_update(int pid, Op op) {
    assert(pid >= 0 && pid < n_);
    Local& me = *local_[pid];
    const std::uint64_t seq = ++me.seq;
    assert(seq <= 0xffffffu);
    co_await Env::write_word(announce_, pid,
                             (seq << 32) | spec_.encode_op(op));

    for (;;) {
      const Word head = co_await Env::cas_read(head_);
      // Persist the previously applied op's result before building on it.
      if (Codec::version(head) > 0) {  // version > 0: a last-applied record
        const std::uint64_t record = Codec::record(head);
        const auto last_pid = static_cast<std::uint32_t>((record >> 56) & 0x3fu);
        const std::uint64_t last_seq = (record >> 32) & 0xffffffu;
        const std::uint64_t persisted =
            (last_seq << 32) | (record & 0xffffffffu);
        // Monotone CAS: a plain guarded store would race with a helper
        // persisting a NEWER record, rolling result[] backwards and enabling
        // a double application — exactly the class of subtlety Algorithm 5's
        // LL/SC response handshake is designed around. Failure-word CAS:
        // each failed attempt hands back the record it lost to.
        std::uint64_t existing = co_await Env::read_word(result_, last_pid);
        while ((existing >> 32) < last_seq) {
          const CasResult<std::uint64_t> r =
              co_await Env::cas_word(result_, last_pid, existing, persisted);
          if (r.installed) break;
          existing = r.observed;
        }
      }
      const std::uint64_t mine = co_await Env::read_word(result_, pid);
      if ((mine >> 32) == seq) {
        co_return spec_.decode_resp(
            static_cast<std::uint32_t>(mine & 0xffffffffu));
      }

      // Pick a target: the rotating candidate if it has an unapplied
      // announcement, else self. "Applied" means either persisted in the
      // result table or recorded in the head we just read.
      int target = me.priority;
      std::uint64_t ann = co_await Env::read_word(
          announce_, static_cast<std::uint32_t>(target));
      const std::uint64_t target_done =
          (co_await Env::read_word(result_, static_cast<std::uint32_t>(target))) >>
          32;
      if (ann == 0 || (ann >> 32) <= target_done ||
          in_head(head, target, ann >> 32)) {
        target = pid;
        ann = (seq << 32) | spec_.encode_op(op);
        const std::uint64_t my_done =
            (co_await Env::read_word(result_, pid)) >> 32;
        if (my_done >= seq || in_head(head, pid, seq)) continue;
      }

      const std::uint64_t ann_seq = ann >> 32;
      const auto [next_state, rsp] = spec_.apply(
          spec_.decode_state(Codec::state(head)),
          spec_.decode_op(static_cast<std::uint32_t>(ann & 0xffffffffu)));
      assert(spec_.encode_state(next_state) <= 0xffffffffull);
      const std::uint64_t record =
          (static_cast<std::uint64_t>(target) << 56) |
          ((ann_seq & 0xffffffu) << 32) | spec_.encode_resp(rsp);
      const Word desired = Codec::make(spec_.encode_state(next_state),
                                       Codec::version(head) + 1, record);
      const CasResult<Word> r = co_await Env::cas(head_, head, desired);
      if (r.installed) me.priority = (me.priority + 1) % n_;
    }
  }

  // ---- Observer-side introspection (test oracles; never takes steps) ----

  std::uint64_t head_state_encoded() const {
    return Codec::state(Env::peek_cas(head_));
  }
  /// The leak, quantified: total state-changing operations ever applied.
  std::uint64_t version() const { return Codec::version(Env::peek_cas(head_)); }
  /// The per-process leaks: last announced op / last persisted response.
  std::uint64_t peek_announce(int pid) const {
    return Env::peek_word(announce_, static_cast<std::uint32_t>(pid));
  }
  std::uint64_t peek_result(int pid) const {
    return Env::peek_word(result_, static_cast<std::uint32_t>(pid));
  }

  int num_processes() const { return n_; }
  /// Bytes of shared storage (head + announce + result tables;
  /// observer-side — sizeof tracks the cell layouts, so a future cell
  /// change is reflected automatically).
  std::size_t memory_bytes() const {
    return sizeof(typename Env::CasCell) +
           (announce_.size() + result_.size()) *
               sizeof(typename Env::WordArray::value_type);
  }

 private:
  /// Does the head we read already record ⟨j, seq⟩ (or newer) as applied?
  static bool in_head(const Word& head, int pid, std::uint64_t seq) {
    if (Codec::version(head) == 0) return false;
    const std::uint64_t record = Codec::record(head);
    return static_cast<int>((record >> 56) & 0x3fu) == pid &&
           ((record >> 32) & 0xffffffu) >= seq;
  }

  const S& spec_;
  int n_;
  typename Env::CasCell head_;
  typename Env::WordArray announce_;
  typename Env::WordArray result_;
  // One process's local variables; padded so hardware threads do not
  // false-share (a scheduler-local no-op in the simulator).
  struct Local {
    std::uint64_t seq = 0;
    int priority = 0;
  };
  std::vector<util::Padded<Local>> local_;
};

}  // namespace hi::algo
