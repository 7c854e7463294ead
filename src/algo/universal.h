// Algorithm 5: wait-free state-quiescent-HI universal implementation from
// releasable LL/SC (§6.1), written ONCE over an execution environment Env,
// generic over the sequential specification S and over the R-LLSC cell
// implementation Cell:
//
//   UniversalAlg<SimEnv, S, NativeRllsc>     — over ideal atomic R-LLSC cells
//   UniversalAlg<SimEnv, S, CasRllscAlg<…>>  — the full Theorem 32 composition
//   UniversalAlg<RtEnv,  S, CasRllscAlg<…>>  — the same composition on
//                                              hardware (CMPXCHG16B words)
//
// Layout. head holds ⟨q, r⟩ where q is the abstract state and r is either ⊥
// (in-between operations — "mode A") or ⟨rsp, j⟩, the response of the most
// recently applied operation and its invoking process ("mode B").
// announce[1..n] holds each process's pending operation descriptor, later
// overwritten by its response, and cleared to ⊥ before the operation
// returns — so at any state-quiescent configuration the announce array is
// all-⊥, head is ⟨q, ⊥⟩, and every context is empty (Lemmas 26, 27): memory
// is a function of the abstract state alone.
//
// The paper's `‖` notation (lines 6, 18, 25 interleaved with the blue
// right-hand sides) is realized by ll_interleaved: one right-hand-side poll
// step runs between successive low-level steps of a possibly-blocking LL,
// and a successful poll abandons the LL (6R.2 / 18R.1-3 / 25R.1-2). The
// paper's 6R.1/18R.1 "wait until Load(announce[i]) ∉ R" is read as
// "... ∈ R" — the bail must fire when the response has *arrived* (matching
// the exit condition of the line-5 loop and the prose: "checks whether some
// other process has already accomplished what p_i was trying to do").
//
// The red lines (22, 27 and the RL of 18R.2) erase the context traces that
// helping leaves behind; ablation tests compile with clear_contexts=false
// to show exactly which HI property breaks without them (E14 ablation (a)).
//
// The ⟨q, r⟩ head and op/resp announce encodings are shared across ALL
// backends: Word64HeadCodec packs every head/announce tuple into one 64-bit
// word (states ≤ 32 bits, responses ≤ 24 bits, ≤ 64 processes — the DESIGN
// substitution documented at Atomic128), and both RllscWordCodec
// specializations delegate to it. The simulator carries the word in
// RllscValue::lo with hi ≡ 0, so a universal memory snapshot is bit-exact
// across SimEnv/RtEnv/ReplayEnv — exactly like FkHeadCodec already is for
// the leaky baseline — which is what lets the replay differentials and the
// sim↔rt parity suite compare raw words instead of decoding semantically.
//
// Flat-combining mode (combine=true; docs/PAPER_MAP.md "Combining
// deviation"). The announce array doubles as a combining publication list:
// the process whose head SC succeeds (the *winner*) first scans all n
// announce cells, folds every pending operation into one state transition
// (ascending pid order), and installs a single *combining record*
// ⟨q_final, combining-bit, winner⟩ with that SC. While the record is in
// head, every other process's LL simply retries (the record is inert to
// helpers), and the winner alone Stores each helped response into its
// announce cell, then Stores head back to ⟨q_final, ⊥⟩. Exactly-once: a
// successful SC means head was untouched over [LL, SC], and responses are
// only ever written under a combining record, so every op the winner saw as
// pending is genuinely unapplied and nobody else writes responses during
// the winner's phase — the winner's Stores cannot be contended. The whole
// batch linearizes at the winning SC, in ascending-pid fold order; a
// concurrent ApplyReadOnly that loads the combining record reads q_final
// and thus linearizes after the batch (same precedent as reading a mode-B
// head). The state-quiescent image is UNCHANGED — head ⟨q,⊥⟩, announce ≡ ⊥,
// contexts empty — because combining only moves *who* applies announced
// operations, never what quiescent memory looks like; announce cells are
// touched only by Stores (context-resetting) in this mode, and the
// mode-B/helping lines 16–22 are dormant (head never carries ⟨rsp,j⟩).
// The trade is the classic flat-combining one: a stalled winner blocks the
// batch, so combine=true is lock-free, not wait-free. combine=false (the
// default) is the paper's wait-free Algorithm 5, unchanged.
//
// This body contains no CAS retry loop of its own — every retry lives in
// the R-LLSC cell it is composed over, so when Cell = CasRllscAlg the
// failure-word CAS (docs/ENV.md) applies to all of Algorithm 5's LL/SC/RL
// traffic: one atomic per failed low-level retry, on both backends.
//
// Frame discipline: apply() forwards to apply_read_only/apply_update by
// returning the callee's task (no extra coroutine frame). The single-await
// bodies — apply_read_only, announce_only and the response_ready /
// head_clear_of polls run once per ‖-poll — are lifted by Env::lift
// (env/env.h), so on RtEnv they open no frame: a read-only apply is one
// 16-byte load and no frame at all. Everything an update awaits is
// frameless on RtEnv too — the cell's Load/Store/VL are lifted and its
// LL/SC/RL are Env::cas_loop plain loops — so an update opens exactly one
// frame, its own apply_update, however much retrying and helping it does,
// and that frame recycles through the per-thread frame arena
// (env/rt_env.h): zero steady-state heap allocations.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "spec/spec.h"
#include "util/padded.h"

namespace hi::algo {

/// Decoded view of a head value ⟨q, r⟩ (plus the combining tag).
struct HeadView {
  std::uint64_t state = 0;  // encoded abstract state q
  bool has_response = false;
  bool combining = false;  // a winner's batch record (combine mode only)
  std::uint32_t rsp = 0;   // valid iff has_response
  int pid = -1;            // valid iff has_response or combining
};

/// The response half of a mode-B head: ⟨rsp, j⟩.
struct HeadResp {
  std::uint32_t rsp;
  int pid;
};

/// The ONE packing of head/announce tuples, shared by every backend
/// (docs/ENV.md "Word64HeadCodec contract"). All tuples fit a single 64-bit
/// word:
///
///   announce: tag (bits 32-33: 1 = op, 2 = resp) | payload (bits 0-31);
///             ⊥ = 0.
///   head:     state (bits 0-31) | rsp (bits 32-55) | pid (bits 56-61) |
///             has-response (bit 62) | combining (bit 63).
///
/// Mode A is ⟨q, ⊥⟩ = just the state bits; mode B sets bit 62 and carries
/// ⟨rsp, j⟩; a combining record sets bit 63 and carries only the winner's
/// pid (no response payload — helped responses travel through the announce
/// cells). Bits 62 and 63 are mutually exclusive by construction. The bit
/// positions are pinned by tests/test_head_codec.cpp: changing them is a
/// cross-backend snapshot-format break.
struct Word64HeadCodec {
  static constexpr std::uint64_t kTagOp = 1;
  static constexpr std::uint64_t kTagResp = 2;
  static constexpr std::uint64_t kStateMask = 0xffffffffull;
  static constexpr std::uint64_t kRspMask = 0xffffffull;
  static constexpr int kRspShift = 32;
  static constexpr int kPidShift = 56;
  static constexpr std::uint64_t kHasBit = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kCombineBit = std::uint64_t{1} << 63;

  static std::uint64_t bottom() { return 0; }
  static std::uint64_t announce_op(std::uint32_t word) {
    return (kTagOp << 32) | word;
  }
  static std::uint64_t announce_resp(std::uint32_t word) {
    return (kTagResp << 32) | word;
  }
  static bool is_bottom(std::uint64_t v) { return v == 0; }
  static bool is_op(std::uint64_t v) { return (v >> 32) == kTagOp; }
  static bool is_resp(std::uint64_t v) { return (v >> 32) == kTagResp; }
  static std::uint32_t payload(std::uint64_t v) {
    return static_cast<std::uint32_t>(v & 0xffffffffu);
  }

  static std::uint64_t make_head(std::uint64_t state_encoded,
                                 std::optional<HeadResp> resp) {
    assert(state_encoded <= kStateMask && "encoded states must fit 32 bits");
    std::uint64_t word = state_encoded;
    if (resp.has_value()) {
      assert(resp->rsp <= kRspMask && "encoded responses must fit 24 bits");
      word |= (static_cast<std::uint64_t>(resp->rsp) << kRspShift) |
              (static_cast<std::uint64_t>(resp->pid) << kPidShift) | kHasBit;
    }
    return word;
  }
  static std::uint64_t make_combining_head(std::uint64_t state_encoded,
                                           int pid) {
    assert(state_encoded <= kStateMask && "encoded states must fit 32 bits");
    return state_encoded | (static_cast<std::uint64_t>(pid) << kPidShift) |
           kCombineBit;
  }
  static HeadView decode_head(std::uint64_t v) {
    HeadView view;
    view.state = v & kStateMask;
    view.has_response = (v & kHasBit) != 0;
    view.combining = (v & kCombineBit) != 0;
    if (view.has_response || view.combining) {
      view.pid = static_cast<int>((v >> kPidShift) & 0x3fu);
      view.rsp = static_cast<std::uint32_t>((v >> kRspShift) & kRspMask);
    }
    return view;
  }
};

/// Per-backend adapter from Word64HeadCodec to the R-LLSC value type V.
template <typename V>
struct RllscWordCodec;

/// Hardware / replay value word: the codec word verbatim.
template <>
struct RllscWordCodec<std::uint64_t> : Word64HeadCodec {};

/// Simulator value: the codec word in lo, hi ≡ 0 — so a sim snapshot of a
/// universal object is bit-identical to the rt/replay snapshot of the same
/// configuration (this is what upgraded the universal replay rows from
/// semantic comparison to verify::snapshot_word_compare).
template <>
struct RllscWordCodec<RllscValue> {
  using W = Word64HeadCodec;

  static RllscValue bottom() { return RllscValue{}; }
  static RllscValue announce_op(std::uint32_t word) {
    return RllscValue{W::announce_op(word), 0};
  }
  static RllscValue announce_resp(std::uint32_t word) {
    return RllscValue{W::announce_resp(word), 0};
  }
  static bool is_bottom(const RllscValue& v) { return W::is_bottom(v.lo); }
  static bool is_op(const RllscValue& v) { return W::is_op(v.lo); }
  static bool is_resp(const RllscValue& v) { return W::is_resp(v.lo); }
  static std::uint32_t payload(const RllscValue& v) {
    return W::payload(v.lo);
  }
  static RllscValue make_head(std::uint64_t state_encoded,
                              std::optional<HeadResp> resp) {
    return RllscValue{W::make_head(state_encoded, resp), 0};
  }
  static RllscValue make_combining_head(std::uint64_t state_encoded,
                                        int pid) {
    return RllscValue{W::make_combining_head(state_encoded, pid), 0};
  }
  static HeadView decode_head(const RllscValue& v) {
    return W::decode_head(v.lo);
  }
};

template <typename Env, spec::SequentialSpec S, typename Cell>
class UniversalAlg {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  using V = typename Env::Value;
  using Codec = RllscWordCodec<V>;
  template <typename T>
  using OpT = typename Env::template Op<T>;
  template <typename T>
  using SubT = typename Env::template Sub<T>;

  /// `clear_contexts` disables the paper's red lines (22 and 27 and the RL
  /// of 18R.2) when false — the HI-breaking ablation. Production use: true.
  /// `combine` switches apply_update from the paper's one-op-per-SC helping
  /// protocol to flat-combining batches (header comment): same linearizable
  /// behaviour, same quiescent image, lock-free instead of wait-free.
  UniversalAlg(typename Env::Ctx ctx, const S& spec, int num_processes,
               bool clear_contexts = true, bool combine = false)
      : spec_(spec),
        n_(num_processes),
        clear_contexts_(clear_contexts),
        combine_(combine),
        head_(ctx, "head",
              Codec::make_head(spec.encode_state(spec.initial_state()),
                               std::nullopt)),
        local_(make_block(num_processes)),
        announce_(static_cast<Cell*>(
                      static_cast<void*>(local_.data() + local_.size())),
                  local_.size()) {
    // The cells are built in place, in pid order after head (hardware cells
    // are padded atomics, not movable; sim object ids follow this order).
    std::size_t built = 0;
    try {
      for (; built < announce_.size(); ++built) {
        std::construct_at(&announce_[built], ctx,
                          "announce[" + std::to_string(built) + "]",
                          Codec::bottom());
      }
    } catch (...) {
      release_block(built);
      throw;
    }
  }
  ~UniversalAlg() { release_block(announce_.size()); }
  UniversalAlg(const UniversalAlg&) = delete;
  UniversalAlg& operator=(const UniversalAlg&) = delete;

  OpT<Resp> apply(int pid, Op op) {
    if (spec_.is_read_only(op)) return apply_read_only(pid, op);
    return apply_update(pid, op);
  }

  /// Test support: park an announcement exactly as if `pid` executed line 4
  /// and then stalled. Lets parity/step scripts stage a combining batch
  /// deterministically on every backend (the rt side runs whole operations
  /// eagerly, so a stalled-mid-op process cannot be expressed there any
  /// other way). The parked operation is applied by the next winner; `pid`
  /// never collects the response.
  OpT<bool> announce_only(int pid, Op op) {
    assert(pid >= 0 && pid < n_);
    return Env::template lift<OpT<bool>>(
        [this, pid, op] {
          return announce_[pid].store(Codec::announce_op(spec_.encode_op(op)));
        },
        [](bool) { return true; });
  }

  /// ApplyReadOnly (lines 1–3): Load head, evaluate Δ locally, return.
  /// Touches no shared state.
  OpT<Resp> apply_read_only(int pid, Op op) {
    assert(pid >= 0 && pid < n_);
    (void)pid;
    return Env::template lift<OpT<Resp>>(
        [this] { return head_.load(); },  // line 1
        [this, op](const V& raw) {
          const HeadView view = Codec::decode_head(raw);
          const auto [state_after, rsp] =
              spec_.apply(spec_.decode_state(view.state), op);  // line 2
          (void)state_after;
          return rsp;  // line 3
        });
  }

  /// Apply (lines 4–29): announce, help/apply until a response appears in
  /// announce[pid], then clear the response from head and announce.
  OpT<Resp> apply_update(int pid, Op op) {
    assert(pid >= 0 && pid < n_);
    const std::uint32_t my_op_word = spec_.encode_op(op);
    Cell& my_cell = announce_[pid];

    co_await my_cell.store(Codec::announce_op(my_op_word));  // line 4

    const auto poll_helped = [this, pid] { return response_ready(pid); };
    for (;;) {
      const V mine = co_await my_cell.load();  // line 5
      if (Codec::is_resp(mine)) break;

      // Line 6: ⟨q,r⟩ ← LL(head) ‖ bail once announce[pid] ∈ R (6R).
      const std::optional<V> head_raw =
          co_await head_.ll_interleaved(pid, poll_helped);
      if (!head_raw.has_value()) break;  // 6R.2: goto line 24
      const HeadView head_view = Codec::decode_head(*head_raw);

      if (combine_) {
        // Flat-combining protocol (header comment). A combining record in
        // head means another winner is mid-phase: its responses are in
        // flight through the announce cells, so just retry from line 5
        // (ours may be among them). Hand the core back first — on an
        // oversubscribed machine the winner may be preempted mid-phase,
        // and hard-spinning on its record burns the slice it needs.
        if (head_view.combining) {
          Env::relax();
          continue;
        }
        // This mode never installs mode-B records, so head is mode A here.
        assert(!head_view.has_response);

        // Scan pass: collect every pending operation and fold the batch
        // into one state transition, ascending pid (= linearization order
        // within the batch). Membership is pinned by `batch` — a response
        // is owed to exactly the cells seen as op now; anything announced
        // later waits for the next winner.
        std::uint64_t batch = 0;
        std::array<std::uint32_t, 64> rsps;
        auto state = spec_.decode_state(head_view.state);
        for (int j = 0; j < n_; ++j) {
          const V aj = co_await announce_[j].load();
          if (!Codec::is_op(aj)) continue;
          batch |= std::uint64_t{1} << j;
          auto [next, rsp] =
              spec_.apply(state, spec_.decode_op(Codec::payload(aj)));
          state = next;
          rsps[static_cast<std::size_t>(j)] = spec_.encode_resp(rsp);
        }
        // All cells already answered (a winner served us since line 5):
        // retry, line 5 will see the response.
        if (batch == 0) continue;

        const bool installed = co_await head_.sc(
            pid, Codec::make_combining_head(spec_.encode_state(state), pid));
        if (!installed) continue;
        // Winner phase: the batch is applied (it linearized at the SC
        // above); publish each response, then release head. Success of the
        // SC means head was untouched over [LL, SC], hence no response was
        // written anywhere in that window and every scanned op is still in
        // its cell with its owner parked at line 5 — so nobody contends
        // these Stores (which also reset the cells' contexts).
        local_[pid].batches_installed += 1;
        local_[pid].ops_combined +=
            static_cast<std::uint64_t>(std::popcount(batch));
        for (int j = 0; j < n_; ++j) {
          if (((batch >> j) & 1u) == 0) continue;
          co_await announce_[j].store(
              Codec::announce_resp(rsps[static_cast<std::size_t>(j)]));
        }
        co_await head_.store(
            Codec::make_head(spec_.encode_state(state), std::nullopt));
        continue;  // line 5 picks up our own response (if we were served)
      }

      if (!head_view.has_response) {  // line 7: in-between operations
        std::uint32_t apply_word = 0;
        int target = -1;
        const int candidate = local_[pid].priority;
        const V help = co_await announce_[candidate].load();  // line 8
        if (Codec::is_op(help)) {  // line 9: apply another's operation
          apply_word = Codec::payload(help);
          target = candidate;
        } else {
          const V own = co_await my_cell.load();  // line 11
          if (!Codec::is_op(own)) continue;
          apply_word = my_op_word;  // line 12: apply my own operation
          target = pid;
        }
        const auto [next_state, rsp] = spec_.apply(
            spec_.decode_state(head_view.state),
            spec_.decode_op(apply_word));  // line 13
        const bool installed = co_await head_.sc(
            pid, Codec::make_head(spec_.encode_state(next_state),
                                  HeadResp{spec_.encode_resp(rsp),
                                           target}));  // line 14
        if (installed) {
          Local& me = local_[pid];
          me.priority = (me.priority + 1) % n_;  // line 15
          // A plain mode-A install is a batch of one (so batch_size_mean
          // reads 1.0 on non-combining rows).
          me.batches_installed += 1;
          me.ops_combined += 1;
        }
      } else {  // lines 16–22: finish the half-applied operation
        const std::uint32_t rsp_word = head_view.rsp;  // line 17
        const int target = head_view.pid;

        // Line 18: a ← LL(announce[j]) ‖ bail once announce[pid] ∈ R (18R).
        const std::optional<V> a =
            co_await announce_[target].ll_interleaved(pid, poll_helped);
        if (!a.has_value()) {
          if (clear_contexts_) {
            co_await announce_[target].rl(pid);  // 18R.2
          }
          break;  // 18R.3: goto line 24
        }
        const bool head_valid = co_await head_.vl(pid);  // line 19
        if (head_valid) {
          if (Codec::is_op(*a)) {
            co_await announce_[target].sc(
                pid, Codec::announce_resp(rsp_word));  // line 20
          }
          co_await head_.sc(
              pid, Codec::make_head(head_view.state, std::nullopt));  // l. 21
        }
        if (Codec::is_bottom(*a) && clear_contexts_) {
          co_await announce_[target].rl(pid);  // line 22 (red)
        }
        // line 23: continue
      }
    }

    const V resp_val = co_await my_cell.load();  // line 24
    assert(Codec::is_resp(resp_val));

    // Line 25: ⟨q,r⟩ ← LL(head) ‖ bail once head ≠ ⟨_,⟨_,pid⟩⟩ (25R).
    const auto poll_cleared = [this, pid] { return head_clear_of(pid); };
    const std::optional<V> head_raw =
        co_await head_.ll_interleaved(pid, poll_cleared);
    bool handled = false;
    if (head_raw.has_value()) {
      const HeadView view = Codec::decode_head(*head_raw);
      if (view.has_response && view.pid == pid) {  // line 26
        co_await head_.sc(pid, Codec::make_head(view.state, std::nullopt));
        handled = true;
      }
    }
    if (!handled && clear_contexts_) {
      co_await head_.rl(pid);  // line 27 (red; also the 25R.2 path)
    }

    co_await my_cell.store(Codec::bottom());  // line 28: clear announce[pid]
    co_return spec_.decode_resp(Codec::payload(resp_val));  // line 29
  }

  // ---- Observer-side introspection (test oracles; never takes steps) ----

  /// The abstract state recorded in head (Lemma 25: equals state(h(α))).
  std::uint64_t head_state_encoded() const {
    return Codec::decode_head(head_.peek_value()).state;
  }
  bool head_has_response() const {
    return Codec::decode_head(head_.peek_value()).has_response;
  }
  /// True while a combining record sits in head (combine mode's winner
  /// phase). The crash tests stage crashes relative to this window: a
  /// winner crashed BEFORE installing the record is survivable (the audit
  /// proves it), one crashed AFTER is the documented blocking window
  /// (docs/FAULTS.md).
  bool head_is_combining() const {
    return Codec::decode_head(head_.peek_value()).combining;
  }
  bool announce_is_bottom(int pid) const {
    return Codec::is_bottom(announce_[pid].peek_value());
  }
  /// Union of all context bitmasks (Lemma 27: empty at state-quiescence).
  std::uint64_t context_union() const {
    std::uint64_t mask = head_.peek_context();
    for (const Cell& cell : announce_) mask |= cell.peek_context();
    return mask;
  }
  /// Full memory image (head word, then announce words) as CtxWords; only
  /// meaningful at quiescence unless the caller tolerates racing reads.
  std::vector<CtxWord<V>> memory_words() const {
    std::vector<CtxWord<V>> image;
    image.reserve(1 + static_cast<std::size_t>(n_));
    image.push_back(head_.peek_word());
    for (const Cell& cell : announce_) image.push_back(cell.peek_word());
    return image;
  }

  /// Successful head installs (mode-A SCs; in combine mode, combining-record
  /// SCs) summed over processes. Each counter is owner-written and only read
  /// by observers at rest, so no atomics are needed.
  std::uint64_t batches_installed() const {
    std::uint64_t total = 0;
    for (const Local& l : local_) total += l.batches_installed;
    return total;
  }
  /// Operations applied through those installs; ops_combined() /
  /// batches_installed() is the mean batch size (exactly 1.0 when
  /// combine=false).
  std::uint64_t ops_combined() const {
    std::uint64_t total = 0;
    for (const Local& l : local_) total += l.ops_combined;
    return total;
  }
  void reset_batch_stats() {
    for (Local& l : local_) l.batches_installed = l.ops_combined = 0;
  }
  bool combining_enabled() const { return combine_; }

  bool is_lock_free() const { return head_.is_lock_free(); }
  int num_processes() const { return n_; }
  /// Bytes of shared storage (head + announce cells; observer-side,
  /// perfbench's mem_bytes — sizeof tracks the cell layout, so a
  /// future cell change is reflected automatically).
  std::size_t memory_bytes() const {
    return (1 + announce_.size()) * sizeof(Cell);
  }

 private:
  /// 6R.1 / 18R.1: has my response been published in announce[pid]?
  SubT<bool> response_ready(int pid) {
    return Env::template lift<SubT<bool>>(
        announce_[pid].load(), [](const V& v) { return Codec::is_resp(v); });
  }

  /// 25R.1: head no longer holds ⟨_, ⟨_, pid⟩⟩?
  SubT<bool> head_clear_of(int pid) {
    return Env::template lift<SubT<bool>>(head_.load(), [pid](const V& v) {
      const HeadView view = Codec::decode_head(v);
      return !(view.has_response && view.pid == pid);
    });
  }

  /// One process's owner-local variables: Algorithm 5's priority_i and the
  /// batch statistics (instrumentation, not part of the shared-memory
  /// image). A cache line each, so hardware threads do not false-share (a
  /// scheduler-local no-op in the simulator).
  struct alignas(util::kCacheLine) Local {
    int priority = 0;
    std::uint64_t batches_installed = 0;
    std::uint64_t ops_combined = 0;
  };
  static_assert(std::is_trivially_destructible_v<Local> &&
                alignof(Cell) <= alignof(Local));
  static constexpr std::align_val_t kBlockAlign{alignof(Local)};

  /// Allocates the per-process block — n Locals, then room for n announce
  /// cells — and builds the Locals. Their size is a multiple of the line,
  /// so the cells that follow are aligned and each keeps its own line.
  static std::span<Local> make_block(int num_processes) {
    assert(num_processes >= 1 && num_processes <= 64);
    const auto n = static_cast<std::size_t>(num_processes);
    auto* locals = static_cast<Local*>(
        ::operator new(n * (sizeof(Local) + sizeof(Cell)), kBlockAlign));
    for (std::size_t i = 0; i < n; ++i) {
      std::construct_at(locals + i, Local{static_cast<int>(i)});
    }
    return {locals, n};
  }

  /// Destroys the first `built` announce cells, last first, and frees the
  /// block.
  void release_block(std::size_t built) noexcept {
    while (built > 0) std::destroy_at(&announce_[--built]);
    ::operator delete(local_.data(), kBlockAlign);
  }

  const S& spec_;
  int n_;
  bool clear_contexts_;
  bool combine_;
  Cell head_;
  // Both views point into one allocation (make_block): locals first.
  std::span<Local> local_;
  std::span<Cell> announce_;
};

}  // namespace hi::algo
