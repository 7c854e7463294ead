// The §4 SWSR K-valued register algorithms, written ONCE over an execution
// environment Env (src/env/env.h) and a bin-array layout policy Bins
// (env::PaddedBins / env::PackedBins — see env.h's layout commentary), and
// instantiated over every Env: the simulator (exhaustive interleaving + HI
// checking), real hardware (stress tests), schedule replay and yield fuzz.
//
// Each class is the object the paper defines: the sequential specification
// (spec::RegisterSpec: K and the initial value) plus the two processes
// allowed to invoke it, p_w and p_r (SwsrRoles). read(pid)/write(pid, v)
// and the spec-level apply(pid, op) assert the caller's role. The Sub-level
// entry points the wait-free combinator drives (attempt_read, write_sub)
// take no pid: the combinator runs them on behalf of other processes.
//
//   VidyasankarAlg  — Algorithm 1 [46]: wait-free, NOT history independent.
//                     Write(v) sets A[v] and clears only *downwards*, so the
//                     array retains 1s above the current value: the memory
//                     leaks previously-written larger values even in
//                     sequential executions (Write(2);Write(1) leaves
//                     [1,1,0] where Write(1) leaves [1,0,0]).
//   LockFreeHiAlg   — Algorithms 2+3 (Theorem 9): Write additionally clears
//                     *upwards*, giving each abstract state the unique
//                     canonical representation can(v) = e_v whenever no
//                     Write is pending (state-quiescent HI). The price is
//                     the reader's progress: TryRead can chase the moving 1
//                     forever, so Read is lock-free but not wait-free.
//   WaitFreeHiAlg   — Algorithm 4 (Theorem 12): the reader announces itself
//                     via flag[1]; a writer that sees a concurrent reader
//                     helps by publishing its previous value in array B, so
//                     the reader always has a value after two failed
//                     TryReads (Lemma 10); both sides erase their footprints
//                     (Lemma 35). Quiescent HI but not state-quiescent HI —
//                     exactly the Table 1 separation (wait-free +
//                     state-quiescent HI is impossible, Corollary 18).
//
// Every upward/downward/clearing scan goes through the Bins word-scan
// library. With PaddedBins the primitive sequence is bit-for-bit the
// paper's (one binary register per step — the persisted schedule traces and
// step-count tests pin this); with PackedBins a scan costs one word load
// per 64 bins and a clearing pass one masked fetch_and per word, cutting
// the O(K) hot paths to O(K/64) while the abstract bin contents — and
// therefore every canonical-representation argument — stay identical. The
// downward confirmation scan is decomposed as iterated Bins::scan_down
// (each call stops at its first 1): the union of the calls reads every bin
// below the start exactly once, descending, reproducing the paper's loop;
// the B-scan of Algorithm 4 decomposes symmetrically over Bins::scan_up.
//
// NOTE: throughout the single-source algorithms, every co_await lands in a
// named local before being branched on (GCC 12 miscompiles awaits that
// appear directly inside if/while conditions).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "spec/register_spec.h"

namespace hi::algo {

/// Algorithm 1 [Vidyasankar].
template <typename Env, typename Bins>
class VidyasankarAlg : public SwsrRoles {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;

  VidyasankarAlg(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                 int writer_pid, int reader_pid)
      : SwsrRoles(writer_pid, reader_pid),
        num_values_(spec.num_values()),
        a_(Bins::make(ctx, "A", num_values_, spec.initial_state())) {}

  Op<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read(pid);
    return write(pid, op.value);
  }

  /// Read(): scan up to the first 1, then scan down taking any smaller 1
  /// (the shared downward confirmation pass, env::confirm_down).
  Op<std::uint32_t> read(int pid) {
    assert_reader(pid);
    const std::uint32_t j = co_await Bins::scan_up(a_, 1);
    assert(j != 0 && "A contains no 1 — impossible in Alg 1");
    const std::uint32_t val = co_await env::confirm_down<Bins>(a_, j);
    co_return val;
  }

  /// Write(v): set A[v], then clear downwards from v-1 to 1.
  Op<std::uint32_t> write(int pid, std::uint32_t value) {
    assert_writer(pid);
    assert(value >= 1 && value <= num_values_);
    co_await Bins::set(a_, value);
    co_await Bins::clear_down(a_, value - 1);
    co_return 0;
  }

  /// Observer-side memory image (A[1..K]); never a step of the model.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 1; v <= num_values_; ++v) {
      out.push_back(Bins::peek(a_, v));
    }
  }

  std::uint32_t num_values() const { return num_values_; }
  /// Bytes of shared storage behind A (observer-side).
  std::size_t memory_bytes() const { return Bins::footprint_bytes(a_); }

 private:
  std::uint32_t num_values_;
  typename Bins::Array a_;
};

template <typename E>
using VidyasankarAlgPadded = VidyasankarAlg<E, env::PaddedBins<E>>;
template <typename E>
using VidyasankarAlgPacked = VidyasankarAlg<E, env::PackedBins<E>>;

/// Algorithms 2 + 3: lock-free state-quiescent-HI register.
template <typename Env, typename Bins>
class LockFreeHiAlg : public SwsrRoles {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  LockFreeHiAlg(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                int writer_pid, int reader_pid)
      : SwsrRoles(writer_pid, reader_pid),
        num_values_(spec.num_values()),
        a_(Bins::make(ctx, "A", num_values_, spec.initial_state())) {}

  Op<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read(pid);
    return write(pid, op.value);
  }

  /// Read(): retry TryRead until it finds a value (Algorithm 2, lines 1–4).
  /// The retry loop lives directly in the Op body (rather than in a shared
  /// Sub helper) so a Read keeps at most one helper chain (the TryRead)
  /// alive at a time — on RtEnv the whole chain then recycles through the
  /// per-thread frame arena with zero steady-state heap traffic. Step
  /// counts are unchanged: frames are never steps.
  Op<std::uint32_t> read(int pid) {
    assert_reader(pid);
    for (;;) {
      const std::optional<std::uint32_t> val = co_await try_read();
      if (val.has_value()) co_return *val;
    }
  }

  /// Bounded-retry Read for hardware harnesses: nullopt after
  /// `max_attempts` failed TryReads (0 = retry forever, as the paper's
  /// lock-free Read does). Same flat retry-loop shape as read().
  Op<std::optional<std::uint32_t>> read_bounded(int pid,
                                                std::uint64_t max_attempts) {
    assert_reader(pid);
    for (std::uint64_t attempt = 0;
         max_attempts == 0 || attempt < max_attempts; ++attempt) {
      const std::optional<std::uint32_t> val = co_await try_read();
      if (val.has_value()) co_return val;
    }
    co_return std::nullopt;
  }

  /// Write(v): set A[v], clear down v-1..1, then clear up v+1..K
  /// (Algorithm 2, lines 5–7). Delegates to write_sub — one extra coroutine
  /// frame, zero extra steps (frames are never steps), so persisted traces
  /// and step-count tests are unaffected.
  Op<std::uint32_t> write(int pid, std::uint32_t value) {
    assert_writer(pid);
    const std::uint32_t echoed = co_await write_sub(value);
    co_return echoed;
  }

  /// One normalized TryRead attempt, exposed as a composable Sub for the
  /// wait-free simulation combinator (algo/wait_free_sim.h): exactly the
  /// private try_read() body, nullopt on the §4 contention failure.
  Sub<std::optional<std::uint32_t>> attempt_read() { return try_read(); }

  /// The write body as a composable Sub (the combinator's normalized write
  /// attempt — it cannot fail, so writes stay wait-free under wrapping).
  Sub<std::uint32_t> write_sub(std::uint32_t value) {
    assert(value >= 1 && value <= num_values_);
    co_await Bins::set(a_, value);
    co_await Bins::clear_down(a_, value - 1);
    co_await Bins::clear_up(a_, value + 1);
    co_return 0;
  }

  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 1; v <= num_values_; ++v) {
      out.push_back(Bins::peek(a_, v));
    }
  }

  std::uint32_t num_values() const { return num_values_; }
  std::size_t memory_bytes() const { return Bins::footprint_bytes(a_); }

 private:
  /// TryRead (Algorithm 3): one upward scan for a 1; on success, downward
  /// confirmation scan; ⊥ (nullopt) if the whole array read as 0.
  Sub<std::optional<std::uint32_t>> try_read() {
    const std::uint32_t j = co_await Bins::scan_up(a_, 1);
    if (j == 0) co_return std::nullopt;
    const std::uint32_t val = co_await env::confirm_down<Bins>(a_, j);
    co_return val;
  }

  std::uint32_t num_values_;
  typename Bins::Array a_;
};

template <typename E>
using LockFreeHiAlgPadded = LockFreeHiAlg<E, env::PaddedBins<E>>;
template <typename E>
using LockFreeHiAlgPacked = LockFreeHiAlg<E, env::PackedBins<E>>;

/// Algorithm 4: wait-free quiescent-HI register.
template <typename Env, typename Bins>
class WaitFreeHiAlg : public SwsrRoles {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  WaitFreeHiAlg(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                int writer_pid, int reader_pid)
      : SwsrRoles(writer_pid, reader_pid),
        num_values_(spec.num_values()),
        last_val_(spec.initial_state()),
        a_(Bins::make(ctx, "A", num_values_, spec.initial_state())),
        b_(Bins::make(ctx, "B", num_values_, 0)),
        flags_(Bins::make(ctx, "flag", 2, 0)) {}

  Op<std::uint32_t> apply(int pid, spec::RegisterSpec::Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read(pid);
    return write(pid, op.value);
  }

  /// Read() — Algorithm 4, lines 1–10.
  Op<std::uint32_t> read(int pid) {
    assert_reader(pid);
    co_await Bins::set(flags_, 1);          // line 1: announce
    std::uint32_t val = 0;                  // 0 encodes ⊥
    for (int attempt = 0; attempt < 2; ++attempt) {  // line 2
      const std::optional<std::uint32_t> got = co_await try_read();
      if (got.has_value()) {  // line 4: goto line 7
        val = *got;
        break;
      }
    }
    if (val == 0) {
      // Lines 5–6: read all of B ascending; take the *last* index seen
      // holding 1 — iterated scan_up, one full pass in union.
      std::uint32_t cur = 1;
      for (;;) {
        const std::uint32_t hit = co_await Bins::scan_up(b_, cur);
        if (hit == 0) break;
        val = hit;
        if (hit == num_values_) break;
        cur = hit + 1;
      }
      assert(val != 0 && "Lemma 10: val != ⊥ at line 7");
    }
    co_await Bins::set(flags_, 2);             // line 7
    co_await Bins::clear_up(b_, 1);            // line 8: clear B
    co_await Bins::clear(flags_, 1);           // line 9
    co_await Bins::clear(flags_, 2);
    co_return val;  // line 10
  }

  /// Write(v) — Algorithm 4, lines 11–19.
  Op<std::uint32_t> write(int pid, std::uint32_t value) {
    assert_writer(pid);
    assert(value >= 1 && value <= num_values_);
    // Line 11: check whether B is all-zero (scan; stop at the first 1, which
    // already falsifies the condition).
    const std::uint32_t b_hit = co_await Bins::scan_up(b_, 1);
    if (b_hit == 0) {
      const std::uint8_t f1_seen = co_await Bins::read(flags_, 1);
      if (f1_seen == 1) {  // line 12: concurrent reader?
        co_await Bins::set(b_, last_val_);  // line 13: help
        // Line 14: read flag[2], then flag[1] (this order matters; Lemma 35).
        const std::uint8_t f2 = co_await Bins::read(flags_, 2);
        const std::uint8_t f1 = co_await Bins::read(flags_, 1);
        if (f2 == 1 || f1 == 0) {
          co_await Bins::clear(b_, last_val_);  // line 15
        }
      }
    }
    co_await Bins::set(a_, value);              // line 16
    co_await Bins::clear_down(a_, value - 1);   // line 17
    co_await Bins::clear_up(a_, value + 1);     // line 18
    last_val_ = value;  // line 19 (writer-local; not part of mem(C))
    co_return 0;
  }

  /// Memory image in mem(C) layout order: A[1..K], B[1..K], flag[1..2].
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 1; v <= num_values_; ++v) {
      out.push_back(Bins::peek(a_, v));
    }
    for (std::uint32_t v = 1; v <= num_values_; ++v) {
      out.push_back(Bins::peek(b_, v));
    }
    out.push_back(Bins::peek(flags_, 1));
    out.push_back(Bins::peek(flags_, 2));
  }

  std::uint32_t num_values() const { return num_values_; }
  std::size_t memory_bytes() const {
    return Bins::footprint_bytes(a_) + Bins::footprint_bytes(b_) +
           Bins::footprint_bytes(flags_);
  }

 private:
  /// TryRead — Algorithm 3, shared with Algorithm 2.
  Sub<std::optional<std::uint32_t>> try_read() {
    const std::uint32_t j = co_await Bins::scan_up(a_, 1);
    if (j == 0) co_return std::nullopt;
    const std::uint32_t val = co_await env::confirm_down<Bins>(a_, j);
    co_return val;
  }

  std::uint32_t num_values_;
  std::uint32_t last_val_;  // the writer's persistent local variable
  typename Bins::Array a_;
  typename Bins::Array b_;
  typename Bins::Array flags_;
};

template <typename E>
using WaitFreeHiAlgPadded = WaitFreeHiAlg<E, env::PaddedBins<E>>;
template <typename E>
using WaitFreeHiAlgPacked = WaitFreeHiAlg<E, env::PackedBins<E>>;

}  // namespace hi::algo
