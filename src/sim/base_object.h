// Shared base objects of the simulated asynchronous shared-memory model.
//
// Each primitive (read, write, CAS, LL, SC, VL, RL, Load, Store) returns an
// awaiter; `co_await`-ing it suspends the calling coroutine, and the
// operation is applied atomically when the scheduler next resumes that
// process — so one scheduler resume == one step of §2's model. The state of
// every base object is part of mem(C) (see memory.h); local coroutine frames
// are not, matching the paper's definition of the memory representation.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::sim {

/// Awaiter for a single shared-memory primitive. The operation `fn` runs in
/// await_resume, i.e. at the moment the scheduler grants the process its
/// step; between suspension and resumption other processes may take
/// arbitrarily many steps.
template <typename Fn>
class [[nodiscard]] Primitive {
 public:
  Primitive(int object_id, const char* kind, Fn fn)
      : object_id_(object_id), kind_(kind), fn_(std::move(fn)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) noexcept {
    ProcessState* ps = detail::current_process();
    assert(ps != nullptr && "primitive used outside a scheduled process");
    ps->resume_point = handle;
    ps->pending = PendingPrimitive{object_id_, kind_};
  }
  auto await_resume() {
    detail::current_process()->steps += 1;
    return fn_();
  }

 private:
  int object_id_;
  const char* kind_;
  Fn fn_;
};

template <typename Fn>
Primitive(int, const char*, Fn) -> Primitive<Fn>;

/// Base class of every simulated shared object. `encode_state` appends the
/// object's full state to the memory-representation vector; the layout is
/// fixed per object type, so vector equality == configuration memory
/// equality (the relation the HI definitions compare).
class BaseObject {
 public:
  explicit BaseObject(std::string name) : name_(std::move(name)) {}
  virtual ~BaseObject() = default;
  BaseObject(const BaseObject&) = delete;
  BaseObject& operator=(const BaseObject&) = delete;

  virtual void encode_state(std::vector<std::uint64_t>& out) const = 0;
  virtual std::string describe() const = 0;

  int id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  friend class Memory;
  int id_ = -1;
  std::string name_;
};

/// Binary (Boolean) read/write register — the small base object of §4/§5.3.
class BinaryRegister : public BaseObject {
 public:
  explicit BinaryRegister(std::string name, bool initial = false)
      : BaseObject(std::move(name)), value_(initial ? 1 : 0) {}

  auto read() {
    return Primitive{id(), "read", [this] { return value_; }};
  }
  auto write(std::uint8_t value) {
    assert(value <= 1);
    return Primitive{id(), "write", [this, value] {
                       value_ = value;
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(value_);
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(value_);
  }

  std::uint8_t peek() const { return value_; }  // observer-side, not a step

 private:
  std::uint8_t value_;
};

/// One 64-bit word of a packed bin array (env::PackedBins): 64 of the
/// paper's binary registers share a single word-sized base object, and the
/// three primitives — a full-word read (a free 64-bin snapshot: strictly
/// stronger than the paper's single-bit register read) and the set/clear
/// RMWs — each cost exactly ONE step. The packed layout keeps the memory
/// representation a pure function of the abstract bin contents, so the HI
/// arguments carry over; see docs/ENV.md "Packed bin arrays".
class PackedWordCell : public BaseObject {
 public:
  explicit PackedWordCell(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), value_(initial) {}

  /// Word load — 1 step; returns all 64 bins of this word atomically.
  auto read() {
    return Primitive{id(), "read", [this] { return value_; }};
  }
  /// Set every bin in `mask` — 1 step (the hardware fetch_or).
  auto fetch_or(std::uint64_t mask) {
    return Primitive{id(), "fetch_or", [this, mask] {
                       value_ |= mask;
                       return true;
                     }};
  }
  /// Keep only the bins in `mask` — 1 step (the hardware fetch_and).
  auto fetch_and(std::uint64_t mask) {
    return Primitive{id(), "fetch_and", [this, mask] {
                       value_ &= mask;
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(value_);
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(value_);
  }

  std::uint64_t peek() const { return value_; }  // observer-side, not a step

 private:
  std::uint64_t value_;
};

/// Word-sized read/write register with at most `num_states` states; used as a
/// "smaller base object" with a tunable state count by the impossibility
/// experiments (base objects with fewer than t states, Theorem 17).
class WordRegister : public BaseObject {
 public:
  WordRegister(std::string name, std::uint64_t num_states,
               std::uint64_t initial = 0)
      : BaseObject(std::move(name)), num_states_(num_states), value_(initial) {
    assert(initial < num_states);
  }

  auto read() {
    return Primitive{id(), "read", [this] { return value_; }};
  }
  auto write(std::uint64_t value) {
    assert(value < num_states_);
    return Primitive{id(), "write", [this, value] {
                       value_ = value;
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(value_);
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(value_);
  }

  std::uint64_t num_states() const { return num_states_; }
  std::uint64_t peek() const { return value_; }

 private:
  std::uint64_t num_states_;
  std::uint64_t value_;
};

/// Atomic compare-and-swap cell over 64-bit values, supporting read and write
/// as in §2 ("we assume that the CAS object supports standard read and write
/// operations"). This is the base object of Algorithm 6.
class CasCell : public BaseObject {
 public:
  explicit CasCell(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), value_(initial) {}

  auto read() {
    return Primitive{id(), "read", [this] { return value_; }};
  }
  auto write(std::uint64_t value) {
    return Primitive{id(), "write", [this, value] {
                       value_ = value;
                       return true;
                     }};
  }
  /// Failure-word CAS(X, old, new): one "cas" primitive that reports
  /// whether the swap was applied and the word it observed, so retry loops
  /// need no separate re-read.
  auto cas_observe(std::uint64_t expected, std::uint64_t desired) {
    return Primitive{id(), "cas", [this, expected, desired] {
                       const algo::CasResult<std::uint64_t> result{
                           value_ == expected, value_};
                       if (result.installed) value_ = desired;
                       return result;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(value_);
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(value_);
  }

  std::uint64_t peek() const { return value_; }

 private:
  std::uint64_t value_;
};

/// The value domain of the "large" base objects of §6: big enough to hold a
/// full abstract state plus the auxiliary response/process fields of
/// Algorithm 5's head cell (the paper's O(s + 2^n)-state base objects).
/// `lo`/`hi` carry the algorithm-level value; `ctx` is the R-LLSC context
/// bitmask (bit i set <=> process i in context). The word of the native
/// R-LLSC cell below; the CAS cell stores the algorithm's own CtxWord.
struct WideWord {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t ctx = 0;

  friend bool operator==(const WideWord&, const WideWord&) = default;
};

/// Atomic CAS cell over the algorithm's CtxWord<RllscValue> — the base
/// object of Algorithm 6 (§6.3): the context word is simply part of the
/// compared value, exactly as Algorithm 6 stores (v, c_1, ..., c_n) in one
/// CAS word.
class WideCasCell : public BaseObject {
 public:
  using Word = algo::CtxWord<algo::RllscValue>;

  explicit WideCasCell(std::string name, Word initial = {})
      : BaseObject(std::move(name)), word_(initial) {}

  auto read() {
    return Primitive{id(), "read", [this] { return word_; }};
  }
  auto write(Word desired) {
    return Primitive{id(), "write", [this, desired] {
                       word_ = desired;
                       return true;
                     }};
  }
  /// Failure-word CAS: one "cas" primitive that also reports the word it
  /// observed, so Algorithm 6's retry loops need no separate re-read step.
  auto cas_observe(Word expected, Word desired) {
    return Primitive{id(), "cas", [this, expected, desired] {
                       const algo::CasResult<Word> result{word_ == expected,
                                                          word_};
                       if (result.installed) word_ = desired;
                       return result;
                     }};
  }

  /// (lo, hi, ctx).
  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(word_.value.lo);
    out.push_back(word_.value.hi);
    out.push_back(word_.ctx);
  }
  std::string describe() const override {
    return name() + "=(" + std::to_string(word_.value.lo) + "," +
           std::to_string(word_.value.hi) +
           ",ctx=" + std::to_string(word_.ctx) + ")";
  }

  Word peek() const { return word_; }
  /// An atomic primitive by construction.
  bool is_lock_free() const { return true; }

 private:
  Word word_;
};

/// Native context-aware releasable LL/SC object over WideWord values: each
/// R-LLSC operation of §6.1 is a single atomic primitive. Used to run
/// Algorithm 5 against *ideal* R-LLSC base objects, in isolation from
/// Algorithm 6's CAS-based implementation of the same object (which is then
/// substituted in for the full Theorem 32 composition).
class WideRllscCell : public BaseObject {
 public:
  explicit WideRllscCell(std::string name, WideWord initial = {})
      : BaseObject(std::move(name)), word_(initial) {
    assert(initial.ctx == 0 && "R-LLSC objects start with an empty context");
  }

  /// LL(O): adds the caller to the context, returns the value.
  auto ll() {
    return Primitive{id(), "LL", [this] {
                       word_.ctx = util::set_bit(
                           word_.ctx, static_cast<unsigned>(
                                          detail::current_process()->pid));
                       return word_;  // .lo/.hi carry the value
                     }};
  }
  /// VL(O): true iff the caller is in the context.
  auto vl() {
    return Primitive{id(), "VL", [this] {
                       return util::test_bit(
                           word_.ctx, static_cast<unsigned>(
                                          detail::current_process()->pid));
                     }};
  }
  /// SC(O, new): installs the value and clears the context iff the caller is
  /// in the context.
  auto sc(std::uint64_t lo, std::uint64_t hi) {
    return Primitive{id(), "SC", [this, lo, hi] {
                       const unsigned pid = static_cast<unsigned>(
                           detail::current_process()->pid);
                       if (!util::test_bit(word_.ctx, pid)) return false;
                       word_ = WideWord{lo, hi, 0};
                       return true;
                     }};
  }
  /// RL(O): removes the caller from the context.
  auto rl() {
    return Primitive{id(), "RL", [this] {
                       word_.ctx = util::clear_bit(
                           word_.ctx, static_cast<unsigned>(
                                          detail::current_process()->pid));
                       return true;
                     }};
  }
  auto load() {
    return Primitive{id(), "Load", [this] { return word_; }};
  }
  auto store(std::uint64_t lo, std::uint64_t hi) {
    return Primitive{id(), "Store", [this, lo, hi] {
                       word_ = WideWord{lo, hi, 0};
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(word_.lo);
    out.push_back(word_.hi);
    out.push_back(word_.ctx);
  }
  std::string describe() const override {
    return name() + "=(" + std::to_string(word_.lo) + "," +
           std::to_string(word_.hi) + ",ctx=" + std::to_string(word_.ctx) +
           ")";
  }

  WideWord peek() const { return word_; }

 private:
  WideWord word_;
};

/// Word-sized context-aware releasable LL/SC object (§6.1): state is the
/// pair (val, context). Smaller sibling of WideRllscCell used by the unit
/// tests and the R-LLSC linearizability experiments.
class RllscCell : public BaseObject {
 public:
  RllscCell(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), value_(initial) {}

  /// LL(O): adds the calling process to O.context and returns O.val.
  auto ll() {
    return Primitive{id(), "LL", [this] {
                       context_ = util::set_bit(
                           context_,
                           static_cast<unsigned>(
                               detail::current_process()->pid));
                       return value_;
                     }};
  }
  /// VL(O): true iff the calling process is in O.context.
  auto vl() {
    return Primitive{id(), "VL", [this] {
                       return util::test_bit(
                           context_, static_cast<unsigned>(
                                         detail::current_process()->pid));
                     }};
  }
  /// SC(O, new): if the caller is in the context, installs `new`, clears the
  /// context and returns true; otherwise returns false.
  auto sc(std::uint64_t desired) {
    return Primitive{id(), "SC", [this, desired] {
                       const unsigned pid = static_cast<unsigned>(
                           detail::current_process()->pid);
                       if (!util::test_bit(context_, pid)) return false;
                       value_ = desired;
                       context_ = 0;
                       return true;
                     }};
  }
  /// RL(O): removes the caller from O.context; always returns true.
  auto rl() {
    return Primitive{id(), "RL", [this] {
                       context_ = util::clear_bit(
                           context_,
                           static_cast<unsigned>(
                               detail::current_process()->pid));
                       return true;
                     }};
  }
  /// Load(O): returns O.val without touching the context.
  auto load() {
    return Primitive{id(), "Load", [this] { return value_; }};
  }
  /// Store(O, new): installs `new`, clears the context, returns true.
  auto store(std::uint64_t desired) {
    return Primitive{id(), "Store", [this, desired] {
                       value_ = desired;
                       context_ = 0;
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(value_);
    out.push_back(context_);
  }
  std::string describe() const override {
    return name() + "=(" + std::to_string(value_) + ",ctx=" +
           std::to_string(context_) + ")";
  }

  std::uint64_t peek_value() const { return value_; }
  std::uint64_t peek_context() const { return context_; }

 private:
  std::uint64_t value_;
  std::uint64_t context_ = 0;  // bit i set <=> process i in context
};

}  // namespace hi::sim
