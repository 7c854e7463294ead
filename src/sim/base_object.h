// Shared base objects of the simulated asynchronous shared-memory model.
//
// A base object is a state plus atomic operations (§2). Every one the
// scheduler-driven backends register is a `Cell<Store>` (below): its
// primitives (read, write, CAS, fetch_or, fetch_and) return awaiters;
// `co_await`-ing one suspends the calling coroutine, and the operation is
// applied atomically to the store when the scheduler next resumes that
// process — so one scheduler resume == one step of §2's model. The one
// other base object is the ideal R-LLSC cell (native_rllsc.h), whose LL,
// VL, SC, RL, Load and Store are the same kind of one-step awaiter. The
// state of every base object is part of mem(C) (see memory.h); local
// coroutine frames are not, matching the paper's definition of the memory
// representation.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "sim/task.h"

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

/// The snapshot layout and dump text of each base-object word type — one
/// overload per type, shared by every cell that holds it, so equal states
/// encode equally on every backend:
///
///   uint64_t (and the binary register's byte) — 1 word;
///   CtxWord<RllscValue> — 3 words (lo, hi, ctx);
///   CtxWord<uint64_t>   — 3 words (value, 0, ctx): the two-word layout
///                         with hi unused, so a packed hardware CAS word
///                         compares word-for-word with the simulator's
///                         whenever the simulator's hi word is 0.
inline void encode_word(std::vector<std::uint64_t>& out, std::uint64_t word) {
  out.push_back(word);
}
inline void encode_word(std::vector<std::uint64_t>& out,
                        const algo::CtxWord<algo::RllscValue>& word) {
  out.push_back(word.value.lo);
  out.push_back(word.value.hi);
  out.push_back(word.ctx);
}
inline void encode_word(std::vector<std::uint64_t>& out,
                        const algo::CtxWord<std::uint64_t>& word) {
  out.push_back(word.value);
  out.push_back(0);
  out.push_back(word.ctx);
}

inline std::string format_word(std::uint64_t word) {
  return std::to_string(word);
}
inline std::string format_word(const algo::CtxWord<algo::RllscValue>& word) {
  return "(" + std::to_string(word.value.lo) + "," +
         std::to_string(word.value.hi) + ",ctx=" + std::to_string(word.ctx) +
         ")";
}
inline std::string format_word(const algo::CtxWord<std::uint64_t>& word) {
  return "(" + std::to_string(word.value) +
         ",ctx=" + std::to_string(word.ctx) + ")";
}

/// The simulator's store: one plain word. Serves all four simulator cells
/// (binary register, packed-bin word, CAS base object, 64-bit CAS word);
/// a cell only instantiates the accesses its Env hooks call.
template <typename W>
struct Plain {
  using Word = W;

  explicit Plain(Word initial) : word(initial) {}

  Word load() const { return word; }
  void store(const Word& desired) { word = desired; }
  algo::CasResult<Word> cas(const Word& expected, const Word& desired) {
    const algo::CasResult<Word> result{word == expected, word};
    if (result.installed) word = desired;
    return result;
  }
  void fetch_or(Word mask) { word |= mask; }
  void fetch_and(Word mask) { word &= mask; }
  /// An atomic primitive by construction.
  static bool is_lock_free() { return true; }

  Word word;
};

/// A base object of §2: a `Store`'s state plus its atomic operations. This
/// is the one place a storage access becomes a one-step sim::Primitive, so
/// the primitive kinds ("read", "write", "cas", "fetch_or", "fetch_and"),
/// the observer-side peek and the mem(C) encoding are the same for every
/// store. A store names its `Word` and the accesses it supports — load()
/// (also the observer's peek), store(w), cas(expected, desired) returning
/// algo::CasResult<Word>, fetch_or(mask), fetch_and(mask), is_lock_free();
/// only the ones a cell's callers use need exist.
template <typename Store>
class Cell final : public BaseObject {
 public:
  using Word = typename Store::Word;

  explicit Cell(std::string name, Word initial = {})
      : BaseObject(std::move(name)), store_(initial) {}

  /// Read — 1 step (on a packed-bin word: all 64 bins atomically).
  auto read() {
    return Primitive{id(), "read", [this] { return store_.load(); }};
  }
  /// Write — 1 step.
  auto write(Word desired) {
    return Primitive{id(), "write", [this, desired] {
                       store_.store(desired);
                       return true;
                     }};
  }
  /// Failure-word CAS — 1 step that reports whether the swap was applied
  /// and the word it observed, so retry loops need no separate re-read.
  auto cas_observe(Word expected, Word desired) {
    return Primitive{id(), "cas", [this, expected, desired] {
                       return store_.cas(expected, desired);
                     }};
  }
  /// Set every bit in `mask` — 1 step (the hardware fetch_or).
  auto fetch_or(Word mask) {
    return Primitive{id(), "fetch_or", [this, mask] {
                       store_.fetch_or(mask);
                       return true;
                     }};
  }
  /// Keep only the bits in `mask` — 1 step (the hardware fetch_and).
  auto fetch_and(Word mask) {
    return Primitive{id(), "fetch_and", [this, mask] {
                       store_.fetch_and(mask);
                       return true;
                     }};
  }

  Word peek() const { return store_.load(); }  // observer-side, not a step
  bool is_lock_free() const { return store_.is_lock_free(); }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    encode_word(out, peek());
  }
  std::string describe() const override {
    return name() + "=" + format_word(peek());
  }

 private:
  Store store_;
};

}  // namespace hi::sim
