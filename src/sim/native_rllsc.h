// The "ideal" native R-LLSC cell (§6.1): one context-aware LL/SC base
// object, each operation a single primitive, behind the same pid-explicit
// interface as algo::CasRllscAlg, so Algorithm 5 can run over either (§6.1
// vs §6.4). Model-only: hardware offers CAS, which is exactly what
// Algorithm 6 exists to bridge, so this cell has no hardware sibling.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/rllsc.h"
#include "algo/values.h"
#include "sim/base_object.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::sim {

/// Native context-aware releasable LL/SC object over the two-word R-LLSC
/// value: each R-LLSC operation of §6.1 is a single atomic primitive, and
/// the state is the (value, context) pair of Algorithm 6's CAS word, so it
/// encodes and prints exactly as the CAS cell does. Used to run Algorithm 5
/// against *ideal* R-LLSC base objects, in isolation from Algorithm 6's
/// CAS-based implementation of the same object (which is then substituted
/// in for the full Theorem 32 composition).
class RllscCell final : public BaseObject {
 public:
  using V = algo::RllscValue;
  using Word = algo::CtxWord<V>;  // ctx bit i set <=> process i in context

  explicit RllscCell(std::string name, V initial = {})
      : BaseObject(std::move(name)), word_{initial, 0} {}

  /// LL(O): adds the caller to the context, returns the value.
  auto ll() {
    return Primitive{id(), "LL", [this] {
                       word_.ctx = util::set_bit(word_.ctx, self());
                       return word_.value;
                     }};
  }
  /// VL(O): true iff the caller is in the context.
  auto vl() {
    return Primitive{id(), "VL",
                     [this] { return util::test_bit(word_.ctx, self()); }};
  }
  /// SC(O, new): installs the value and clears the context iff the caller is
  /// in the context.
  auto sc(V desired) {
    return Primitive{id(), "SC", [this, desired] {
                       if (!util::test_bit(word_.ctx, self())) return false;
                       word_ = Word{desired, 0};
                       return true;
                     }};
  }
  /// RL(O): removes the caller from the context.
  auto rl() {
    return Primitive{id(), "RL", [this] {
                       word_.ctx = util::clear_bit(word_.ctx, self());
                       return true;
                     }};
  }
  /// Load(O): the value, without touching the context.
  auto load() {
    return Primitive{id(), "Load", [this] { return word_.value; }};
  }
  /// Store(O, new): installs the value and clears the context.
  auto store(V desired) {
    return Primitive{id(), "Store", [this, desired] {
                       word_ = Word{desired, 0};
                       return true;
                     }};
  }

  Word peek() const { return word_; }  // observer-side, not a step

  void encode_state(std::vector<std::uint64_t>& out) const override {
    encode_word(out, word_);
  }
  std::string describe() const override {
    return name() + "=" + format_word(word_);
  }

 private:
  /// The caller, resolved from the scheduler at the granted step.
  static unsigned self() {
    return static_cast<unsigned>(detail::current_process()->pid);
  }

  Word word_;
};

class NativeRllsc {
 public:
  using V = algo::RllscValue;

  NativeRllsc(Memory& memory, std::string name, V initial)
      : cell_(&memory.make<RllscCell>(std::move(name), initial)) {}

  OpTask<spec::RllscSpec::Resp> apply(int pid, spec::RllscSpec::Op op) {
    return algo::apply_rllsc<OpTask>(*this, pid, op);
  }

  SubTask<V> ll(int pid) {
    assert_self(pid);
    const V cur = co_await cell_->ll();
    co_return cur;
  }

  /// Native LL is wait-free, so interleaving is unnecessary for progress;
  /// one poll runs first so a ready response is still honored promptly.
  /// `poll` is a nullary callable returning an awaitable of bool.
  template <typename Poll>
  SubTask<std::optional<V>> ll_interleaved(int pid, Poll poll) {
    assert_self(pid);
    const bool bail = co_await poll();
    if (bail) co_return std::nullopt;
    const V cur = co_await cell_->ll();
    co_return cur;
  }

  SubTask<bool> vl(int pid) {
    assert_self(pid);
    const bool valid = co_await cell_->vl();
    co_return valid;
  }
  SubTask<bool> sc(int pid, V desired) {
    assert_self(pid);
    const bool swapped = co_await cell_->sc(desired);
    co_return swapped;
  }
  SubTask<bool> rl(int pid) {
    assert_self(pid);
    co_await cell_->rl();
    co_return true;
  }
  SubTask<V> load() {
    const V cur = co_await cell_->load();
    co_return cur;
  }
  SubTask<bool> store(V desired) {
    co_await cell_->store(desired);
    co_return true;
  }

  V peek_value() const { return cell_->peek().value; }
  std::uint64_t peek_context() const { return cell_->peek().ctx; }
  algo::CtxWord<V> peek_word() const { return cell_->peek(); }
  bool is_lock_free() const { return true; }

 private:
  /// The native cell resolves the caller from the scheduler inside each
  /// primitive; the explicit pid must agree.
  static void assert_self(int pid) {
    assert(pid == detail::current_process()->pid);
    (void)pid;
  }

  RllscCell* cell_;
};

}  // namespace hi::sim
