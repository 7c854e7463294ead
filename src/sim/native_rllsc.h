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

#include "algo/rllsc.h"
#include "algo/values.h"
#include "sim/base_object.h"
#include "sim/memory.h"
#include "sim/task.h"

namespace hi::sim {

class NativeRllsc {
 public:
  using V = algo::RllscValue;

  NativeRllsc(Memory& memory, std::string name, V initial)
      : cell_(&memory.make<WideRllscCell>(
            std::move(name), WideWord{initial.lo, initial.hi, 0})) {}

  OpTask<spec::RllscSpec::Resp> apply(int pid, spec::RllscSpec::Op op) {
    return algo::apply_rllsc<OpTask>(*this, pid, op);
  }

  SubTask<V> ll(int pid) {
    assert_self(pid);
    const WideWord cur = co_await cell_->ll();
    co_return V{cur.lo, cur.hi};
  }

  /// Native LL is wait-free, so interleaving is unnecessary for progress;
  /// one poll runs first so a ready response is still honored promptly.
  /// `poll` is a nullary callable returning an awaitable of bool.
  template <typename Poll>
  SubTask<std::optional<V>> ll_interleaved(int pid, Poll poll) {
    assert_self(pid);
    const bool bail = co_await poll();
    if (bail) co_return std::nullopt;
    const WideWord cur = co_await cell_->ll();
    co_return V{cur.lo, cur.hi};
  }

  SubTask<bool> vl(int pid) {
    assert_self(pid);
    const bool valid = co_await cell_->vl();
    co_return valid;
  }
  SubTask<bool> sc(int pid, V desired) {
    assert_self(pid);
    const bool swapped = co_await cell_->sc(desired.lo, desired.hi);
    co_return swapped;
  }
  SubTask<bool> rl(int pid) {
    assert_self(pid);
    co_await cell_->rl();
    co_return true;
  }
  SubTask<V> load() {
    const WideWord cur = co_await cell_->load();
    co_return V{cur.lo, cur.hi};
  }
  SubTask<bool> store(V desired) {
    co_await cell_->store(desired.lo, desired.hi);
    co_return true;
  }

  V peek_value() const { return V{cell_->peek().lo, cell_->peek().hi}; }
  std::uint64_t peek_context() const { return cell_->peek().ctx; }
  algo::CtxWord<V> peek_word() const {
    const WideWord w = cell_->peek();
    return {{w.lo, w.hi}, w.ctx};
  }
  bool is_lock_free() const { return true; }

 private:
  /// The native cell resolves the caller from the scheduler inside each
  /// primitive; the explicit pid must agree.
  static void assert_self(int pid) {
    assert(pid == detail::current_process()->pid);
    (void)pid;
  }

  WideRllscCell* cell_;
};

}  // namespace hi::sim
