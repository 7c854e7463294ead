// Algorithm 5 (algo/universal.h) on real hardware with a synchronous call
// surface: the wait-free state-quiescent-HI universal construction over
// CAS-backed R-LLSC cells (16-byte atomic words) — the same Theorem 32
// composition the simulator model-checks as
// core::Universal<S> (over algo::CasRllscAlg cells). Packing limits (the DESIGN
// substitution carried by RllscWordCodec<uint64_t>): encoded abstract
// states ≤ 32 bits, responses ≤ 24 bits, ≤ 64 processes.
//
// apply() consumes the algorithm's EagerTask on the calling thread; the
// update path's frames (its own and the cell LL/SC/RL Subs beneath it)
// recycle through that thread's FrameArena, while read-only applies and
// the polls are frameless lifted tasks — so an operation, however much
// helping it performs, makes zero steady-state heap allocations
// (tests/test_rt_alloc.cpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "algo/rllsc.h"
#include "algo/universal.h"
#include "env/rt_env.h"
#include "rt/atomic128.h"
#include "spec/spec.h"

namespace hi::rt {

// perfbench/src/universal_combine.h pins this name and its synchronous calls.
template <spec::SequentialSpec S>
class RtUniversal {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;

  /// `combine` enables the flat-combining batch mode (algo/universal.h
  /// header comment): lock-free instead of wait-free, same quiescent image.
  RtUniversal(const S& spec, int num_processes, bool clear_contexts = true,
              bool combine = false)
      : alg_(env::RtEnv::Ctx{}, spec, num_processes, clear_contexts, combine) {
  }

  Resp apply(int pid, Op op) { return alg_.apply(pid, op).get(); }
  Resp apply_read_only(int pid, Op op) {
    return alg_.apply_read_only(pid, op).get();
  }
  Resp apply_update(int pid, Op op) { return alg_.apply_update(pid, op).get(); }
  /// Test support (see algo/universal.h): park an announcement for `pid`.
  bool announce_only(int pid, Op op) {
    return alg_.announce_only(pid, op).get();
  }

  // ---- Observer-side introspection (valid at quiescence) ----

  std::uint64_t head_state_encoded() const { return alg_.head_state_encoded(); }
  bool head_has_response() const { return alg_.head_has_response(); }
  bool announce_is_bottom(int pid) const { return alg_.announce_is_bottom(pid); }
  std::uint64_t context_union() const { return alg_.context_union(); }

  /// Full memory image (head word + announce words), for HI comparisons at
  /// quiescence.
  std::vector<Word128> memory_image() const {
    const auto words = alg_.memory_words();
    std::vector<Word128> image;
    image.reserve(words.size());
    for (const auto& word : words) {
      image.push_back(Word128{word.value, word.ctx});
    }
    return image;
  }

  // Batch instrumentation (batch_size_mean = ops_combined /
  // batches_installed). Read at rest — counters are owner-thread-written.
  std::uint64_t batches_installed() const { return alg_.batches_installed(); }
  std::uint64_t ops_combined() const { return alg_.ops_combined(); }
  void reset_batch_stats() { alg_.reset_batch_stats(); }
  bool combining_enabled() const { return alg_.combining_enabled(); }

  int num_processes() const { return alg_.num_processes(); }
  /// Bytes of shared storage (perfbench's mem_bytes).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }
  bool is_lock_free() const { return alg_.is_lock_free(); }

 private:
  algo::UniversalAlg<env::RtEnv, S, algo::CasRllscAlg<env::RtEnv>> alg_;
};

}  // namespace hi::rt
