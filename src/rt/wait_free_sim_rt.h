// The wait-free-simulated Alg 2/3 register on real hardware: the
// Kogan–Petrank-style combinator (algo/wait_free_sim.h) instantiated over
// RtEnv. Unlike the other rt register wrappers this one takes an explicit
// pid per call — the combinator's operation records, fail streaks and
// helping accounting are per-process, so harness threads must identify
// themselves (pid ∈ [0, num_processes)).
//
// Frame discipline: every combinator Sub (help_head, enqueue, the helped
// attempt chain) is an EagerTask consumed on the calling thread, so the
// whole fast path AND the slow path recycle through the per-thread
// FrameArena — steady state allocates nothing even when every read is
// helped (tests/test_rt_alloc.cpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/wait_free_sim.h"
#include "env/rt_env.h"

namespace hi::rt {

/// Wait-free K-valued register via the simulation combinator. Reads are
/// helped slow-path-capable operations; writes run direct but help first.
template <typename Bins>
class RtWaitFreeSimHiRegisterT {
 public:
  explicit RtWaitFreeSimHiRegisterT(std::uint32_t num_values,
                                    std::uint32_t initial = 1,
                                    int num_processes = 2,
                                    std::uint32_t fast_limit = 1)
      : alg_(env::RtEnv::Ctx{}, num_values, initial, num_processes,
             fast_limit) {}

  /// Wait-free read by process `pid` (default: the conventional reader pid
  /// used across the SWSR suites).
  std::uint32_t read(int pid = 1) { return alg_.read(pid).get(); }
  /// Write by process `pid` (default: the conventional writer pid 0).
  void write(std::uint32_t value, int pid = 0) {
    (void)alg_.write(pid, value).get();
  }

  /// Inner A bins (one byte per bin), then each combinator word as 8 LE
  /// bytes — same layout as the sim instantiation's encode_memory, which is
  /// what the parity suite compares.
  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    alg_.encode_memory(image);
    return image;
  }
  /// The part that remains canonical per abstract state (Thm 17 probe).
  std::vector<std::uint8_t> inner_image() const {
    std::vector<std::uint8_t> image;
    alg_.encode_inner_memory(image);
    return image;
  }
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

  std::uint64_t total_ops() const { return alg_.total_ops(); }
  std::uint64_t slow_path_entries() const { return alg_.slow_path_entries(); }
  std::uint64_t helped_completions() const {
    return alg_.helped_completions();
  }
  void reset_stats() { alg_.reset_stats(); }

  algo::WaitFreeSimHiAlg<env::RtEnv, Bins>& alg() { return alg_; }

 private:
  algo::WaitFreeSimHiAlg<env::RtEnv, Bins> alg_;
};

using RtWaitFreeSimHiRegister =
    RtWaitFreeSimHiRegisterT<env::PackedBins<env::RtEnv>>;
using RtWaitFreeSimHiRegisterPadded =
    RtWaitFreeSimHiRegisterT<env::PaddedBins<env::RtEnv>>;

}  // namespace hi::rt
