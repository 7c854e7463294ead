// Schedule-replay instantiations of every single-source algorithm: the same
// `src/algo/` classes the simulator and hardware run, pinned to
// env::ReplayEnv — hardware atomics executed step-by-step under a
// sim::Scheduler. Each class takes its spec and role pids and exposes the
// spec-level apply(pid, op) on every Env, so the differential driver
// (verify/replay.h) can march a core::* system and a replay::* system
// through one recorded ScheduleTrace and compare them after every step:
// the two sides share every line of dispatch and pid checking and can only
// differ in the environment itself.
//
// Objects covered: Vidyasankar (Alg 1), the lock-free HI register (Alg 2/3),
// the wait-free HI register (Alg 4), the wait-free simulation combinator,
// the §5.1 max register and perfect-HI set, the sharded set, the R-LLSC
// object (Alg 6), the universal construction (Alg 5 over 6), the leaky
// (Fatourou–Kallimanis) universal baseline, and the Theorem 20 strawman
// queue.
#pragma once

#include "algo/hi_set.h"
#include "algo/leaky_universal.h"
#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/sharded_set.h"
#include "algo/strawman_queue.h"
#include "algo/universal.h"
#include "algo/wait_free_sim.h"
#include "env/replay_env.h"
#include "spec/spec.h"

namespace hi::replay {

using Env = env::ReplayEnv;

using VidyasankarRegister = algo::VidyasankarAlgPadded<Env>;
using LockFreeHiRegister = algo::LockFreeHiAlgPadded<Env>;
using WaitFreeHiRegister = algo::WaitFreeHiAlgPadded<Env>;
using WaitFreeSimHiRegister = algo::WaitFreeSimHiAlgPadded<Env>;
using HiMaxRegister = algo::HiMaxRegisterAlgPadded<Env>;
using HiSet = algo::HiSetAlgPadded<Env>;

// Packed-layout twins (env::PackedBins): the same bodies over 64-bin atomic
// words — scans are word loads, clears are masked fetch_ands — so recorded
// packed sim schedules replay over the exact hardware RMWs RtEnv uses and
// word-granularity interleavings get the same differential treatment as the
// per-bit originals.
using PackedVidyasankarRegister = algo::VidyasankarAlgPacked<Env>;
using PackedLockFreeHiRegister = algo::LockFreeHiAlgPacked<Env>;
using PackedWaitFreeHiRegister = algo::WaitFreeHiAlgPacked<Env>;
using PackedWaitFreeSimHiRegister = algo::WaitFreeSimHiAlgPacked<Env>;
using PackedHiMaxRegister = algo::HiMaxRegisterAlgPacked<Env>;
using PackedHiSet = algo::HiSetAlgPacked<Env>;

using ShardedHiSet = algo::ShardedHiSetPacked<Env>;

/// Algorithm 6 (perfect-HI R-LLSC) over the 16-byte hardware word.
using CasRllsc = algo::CasRllscAlg<Env>;

/// Algorithm 5 over Algorithm 6, both on the hardware packing (the
/// RllscWordCodec<uint64_t> / 32-bit-state substitution of RtEnv).
template <spec::SequentialSpec S>
using Universal = algo::UniversalAlg<Env, S, CasRllsc>;

/// The Fatourou–Kallimanis-shaped leaky baseline on the hardware packing.
template <spec::SequentialSpec S>
using LeakyUniversal = algo::LeakyUniversalAlg<Env, S>;

/// Theorem 20's strawman queue over hardware atomics.
using StrawmanQueue = algo::StrawmanQueueAlg<Env>;

}  // namespace hi::replay
