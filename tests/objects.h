// The object table of the verification ladder: every algo class × layout
// (and universal mode) the rungs drive, listed once, and the rows each rung
// runs over it. The shape is a workload list × a scheduler × a collected
// check: an entry names what to build and how to drive it, a rung names the
// scheduler (sequential sim↔rt parity, a recorded sim schedule replayed over
// hardware atomics, real threads under yield injection) and each row of a
// rung is one line of today's values. The explore rung (every schedule of
// a small workload, naive and DPOR) and the crash rung (every crash point
// of one operation) drive the sim instantiation only (tests/explore.h,
// tests/test_crash.cpp).
//
// An entry E gives:
//   * E::Spec and E::Impl<Env> — the sequential spec and the algo class;
//   * E::make<Env>(ctx, spec, processes) — the factory; it fixes the role
//     pids (p_w = 0, p_r = 1 for the single-writer objects) and the layout;
//   * E::script(spec, pid, rng, ops) — pid's random op script;
//   * E::step(spec, rng, processes) — one random (pid, op) for the
//     sequential parity rung;
//   * E::audit(spec) — solo (pid, op)s that pin the final abstract state
//     after a concurrent run (every valid linearization must end there);
//   * E::image(obj) — the observer-side memory image, comparable across
//     backends;
//   * E::kHi — the object's HI level. It selects the rt rung's final check:
//     under kNone only the history is checked; under any other level the
//     quiescent image must equal a solo replay of the linearization
//     witness;
//   * E::kName.
// step is read by the parity rung, audit by the rt rung, image by both; an
// entry exempt from a rung may leave out what only that rung reads.
// Optional members: E::settle(pid), an op the rt rung appends to every
// script so the final state is pinned (the R-LLSC cell's closing RL);
// E::kImageIsMemory, true when the sim mem(C) snapshot itself is the image
// (one word per bin); E::kWordExact = false when the sim and replay
// encodings differ and the replay rung compares images instead of mem(C);
// E::state(obj), the abstract state read back from the object, for an
// entry whose operations take effect before they respond (the explore
// rung's HI check otherwise folds the history's completed operations).
//
// The coverage test (test_env_parity.cpp, ObjectTable.CoverageMatrix)
// prints the entry × rung matrix and fails when an entry lacks a rung that
// is not on kExemptions. docs/TESTING.md "One object table" shows it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/hi_set.h"
#include "algo/leaky_universal.h"
#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/sharded_set.h"
#include "algo/strawman_queue.h"
#include "algo/universal.h"
#include "algo/values.h"
#include "algo/wait_free_sim.h"
#include "env/env.h"
#include "register_common.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/queue_spec.h"
#include "spec/register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "universal_common.h"
#include "util/rng.h"

namespace hi::testing {

/// The paper's HI grades (Definitions 3–5); kNone = linearizable only.
enum class HiLevel { kNone, kQuiescent, kStateQuiescent, kPerfect };

inline constexpr std::string_view hi_level_name(HiLevel level) {
  switch (level) {
    case HiLevel::kNone: return "none";
    case HiLevel::kQuiescent: return "quiescent";
    case HiLevel::kStateQuiescent: return "state-quiescent";
    case HiLevel::kPerfect: return "perfect";
  }
  return "?";
}

/// The image of a cell-based object (a word per element). Bin-based
/// objects use algo::memory_image's bytes (one per bin, then any extra
/// words as 8 LE bytes).
using Words = std::vector<std::uint64_t>;

/// One CAS cell as (value lo, value hi, ctx) — the sim cell's mem(C) words.
/// Hardware cells hold one value word, so their hi word reads 0.
inline void push_cell(Words& out, const algo::CtxWord<algo::RllscValue>& w) {
  out.push_back(w.value.lo);
  out.push_back(w.value.hi);
  out.push_back(w.ctx);
}
inline void push_cell(Words& out, const algo::CtxWord<std::uint64_t>& w) {
  out.push_back(w.value);
  out.push_back(0);
  out.push_back(w.ctx);
}

template <typename Op>
using Script = std::vector<Op>;

// ---- single-writer objects: p_w = 0 runs the mutators, p_r = 1 reads ----

/// §4 registers (and the wait-free simulation over Alg 2/3): writes of
/// uniform values for p_w, reads for everyone else.
struct RegisterFamily {
  using Spec = spec::RegisterSpec;
  using Op = Spec::Op;

  static Script<Op> script(const Spec& spec, int pid, util::Xoshiro256& rng,
                           int ops) {
    return register_script(spec, pid, rng, ops);
  }
  static std::pair<int, Op> step(const Spec& spec, util::Xoshiro256& rng,
                                 int) {
    if (rng.chance(1, 3)) return {kReaderPid, Spec::read()};
    return {kWriterPid, Spec::write(static_cast<std::uint32_t>(
                         rng.next_in(1, spec.num_values())))};
  }
  static std::vector<std::pair<int, Op>> audit(const Spec&) {
    return {{kReaderPid, Spec::read()}};
  }
  template <typename Obj>
  static std::vector<std::uint8_t> image(const Obj& obj) {
    return algo::memory_image(obj);
  }
};

template <template <typename, typename> class Alg,
          template <typename> class Bins>
struct Register : RegisterFamily {
  template <typename Env>
  using Impl = Alg<Env, Bins<Env>>;
  static constexpr bool kImageIsMemory =
      std::is_same_v<Bins<int>, env::PaddedBins<int>>;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                        int) {
    return Impl<Env>(ctx, spec, kWriterPid, kReaderPid);
  }
};

/// The wait-free simulation (algo/wait_free_sim.h); FastLimit = 0 sends
/// every read down the announce/enqueue/help slow path.
template <template <typename> class Bins, std::uint32_t FastLimit>
struct WaitFreeSim : RegisterFamily {
  template <typename Env>
  using Impl = algo::WaitFreeSimHiAlg<Env, Bins<Env>>;
  static constexpr std::uint32_t kFastLimit = FastLimit;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const spec::RegisterSpec& spec,
                        int processes) {
    return Impl<Env>(ctx, spec, kWriterPid, kReaderPid, FastLimit, processes);
  }
};

/// §5.1 max register: WriteMax of uniform values for p_w, ReadMax for p_r.
template <template <typename> class Bins>
struct MaxRegister {
  using Spec = spec::MaxRegisterSpec;
  using Op = Spec::Op;
  template <typename Env>
  using Impl = algo::HiMaxRegisterAlg<Env, Bins<Env>>;
  static constexpr bool kImageIsMemory =
      std::is_same_v<Bins<int>, env::PaddedBins<int>>;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec, int) {
    return Impl<Env>(ctx, spec, kWriterPid, kReaderPid);
  }
  static Script<Op> script(const Spec& spec, int pid, util::Xoshiro256& rng,
                           int ops) {
    Script<Op> out;
    for (int i = 0; i < ops; ++i) {
      out.push_back(pid == kWriterPid
                        ? Spec::write_max(static_cast<std::uint32_t>(
                              rng.next_in(1, spec.num_values())))
                        : Spec::read_max());
    }
    return out;
  }
  static std::pair<int, Op> step(const Spec& spec, util::Xoshiro256& rng,
                                 int) {
    if (rng.chance(1, 3)) return {kReaderPid, Spec::read_max()};
    return {kWriterPid, Spec::write_max(static_cast<std::uint32_t>(
                         rng.next_in(1, spec.num_values())))};
  }
  static std::vector<std::pair<int, Op>> audit(const Spec&) {
    return {{kReaderPid, Spec::read_max()}};
  }
  template <typename Obj>
  static std::vector<std::uint8_t> image(const Obj& obj) {
    return algo::memory_image(obj);
  }
};

/// Theorem 20's strawman queue: p_w enqueues (2 in 3) or dequeues, p_r
/// peeks. Only the replay rung runs it (kExemptions), so it needs no step,
/// audit or image.
struct StrawmanQueueFamily {
  using Spec = spec::QueueSpec;
  using Op = Spec::Op;
  template <typename Env>
  using Impl = algo::StrawmanQueueAlg<Env>;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec, int) {
    return Impl<Env>(ctx, spec, kWriterPid, kReaderPid);
  }
  static Script<Op> script(const Spec& spec, int pid, util::Xoshiro256& rng,
                           int ops) {
    if (pid != kWriterPid) return Script<Op>(ops, Spec::peek());
    Script<Op> out;
    for (int i = 0; i < ops; ++i) {
      out.push_back(rng.chance(2, 3)
                        ? Spec::enqueue(static_cast<std::uint8_t>(
                              rng.next_in(1, spec.domain())))
                        : Spec::dequeue());
    }
    return out;
  }
};

// ---- symmetric objects: any pid runs any op ----

/// Sets (§5.1 and the sharded store): uniform insert/remove/lookup.
struct SetFamily {
  using Spec = spec::SetSpec;
  using Op = Spec::Op;

  static Op random_op(const Spec& spec, util::Xoshiro256& rng) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, spec.domain()));
    switch (rng.next_below(3)) {
      case 0: return Spec::insert(v);
      case 1: return Spec::remove(v);
      default: return Spec::lookup(v);
    }
  }
  static Script<Op> script(const Spec& spec, int, util::Xoshiro256& rng,
                           int ops) {
    Script<Op> out;
    for (int i = 0; i < ops; ++i) out.push_back(random_op(spec, rng));
    return out;
  }
  static std::pair<int, Op> step(const Spec& spec, util::Xoshiro256& rng,
                                 int) {
    return {0, random_op(spec, rng)};
  }
  /// A full-domain lookup sweep pins every bit of the final set.
  static std::vector<std::pair<int, Op>> audit(const Spec& spec) {
    std::vector<std::pair<int, Op>> out;
    for (std::uint32_t v = 1; v <= spec.domain(); ++v) {
      out.emplace_back(0, Spec::lookup(v));
    }
    return out;
  }
  template <typename Obj>
  static std::vector<std::uint8_t> image(const Obj& obj) {
    return algo::memory_image(obj);
  }
};

template <template <typename> class Bins>
struct HiSet : SetFamily {
  template <typename Env>
  using Impl = algo::HiSetAlg<Env, Bins<Env>>;
  static constexpr bool kImageIsMemory =
      std::is_same_v<Bins<int>, env::PaddedBins<int>>;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec, int) {
    return Impl<Env>(ctx, spec);
  }
};

/// The sharded store: 4 striped shards, so a ≤64-key spec spans 4 words.
struct ShardedSet : SetFamily {
  template <typename Env>
  using Impl = algo::ShardedHiSetPacked<Env>;
  static constexpr std::uint32_t kShards = 4;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec, int) {
    return Impl<Env>(ctx, spec, kShards, algo::ShardPlacement::kStriped);
  }
};

/// Algorithm 6's R-LLSC cell, named "X": uniform ops over all six kinds.
struct Rllsc {
  using Spec = spec::RllscSpec;
  using Op = Spec::Op;
  template <typename Env>
  using Impl = algo::CasRllscAlg<Env>;
  static constexpr bool kImageIsMemory = true;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec, int) {
    const std::uint64_t initial = spec.initial_state().val;
    if constexpr (std::is_same_v<typename Env::Value, algo::RllscValue>) {
      return Impl<Env>(ctx, "X", algo::RllscValue{initial, 0});
    } else {
      return Impl<Env>(ctx, "X", initial);
    }
  }
  static Op random_op(const Spec& spec, int pid, util::Xoshiro256& rng) {
    const auto arg =
        static_cast<std::uint16_t>(rng.next_below(spec.num_values()));
    switch (rng.next_below(6)) {
      case 0: return Spec::ll(pid);
      case 1: return Spec::vl(pid);
      case 2: return Spec::sc(pid, arg);
      case 3: return Spec::rl(pid);
      case 4: return Spec::load(pid);
      default: return Spec::store(pid, arg);
    }
  }
  static Script<Op> script(const Spec& spec, int pid, util::Xoshiro256& rng,
                           int ops) {
    Script<Op> out;
    for (int i = 0; i < ops; ++i) out.push_back(random_op(spec, pid, rng));
    return out;
  }
  static std::pair<int, Op> step(const Spec& spec, util::Xoshiro256& rng,
                                 int processes) {
    const int pid = static_cast<int>(rng.next_below(processes));
    return {pid, random_op(spec, pid, rng)};
  }
  /// Every script ends released, so every linearization ends with ctx = 0.
  static Op settle(int pid) { return Spec::rl(pid); }
  /// The cell's (value, context) in RllscSpec::encode_state's layout: an
  /// SC or RL takes effect at its CAS, steps before it responds.
  template <typename Obj>
  static std::uint64_t state(const Obj& obj) {
    return (obj.peek_value().lo << 16) | obj.peek_context();
  }
  static std::vector<std::pair<int, Op>> audit(const Spec&) {
    return {{0, Spec::load(0)}};
  }
  template <typename Obj>
  static Words image(const Obj& obj) {
    Words out;
    push_cell(out, obj.peek_word());
    return out;
  }
};

/// Counters over the universal constructions: inc-heavy, with reads and
/// decs.
struct CounterFamily {
  using Spec = spec::CounterSpec;
  using Op = Spec::Op;

  static Script<Op> script(const Spec&, int, util::Xoshiro256& rng, int ops) {
    Script<Op> out;
    for (int i = 0; i < ops; ++i) {
      out.push_back(SpecTraits<Spec>::random_op(rng));
    }
    return out;
  }
  static std::pair<int, Op> step(const Spec&, util::Xoshiro256& rng,
                                 int processes) {
    const int pid = static_cast<int>(rng.next_below(processes));
    return {pid, SpecTraits<Spec>::random_op(rng)};
  }
  static std::vector<std::pair<int, Op>> audit(const Spec&) {
    return {{0, Spec::read()}};
  }
};

/// Algorithm 5 over Algorithm 6 cells, plain or flat-combining. Image: the
/// head's response flag, then every cell (head, announce[0..n)).
template <bool Combine>
struct Universal : CounterFamily {
  template <typename Env>
  using Impl = algo::UniversalAlg<Env, Spec, algo::CasRllscAlg<Env>>;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec,
                        int processes) {
    return Impl<Env>(ctx, spec, processes, /*clear_contexts=*/true, Combine);
  }
  template <typename Obj>
  static Words image(const Obj& obj) {
    Words out{obj.head_has_response() ? 1u : 0u};
    for (const auto& word : obj.memory_words()) push_cell(out, word);
    return out;
  }
};

/// The Fatourou–Kallimanis-style baseline. Its head codec differs per
/// backend, so the image is the decoded leak: head state, version, and the
/// announce and result tables.
struct Leaky : CounterFamily {
  template <typename Env>
  using Impl = algo::LeakyUniversalAlg<Env, Spec>;
  static constexpr bool kWordExact = false;

  template <typename Env>
  static Impl<Env> make(typename Env::Ctx ctx, const Spec& spec,
                        int processes) {
    return Impl<Env>(ctx, spec, processes);
  }
  template <typename Obj>
  static Words image(const Obj& obj) {
    Words out{obj.head_state_encoded(), obj.version()};
    for (int i = 0; i < obj.num_processes(); ++i) {
      out.push_back(obj.peek_announce(i));
      out.push_back(obj.peek_result(i));
    }
    return out;
  }
};

// ---- the entries ----

// clang-format off
#define HI_TABLE_ENTRY(Name, Level, ...)             \
  struct Name : __VA_ARGS__ {                        \
    static constexpr std::string_view kName = #Name; \
    static constexpr HiLevel kHi = HiLevel::Level;   \
  }

HI_TABLE_ENTRY(VidyasankarPadded, kNone, Register<algo::VidyasankarAlg, env::PaddedBins>);
HI_TABLE_ENTRY(VidyasankarPacked, kNone, Register<algo::VidyasankarAlg, env::PackedBins>);
HI_TABLE_ENTRY(LockFreeHiPadded, kStateQuiescent, Register<algo::LockFreeHiAlg, env::PaddedBins>);
HI_TABLE_ENTRY(LockFreeHiPacked, kStateQuiescent, Register<algo::LockFreeHiAlg, env::PackedBins>);
HI_TABLE_ENTRY(WaitFreeHiPadded, kQuiescent, Register<algo::WaitFreeHiAlg, env::PaddedBins>);
HI_TABLE_ENTRY(WaitFreeHiPacked, kQuiescent, Register<algo::WaitFreeHiAlg, env::PackedBins>);
// The combinator's records and queue counters depend on how many reads were
// helped (Theorem 17), so only its inner bins are canonical: the full image
// is graded kNone, and the inner-image audit is a TEST of its own.
HI_TABLE_ENTRY(WaitFreeSimPadded, kNone, WaitFreeSim<env::PaddedBins, 1>);
HI_TABLE_ENTRY(WaitFreeSimPacked, kNone, WaitFreeSim<env::PackedBins, 1>);
HI_TABLE_ENTRY(WaitFreeSimSlowPadded, kNone, WaitFreeSim<env::PaddedBins, 0>);
HI_TABLE_ENTRY(MaxRegisterPadded, kStateQuiescent, MaxRegister<env::PaddedBins>);
HI_TABLE_ENTRY(MaxRegisterPacked, kStateQuiescent, MaxRegister<env::PackedBins>);
HI_TABLE_ENTRY(HiSetPadded, kPerfect, HiSet<env::PaddedBins>);
HI_TABLE_ENTRY(HiSetPacked, kPerfect, HiSet<env::PackedBins>);
HI_TABLE_ENTRY(ShardedHiSet, kPerfect, ShardedSet);
HI_TABLE_ENTRY(CasRllsc, kPerfect, Rllsc);
HI_TABLE_ENTRY(UniversalPlain, kStateQuiescent, Universal<false>);
HI_TABLE_ENTRY(UniversalCombine, kStateQuiescent, Universal<true>);
HI_TABLE_ENTRY(LeakyUniversal, kNone, Leaky);
HI_TABLE_ENTRY(StrawmanQueue, kNone, StrawmanQueueFamily);

#undef HI_TABLE_ENTRY
// clang-format on

using Entries =
    std::tuple<VidyasankarPadded, VidyasankarPacked, LockFreeHiPadded,
               LockFreeHiPacked, WaitFreeHiPadded, WaitFreeHiPacked,
               WaitFreeSimPadded, WaitFreeSimPacked, WaitFreeSimSlowPadded,
               MaxRegisterPadded, MaxRegisterPacked, HiSetPadded, HiSetPacked,
               ShardedHiSet, CasRllsc, UniversalPlain, UniversalCombine,
               LeakyUniversal, StrawmanQueue>;

template <typename E>
inline constexpr bool kImageIsMemory = [] {
  if constexpr (requires { E::kImageIsMemory; }) return E::kImageIsMemory;
  return false;
}();

template <typename E>
inline constexpr bool kWordExact = [] {
  if constexpr (requires { E::kWordExact; }) return E::kWordExact;
  return true;
}();

// ---- the rungs' rows ----

/// Sequential sim↔rt parity: `steps` random solo ops from one rng seeded
/// with `seed`, the sim instantiation of SimE against the rt one of RtE
/// (a padded sim layout is pinned against the packed rt one).
template <typename SimE, typename RtE = SimE>
struct ParityRow {
  using Entry = SimE;
  using RtEntry = RtE;
  typename SimE::Spec spec;
  int processes;
  std::uint64_t seed;
  int steps;
};

/// sim→replay differential fuzz: seeds 1..HI_REPLAY_FUZZ_SEEDS, each a
/// workload of ops[pid] ops per pid drawn from one rng in pid order.
template <typename E>
struct ReplayRow {
  using Entry = E;
  typename E::Spec spec;
  std::vector<int> ops;
};

/// rt yield fuzz: HI_RT_FUZZ_ITERS iterations, each a fresh object and
/// ops[pid] ops per thread from per-(seed, pid) rngs.
template <typename E>
struct YieldRow {
  using Entry = E;
  typename E::Spec spec;
  std::uint64_t seed;
  std::vector<int> ops;
  /// Inject with test_fuzz_rt's aggressive knobs (enough to force slow
  /// paths and combining-phase parks on a loaded single-core runner)
  /// instead of the default policy.
  bool aggressive = false;
};

/// How an explore row runs (tests/explore.h): the naive exploration
/// always, DPOR as well when `dpor` is set, within which caps, and what
/// each run must show.
struct ExplorePlan {
  /// Also explore under DPOR, and check that it finds exactly naive's set
  /// of complete histories in fewer executions.
  bool dpor = false;
  std::size_t max_depth = 64;
  std::uint64_t max_executions = 2'000'000;
  /// Complete executions the naive run must reach (a DPOR run: one).
  std::uint64_t min_complete = 1;
  /// false: the cap cuts the tree, and the run must hit it.
  bool exhausts = true;
  /// Pinned naive complete-execution count (0: unpinned).
  std::uint64_t naive_executions = 0;
  /// A cap DPOR exhausts under and naive DFS overflows (0: none).
  std::uint64_t dpor_cap = 0;
};

/// Every schedule of `work` (pid i runs work[i]), explored as `plan` says.
template <typename E>
struct ExploreRow {
  using Entry = E;
  std::string_view label;
  typename E::Spec spec;
  std::vector<Script<typename E::Spec::Op>> work;
  ExplorePlan plan;
};

/// The crash-point sweep (tests/test_crash.cpp): `pid`'s first operation
/// crashed after s steps, for every s; the survivors drain within `budget`
/// steps, over at least min_crash_points crash points.
template <typename E>
struct CrashRow {
  using Entry = E;
  std::string_view label;
  typename E::Spec spec;
  std::vector<Script<typename E::Spec::Op>> work;
  int pid;
  std::uint64_t budget;
  int min_crash_points;
};

/// The explore-labelled binary an explore row runs in: the one that
/// already compiles its system's explorer. The WF-sim rows keep a binary
/// of their own, as their naive control runs are tier-1's critical path.
enum class ExploreSuite { kExhaustive, kDpor, kWaitFreeSim };

using Reg = spec::RegisterSpec;
using Max = spec::MaxRegisterSpec;
using Set = spec::SetSpec;
using Cnt = spec::CounterSpec;
using Rll = spec::RllscSpec;
inline const Cnt kCounter(1u << 20, 10);

// Each list is a template whose tuple is built by row_list<Arg>, a call
// that depends on the list's template argument: a test TU instantiates the
// tuple (whose element-wise constructor checks are most of a list's
// compile cost) only for the lists it calls.
template <auto, typename... Rows>
std::tuple<Rows...> row_list(Rows... rows) {
  return {std::move(rows)...};
}
// clang-format off
template <int N = 0>
auto parity_rows() {
  return row_list<N>(
      ParityRow<VidyasankarPadded, VidyasankarPacked>{Reg(6, 1), 2, 11, 200},
      ParityRow<VidyasankarPadded, VidyasankarPacked>{Reg(3, 2), 2, 12, 200},
      ParityRow<VidyasankarPacked>{Reg(70, 1), 2, 13, 200},
      ParityRow<LockFreeHiPadded, LockFreeHiPacked>{Reg(6, 1), 2, 21, 200},
      ParityRow<LockFreeHiPadded, LockFreeHiPacked>{Reg(4, 3), 2, 22, 200},
      ParityRow<LockFreeHiPacked>{Reg(70, 65), 2, 23, 200},
      ParityRow<WaitFreeHiPadded, WaitFreeHiPacked>{Reg(6, 1), 2, 31, 200},
      ParityRow<WaitFreeHiPadded, WaitFreeHiPacked>{Reg(5, 5), 2, 32, 200},
      ParityRow<WaitFreeHiPacked>{Reg(70, 1), 2, 33, 200},
      ParityRow<WaitFreeSimPadded>{Reg(6, 1), 2, 43, 200},
      ParityRow<WaitFreeSimPacked>{Reg(70, 1), 2, 41, 200},
      ParityRow<WaitFreeSimSlowPadded>{Reg(6, 2), 2, 42, 200},
      ParityRow<MaxRegisterPadded, MaxRegisterPacked>{Max(8, 1), 2, 61, 200},
      ParityRow<MaxRegisterPadded, MaxRegisterPacked>{Max(8, 1), 2, 62, 200},
      ParityRow<MaxRegisterPacked>{Max(70, 1), 2, 63, 200},
      ParityRow<HiSetPadded, HiSetPacked>{Set(10), 2, 71, 300},
      ParityRow<HiSetPadded, HiSetPacked>{Set(10), 2, 72, 300},
      ParityRow<HiSetPacked>{Set(64, 0x5555555555555555ull), 2, 73, 300},
      ParityRow<CasRllsc>{spec::RllscSpec(100, 4, 7), 4, 41, 300},
      ParityRow<UniversalPlain>{kCounter, 4, 51, 300},
      ParityRow<UniversalCombine>{kCounter, 4, 52, 300},
      ParityRow<LeakyUniversal>{kCounter, 4, 81, 300});
}

template <int N = 0>
auto replay_rows() {
  return row_list<N>(
      ReplayRow<VidyasankarPadded>{Reg(5, 1), {5, 4}},
      ReplayRow<VidyasankarPacked>{Reg(70, 1), {5, 4}},
      ReplayRow<LockFreeHiPadded>{Reg(5, 1), {5, 4}},
      ReplayRow<LockFreeHiPacked>{Reg(70, 1), {5, 4}},
      ReplayRow<WaitFreeHiPadded>{Reg(5, 1), {5, 4}},
      ReplayRow<WaitFreeHiPacked>{Reg(70, 1), {5, 4}},
      ReplayRow<WaitFreeSimPadded>{Reg(5, 1), {5, 4}},
      ReplayRow<WaitFreeSimPacked>{Reg(70, 1), {5, 4}},
      ReplayRow<WaitFreeSimSlowPadded>{Reg(4, 1), {5, 4}},
      ReplayRow<MaxRegisterPadded>{Max(8, 1), {6, 6}},
      ReplayRow<MaxRegisterPacked>{Max(70, 1), {6, 6}},
      ReplayRow<HiSetPadded>{Set(10), {6, 6}},
      ReplayRow<HiSetPacked>{Set(64), {6, 6}},
      ReplayRow<ShardedHiSet>{Set(64), {6, 6}},
      ReplayRow<CasRllsc>{spec::RllscSpec(100, 3, 0), {5, 5, 5}},
      ReplayRow<UniversalPlain>{kCounter, {3, 3, 3}},
      ReplayRow<UniversalCombine>{kCounter, {3, 3, 3}},
      ReplayRow<LeakyUniversal>{kCounter, {3, 3, 3}},
      ReplayRow<StrawmanQueue>{spec::QueueSpec(4, 4), {6, 3}});
}

template <int N = 0>
auto yield_rows() {
  return row_list<N>(
      YieldRow<VidyasankarPacked>{Reg(6, 1), 0xa101, {5, 4}},
      YieldRow<LockFreeHiPacked>{Reg(6, 1), 0xa102, {5, 4}},
      YieldRow<WaitFreeHiPacked>{Reg(6, 1), 0xa103, {5, 4}},
      YieldRow<WaitFreeSimPacked>{Reg(6, 1), 0xa10a, {5, 4, 4}, /*aggressive=*/true},
      YieldRow<MaxRegisterPacked>{Max(6, 1), 0xa104, {5, 4}},
      YieldRow<HiSetPacked>{Set(10), 0xa105, {6, 6, 6}},
      YieldRow<ShardedHiSet>{Set(12), 0xa106, {6, 6, 6}},
      YieldRow<CasRllsc>{spec::RllscSpec(16, 3), 0xa107, {5, 5, 5}},
      YieldRow<UniversalPlain>{kCounter, 0xa108, {5, 5, 5}},
      YieldRow<UniversalCombine>{kCounter, 0xa10b, {5, 5, 5}, /*aggressive=*/true},
      YieldRow<LeakyUniversal>{kCounter, 0xa109, {5, 5, 5}});
}

template <ExploreSuite Suite>
auto explore_rows() {
  if constexpr (Suite == ExploreSuite::kExhaustive) {
    return row_list<Suite>(
        ExploreRow<VidyasankarPadded>{"TwoWritesVsRead", Reg(3, 1),
            {{Reg::write(2), Reg::write(1)}, {Reg::read()}},
            {.max_depth = 40, .max_executions = 400'000}},
        ExploreRow<LockFreeHiPadded>{"WriteVsRead", Reg(3, 1),
            {{Reg::write(2)}, {Reg::read()}},
            {.max_depth = 40, .max_executions = 400'000, .min_complete = 20}},
        ExploreRow<LockFreeHiPadded>{"TwoWritesVsRead", Reg(3, 1),
            {{Reg::write(3), Reg::write(1)}, {Reg::read()}},
            {.max_depth = 40, .max_executions = 400'000, .min_complete = 500}},
        ExploreRow<LockFreeHiPacked>{"WriteVsRead", Reg(3, 1),
            {{Reg::write(2)}, {Reg::read()}},
            {.max_depth = 40, .max_executions = 400'000, .min_complete = 10}},
        // K = 70 spans two packed words: Write(65) ‖ Read crosses the scan's
        // word boundary and the clearing passes' two-word masks.
        ExploreRow<LockFreeHiPacked>{"TwoWordArray", Reg(70, 1),
            {{Reg::write(65)}, {Reg::read()}},
            {.max_depth = 40, .max_executions = 400'000, .min_complete = 10}},
        ExploreRow<WaitFreeHiPadded>{"WriteVsRead", Reg(3, 1),
            {{Reg::write(3)}, {Reg::read()}},
            {.max_depth = 46, .max_executions = 400'000, .min_complete = 1000}},
        ExploreRow<CasRllsc>{"LlScVsLlSc", Rll(8, 2),
            {{Rll::ll(0), Rll::sc(0, 3)}, {Rll::ll(1), Rll::sc(1, 5)}},
            {.max_depth = 30, .max_executions = 500'000, .min_complete = 100}},
        ExploreRow<CasRllsc>{"StoreVsLl", Rll(8, 2),
            {{Rll::store(0, 7), Rll::vl(0)}, {Rll::ll(1), Rll::sc(1, 5), Rll::rl(1)}},
            {.max_depth = 30, .max_executions = 500'000}},
        // Algorithm 5 over 6: the CAS retry loops make the tree larger than
        // any practical cap, so the row checks a prefix-closed subset.
        ExploreRow<UniversalPlain>{"IncVsDec", Cnt(100, 5),
            {{Cnt::inc()}, {Cnt::dec()}},
            {.max_depth = 120, .max_executions = 150'000, .min_complete = 100,
             .exhausts = false}});
  } else if constexpr (Suite == ExploreSuite::kDpor) {
    return row_list<Suite>(
        ExploreRow<HiSetPadded>{"TwoProcs", Set(4),
            {{Set::insert(1), Set::remove(2), Set::lookup(1)},
             {Set::insert(2), Set::remove(1), Set::lookup(2)}},
            {.max_depth = 20, .max_executions = 500'000, .min_complete = 800}},
        ExploreRow<HiSetPadded>{"ThreeProcs", Set(6),
            {{Set::insert(1), Set::remove(2)}, {Set::insert(2), Set::lookup(1)}, {Set::insert(3)}},
            {.dpor = true}},
        // Pairwise cross-shard keys (kStriped: key k → shard (k-1) % 4), the
        // independence DPOR is for: 12!/(4!)³ = 34650 naive executions.
        ExploreRow<ShardedHiSet>{"CrossShard3Proc", Set(12),
            {{Set::insert(1), Set::remove(1)}, {Set::insert(2), Set::remove(2)},
             {Set::insert(3), Set::remove(3)}},
            {.dpor = true, .max_executions = 100'000, .naive_executions = 34650,
             .dpor_cap = 20'000}});
  } else {
    return row_list<Suite>(
        // Every read takes the slow path: the smallest workload in which
        // the write's pre-help completes the reader's record.
        ExploreRow<WaitFreeSimSlowPadded>{"SlowPair", Reg(2, 1),
            {{Reg::write(2)}, {Reg::read()}}, {.dpor = true, .max_depth = 128}},
        // One writer, two readers, fast path on: queue and record contention.
        ExploreRow<WaitFreeSimPadded>{"TripleFast", Reg(2, 1),
            {{Reg::write(2)}, {Reg::read()}, {Reg::read()}},
            {.dpor = true, .max_depth = 128}});
  }
}

template <int N = 0>
auto crash_rows() {
  return row_list<N>(
      CrashRow<LockFreeHiPadded>{"WriterCrash", Reg(4, 1),
          {{Reg::write(3)}, {Reg::read(), Reg::read()}},
          kWriterPid, 200'000, 4},
      // fast_limit 0: every read announces and enqueues itself, so the sweep
      // crosses the announce-only, mid-enqueue and enqueued windows.
      CrashRow<WaitFreeSimSlowPadded>{"ReaderCrash", Reg(4, 1),
          {{Reg::write(2), Reg::write(3), Reg::write(2)}, {Reg::read()}},
          kReaderPid, 200'000, 4});
}
// clang-format on

/// Entries excused from a rung, each with its reason. An rt yield-fuzz
/// row instantiates its class over FuzzEnv and adds about a second (≈4%)
/// to test_fuzz_rt's compile, so no padded layout has one: the per-bin
/// interleavings a padded layout adds are checked in the step model and
/// replayed on hardware atomics instead. An explore or crash row for a
/// class its TU does not already explore or drive instantiates the class
/// over SimEnv with an explorer or a driver, about 3–5 s of that TU's
/// compile (≈4% of the four explore and crash TUs together).
enum class Rung { kParity, kReplay, kYield, kExplore, kCrash };
struct Exemption {
  std::string_view entry;
  Rung rung;
  std::string_view reason;
};
inline constexpr Exemption kExemptions[] = {
    {"ShardedHiSet", Rung::kParity,
     "EnvParity.ShardedHiSetAuditsEvery50Ops is its parity run: it needs "
     "domain 150 (two words per shard, a masked tail), beyond a SetSpec's "
     "64 keys"},
    {"StrawmanQueue", Rung::kParity,
     "Theorem 20's strawman lives in the step model (test_impossibility); "
     "ReplayFuzz.StrawmanQueue carries its schedules to hardware atomics, "
     "and no rt caller uses it"},
    {"StrawmanQueue", Rung::kYield,
     "as for parity: a non-HI strawman with no rt caller"},
    {"VidyasankarPadded", Rung::kYield,
     "non-HI, so a row could check linearizability only; test_exhaustive "
     "checks that over every interleaving of its per-bin scans"},
    {"LockFreeHiPadded", Rung::kYield,
     "its per-bin TryRead failure runs on hardware atomics under the reader "
     "adversary (ReplayAdversary.ReaderStarvationReplaysOverHardwareAtomics) "
     "and under random schedules (ReplayFuzz.LockFreeHiPadded)"},
    {"WaitFreeHiPadded", Rung::kYield,
     "test_exhaustive explores its padded interleavings and "
     "ReplayFuzz.WaitFreeHiPadded replays them on hardware atomics; Alg 4 "
     "runs real threads packed and in StallRt/KOfNSweep.*/Alg4_*"},
    {"WaitFreeSimPadded", Rung::kYield,
     "the combinator runs real threads in WaitFreeSimPacked's aggressive "
     "row and StallRt/KOfNSweep.*/WaitFreeSim_*; its padded interleavings are "
     "WaitFreeSimDpor.*'s and ReplayFuzz.WaitFreeSimPadded's"},
    {"WaitFreeSimSlowPadded", Rung::kYield,
     "as WaitFreeSimPadded: same class, fast_limit 0"},
    {"MaxRegisterPadded", Rung::kYield,
     "ReadMax is Alg 2's per-bin upward scan; HiMaxRegisterRandom.* checks "
     "it under random schedules and ReplayFuzz.MaxRegisterPadded replays "
     "them on hardware atomics"},
    {"HiSetPadded", Rung::kYield,
     "every set op is one primitive on one bin in either layout, so the "
     "padded layout adds no interleaving the packed row lacks"},
    // explore and crash: "priced" as above
    {"VidyasankarPacked", Rung::kExplore, "non-HI, so a row checks "
     "linearizability only, as Exhaustive.VidyasankarPadded_* does; priced"},
    {"WaitFreeHiPacked", Rung::kExplore, "Exhaustive.WaitFreeHiPadded_* "
     "explores Alg 4, Exhaustive.LockFreeHiPacked_* the packed scans; priced"},
    {"WaitFreeSimPacked", Rung::kExplore, "WaitFreeSimDpor.* explores the "
     "same class's helping paths over padded bins; priced"},
    {"MaxRegisterPadded", Rung::kExplore, "priced; HiMaxRegisterRandom.* and "
     "ReplayFuzz.MaxRegister* run it under random schedules"},
    {"MaxRegisterPacked", Rung::kExplore, "as MaxRegisterPadded"},
    {"HiSetPacked", Rung::kExplore, "each op is one word RMW or load, the "
     "PackedBins ops ExplorerDpor.ShardedHiSet_* explores"},
    {"UniversalCombine", Rung::kExplore, "naive DFS cannot exhaust even the "
     "native-cell tree, which Exhaustive.CombiningUniversal_* explores under "
     "DPOR; a CAS-cell row is priced"},
    {"LeakyUniversal", Rung::kExplore, "the non-HI baseline; priced"},
    {"StrawmanQueue", Rung::kExplore, "a non-HI strawman that "
     "test_impossibility drives with the queue adversary; priced"},
    {"VidyasankarPadded", Rung::kCrash, "priced: plain bin reads and writes, "
     "as CrashAudit.LockFreeHiPadded_WriterCrash sweeps for Alg 2"},
    {"VidyasankarPacked", Rung::kCrash, "as VidyasankarPadded"},
    {"LockFreeHiPacked", Rung::kCrash, "CrashAudit.LockFreeHiPadded_* sweeps "
     "the same algorithm at bin grain; priced"},
    {"WaitFreeHiPadded", Rung::kCrash, "priced; StallRt/KOfNSweep.*/Alg4_* "
     "stalls Alg 4's threads at every primitive boundary on hardware"},
    {"WaitFreeHiPacked", Rung::kCrash, "as WaitFreeHiPadded"},
    {"WaitFreeSimPadded", Rung::kCrash, "CrashAudit.WaitFreeSimSlowPadded_* "
     "sweeps the same class with every read on the slow path"},
    {"WaitFreeSimPacked", Rung::kCrash, "as WaitFreeSimPadded"},
    {"MaxRegisterPadded", Rung::kCrash, "priced: Alg 2's scans over bins, as "
     "CrashAudit.LockFreeHiPadded_WriterCrash sweeps"},
    {"MaxRegisterPacked", Rung::kCrash, "as MaxRegisterPadded"},
    {"HiSetPadded", Rung::kCrash, "every op is one primitive, so its only "
     "crash point is before it has done anything"},
    {"HiSetPacked", Rung::kCrash, "as HiSetPadded"},
    {"ShardedHiSet", Rung::kCrash, "as HiSetPadded: one word op per key"},
    {"CasRllsc", Rung::kCrash, "priced; swept inside Alg 5: "
     "CrashAudit.PlainUniversal* over native cells, "
     "StallRt/KOfNSweep.*/PlainUniversal_* over CAS cells"},
    {"UniversalPlain", Rung::kCrash,
     "CrashAudit.PlainUniversalResidueConfinedToCrashedAnnounceCell sweeps "
     "Alg 5 over native cells; priced"},
    {"UniversalCombine", Rung::kCrash,
     "the documented blocking window, pinned by "
     "CrashAudit.CombiningUniversalSurvivesWinnerCrashBeforeInstall and "
     "CrashAudit.CombiningUniversalWinnerCrashedMidBatchBlocks"},
    {"LeakyUniversal", Rung::kCrash, "the non-HI baseline; priced"},
    {"StrawmanQueue", Rung::kCrash, "a non-HI strawman with no progress "
     "claim to sweep"},
};

/// The replay rungs' workload: ops[pid] ops for each pid, drawn in pid
/// order from one rng seeded with `seed`.
template <typename E>
std::vector<Script<typename E::Spec::Op>> workload(
    const typename E::Spec& spec, const std::vector<int>& ops,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Script<typename E::Spec::Op>> out;
  for (std::size_t pid = 0; pid < ops.size(); ++pid) {
    out.push_back(E::script(spec, static_cast<int>(pid), rng, ops[pid]));
  }
  return out;
}

// ---- looping over the rows ----

/// A gtest test whose body is a plain function: how a rung registers one
/// test per row (::testing::RegisterTest), before RUN_ALL_TESTS.
class RowTest : public ::testing::Test {
 public:
  explicit RowTest(void (*body)()) : body_(body) {}
  void TestBody() override { body_(); }

 private:
  void (*body_)();
};

inline void register_row(const char* suite, const std::string& name,
                         void (*body)()) {
  ::testing::RegisterTest(suite, name.c_str(), nullptr, nullptr, __FILE__,
                          __LINE__, [body]() -> ::testing::Test* {
                            return new RowTest(body);
                          });
}

/// Registers one test per row of Rows(), named suite.name_of(row), whose
/// body is run(row). `run` is a captureless lambda, so each row's body is a
/// plain function and no row adds a closure type of its own to gtest.
template <auto Rows, typename NameOf, typename Run>
bool register_rows(const char* suite, NameOf name_of, Run) {
  static const auto rows = Rows();
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (register_row(suite, name_of(std::get<I>(rows)),
                  +[] { Run{}(std::get<I>(rows)); }),
     ...);
  }(std::make_index_sequence<
      std::tuple_size_v<std::remove_const_t<decltype(rows)>>>{});
  return true;
}

}  // namespace hi::testing
