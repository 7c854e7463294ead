// The impossibility side of the paper, reproduced constructively:
//   E7  (Theorem 17)  — the Lemma 16 pigeonhole adversary starves the reader
//                       of candidate register implementations forever
//                       (partly in test_hi_register_lockfree.cpp);
//   E8  (Theorem 20)  — the representative-state variant starves Peek on the
//                       strawman queue (S(i1,i2) walks, Lemma 38);
//   E9  (Prop 6 / 14) — the distance/pigeonhole facts behind perfect-HI
//                       impossibility, checked on the actual canonical maps;
//   E6  (Prop 19)     — the reader of a wait-free quiescent-HI register must
//                       write to shared memory.
#include <gtest/gtest.h>

#include "adversary/queue_adversary.h"
#include "adversary/reader_adversary.h"
#include "algo/strawman_queue.h"
#include "core/hi_register_lockfree.h"
#include "core/hi_register_waitfree.h"
#include "core/vidyasankar.h"
#include "register_common.h"
#include "spec/queue_spec.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using StrawmanQueue = algo::StrawmanQueueAlg<env::SimEnv>;
using spec::QueueSpec;
using testing::kReaderPid;
using testing::kWriterPid;

// ---------------------------------------------------------------- E8: queue

struct QueueSys {
  QueueSpec spec;
  sim::Memory memory;
  sim::Scheduler sched;
  StrawmanQueue impl;

  explicit QueueSys(std::uint32_t domain, std::size_t capacity = 4)
      : spec(domain, capacity),
        sched(2),
        impl(memory, spec, kWriterPid, kReaderPid) {}
};

adversary::CanonicalMap queue_canon(std::uint32_t domain,
                                    std::size_t capacity = 4) {
  adversary::CanonicalMap canon;
  const QueueSpec spec(domain, capacity);
  for (std::uint32_t i = 0; i <= domain; ++i) {
    QueueSys sys(domain, capacity);
    if (i != 0) {
      for (const auto& op : spec.change_seq(0, i)) {
        (void)sim::run_solo(sys.sched, kWriterPid,
                            sys.impl.apply(kWriterPid, op));
      }
    }
    canon.emplace(spec.encode_state(spec.representative(i)),
                  sys.memory.snapshot());
  }
  return canon;
}

TEST(QueueImpossibility, StrawmanQueueSequentialSemantics) {
  QueueSys sys(5);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.peek(kReaderPid)),
            0u);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.enqueue(kWriterPid, 3));
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.enqueue(kWriterPid, 5));
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.peek(kReaderPid)),
            3u);
  EXPECT_EQ(
      sim::run_solo(sys.sched, kWriterPid, sys.impl.dequeue(kWriterPid)), 3u);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.peek(kReaderPid)),
            5u);
  EXPECT_EQ(
      sim::run_solo(sys.sched, kWriterPid, sys.impl.dequeue(kWriterPid)), 5u);
  EXPECT_EQ(
      sim::run_solo(sys.sched, kWriterPid, sys.impl.dequeue(kWriterPid)), 0u);
}

TEST(QueueImpossibility, StrawmanQueueIsStateQuiescentHI) {
  // The strawman really does satisfy the HI half of the tension: identical
  // canonical memory whenever the abstract state matches, at state-quiescent
  // points across executions.
  verify::HiChecker checker;
  const QueueSpec spec(4, 4);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    QueueSys sys(4, 4);
    util::Xoshiro256 rng(seed);
    std::vector<std::uint8_t> mirror;
    for (int i = 0; i < 15; ++i) {
      QueueSpec::Op op = QueueSpec::dequeue();
      if (mirror.size() < 4 && rng.chance(2, 3)) {
        op = QueueSpec::enqueue(static_cast<std::uint8_t>(rng.next_in(1, 4)));
      }
      (void)sim::run_solo(sys.sched, kWriterPid,
                          sys.impl.apply(kWriterPid, op));
      auto [next, resp] = spec.apply(mirror, op);
      mirror = next;
      checker.observe(spec.encode_state(mirror), sys.memory.snapshot(),
                      "seed=" + std::to_string(seed));
    }
  }
  EXPECT_TRUE(checker.consistent()) << checker.violation()->message();
}

TEST(QueueImpossibility, AdversaryStarvesPeekForever) {
  // Theorem 20 realized: the S(i1,i2) representative walk keeps Peek from
  // returning for as many rounds as we run, with steps growing linearly.
  constexpr std::uint32_t kDomain = 4;
  constexpr std::uint64_t kRounds = 2000;
  const auto canon = queue_canon(kDomain);

  QueueSys sys(kDomain);
  const auto plan = adversary::queue_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.memory, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, kRounds);

  EXPECT_FALSE(result.reader_returned);
  EXPECT_EQ(result.rounds_executed, kRounds);
  EXPECT_EQ(result.reader_steps, kRounds);
}

TEST(QueueImpossibility, PeekCompletesSolo) {
  // Lock-freedom's flip side, as for Algorithm 2's reader.
  constexpr std::uint32_t kDomain = 4;
  const auto canon = queue_canon(kDomain);
  QueueSys sys(kDomain);
  const auto plan = adversary::queue_plan(sys.spec);
  (void)adversary::run_starvation(sys.spec, sys.memory, sys.sched, sys.impl,
                                  plan, canon, kWriterPid, kReaderPid, 50);
  const auto value =
      sim::run_solo(sys.sched, kReaderPid, sys.impl.peek(kReaderPid));
  EXPECT_LE(value, kDomain);
}

TEST(QueueImpossibility, ChangerOpsAreWaitFree) {
  // Enqueue/Dequeue rewrite a bounded number of cells regardless of what the
  // reader does: slots (capacity × bits) + 2 front bits.
  QueueSys sys(5, 4);
  const std::uint64_t bound = 4 * 3 + 2;
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t before = sys.sched.steps_of(kWriterPid);
    QueueSpec::Op op = rng.chance(1, 2)
                           ? QueueSpec::enqueue(static_cast<std::uint8_t>(
                                 rng.next_in(1, 5)))
                           : QueueSpec::dequeue();
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.apply(kWriterPid, op));
    EXPECT_LE(sys.sched.steps_of(kWriterPid) - before, bound);
  }
}

// ------------------------------------------------------- E9: Prop 6 and 14

TEST(PerfectHiImpossibility, CanonicalDistancesExceedOne) {
  // Proposition 6: perfect HI forces adjacent states to canonical
  // representations at distance ≤ 1. For a K-valued register over binary
  // registers (one-hot canon), every pair of distinct states is adjacent
  // (one Write apart) yet at distance exactly 2 — so no obstruction-free
  // perfect-HI implementation with this (or, by Prop 14, any) small-base
  // canonical map exists.
  const auto canon =
      testing::build_register_canon<core::LockFreeHiRegister>(6);
  for (std::uint32_t a = 1; a <= 6; ++a) {
    for (std::uint32_t b = a + 1; b <= 6; ++b) {
      EXPECT_EQ(canon.at(a).distance(canon.at(b)), 2u);
    }
  }
}

TEST(PerfectHiImpossibility, PigeonholePairsExistEverywhere) {
  // The engine of Lemma 16: for every base object ℓ of the K-valued register
  // implementations (binary cells), there are two distinct states whose
  // canonical memories agree at ℓ — because 2 < K.
  const std::uint32_t k = 5;
  const auto canon = testing::build_register_canon<core::LockFreeHiRegister>(k);
  const std::size_t words = canon.at(1).words.size();
  for (std::size_t cell = 0; cell < words; ++cell) {
    bool found_pair = false;
    for (std::uint32_t a = 1; a <= k && !found_pair; ++a) {
      for (std::uint32_t b = a + 1; b <= k && !found_pair; ++b) {
        found_pair = canon.at(a).words[cell] == canon.at(b).words[cell];
      }
    }
    EXPECT_TRUE(found_pair) << "cell " << cell;
  }
}

TEST(PerfectHiImpossibility, DistinctStatesHaveDistinctCanon) {
  // Sanity premise of Proposition 14: distinct states must have distinct
  // canonical representations (o_read run solo must distinguish them).
  for (std::uint32_t k : {3u, 5u, 8u}) {
    const auto canon =
        testing::build_register_canon<core::WaitFreeHiRegister>(k);
    for (std::uint32_t a = 1; a <= k; ++a) {
      for (std::uint32_t b = a + 1; b <= k; ++b) {
        EXPECT_NE(canon.at(a), canon.at(b));
      }
    }
  }
}

// ----------------------------------------------------------- E6: Prop 19

TEST(ReaderMustWrite, Algorithm4ReaderWritesToSharedMemory) {
  // Proposition 19: in any wait-free quiescent-HI SWSR register from binary
  // registers, the reader must write. Algorithm 4's reader indeed does —
  // even a solo Read performs flag and B writes.
  testing::RegisterSystem<core::WaitFreeHiRegister> sys(4);
  const std::uint64_t steps_before = sys.sched.steps_of(kReaderPid);
  (void)sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid));
  const std::uint64_t read_steps = sys.sched.steps_of(kReaderPid) - steps_before;
  // A solo read: flag[1] write + TryRead (≥1 reads) + flag[2] write +
  // K writes clearing B + 2 flag writes — at least K+4 writes among them.
  EXPECT_GE(read_steps, 4u + 4u);
}

TEST(ReaderMustWrite, SilentReadersComeAtAPrice) {
  // The empirical complement across this repo's implementations:
  //  * Vidyasankar's reader is silent — wait-free but not even sequentially
  //    HI (E3);
  //  * Algorithm 2's reader is silent — quiescent HI but only lock-free
  //    (starvable, E7);
  //  * Algorithm 4 is wait-free and quiescent HI — and its reader writes.
  // Proposition 19 says this pattern is forced; here we pin the three facts.
  {
    testing::RegisterSystem<core::VidyasankarRegister> sys(3);
    sim::MemorySnapshot before = sys.memory.snapshot();
    (void)sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid));
    EXPECT_EQ(sys.memory.snapshot(), before) << "Vidyasankar reader is silent";
  }
  {
    testing::RegisterSystem<core::LockFreeHiRegister> sys(3);
    sim::MemorySnapshot before = sys.memory.snapshot();
    (void)sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid));
    EXPECT_EQ(sys.memory.snapshot(), before) << "Algorithm 2 reader is silent";
  }
  {
    testing::RegisterSystem<core::WaitFreeHiRegister> sys(3);
    sim::OpTask<std::uint32_t> read = sys.impl.read(kReaderPid);
    sys.sched.start(kReaderPid, read);
    sys.sched.step(kReaderPid);  // first step is a WRITE (flag[1] <- 1)
    EXPECT_STREQ(sys.sched.pending_kind(kReaderPid), "read");
    EXPECT_EQ(sys.memory.snapshot().words[2 * 3], 1u)
        << "flag[1] set: Algorithm 4's reader writes";
    sys.sched.abandon(kReaderPid);
  }
}

}  // namespace
}  // namespace hi
