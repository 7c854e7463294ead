// Real-hardware (std::atomic, real threads) tests for the rt library:
// RtRllsc (Algorithm 6), RtUniversal (Algorithm 5 / Theorem 32 composition),
// and the baselines. These complement the simulator tests: the simulator
// gives step-exact model checking, the rt tests give coverage under genuine
// hardware interleavings, plus linearizability checking of timestamped
// histories (conservative event ordering, hence sound).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "algo/leaky_universal.h"
#include "env/rt_env.h"
#include "rt/baselines_rt.h"
#include "rt/rllsc_rt.h"
#include "rt/universal_rt.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using spec::CounterSpec;
using spec::RegisterSpec;
using spec::SetSpec;

TEST(RtRllsc, SingleThreadSemantics) {
  rt::RtRllsc cell(5);
  EXPECT_EQ(cell.ll(0), 5u);
  EXPECT_TRUE(cell.vl(0));
  EXPECT_FALSE(cell.vl(1));
  EXPECT_TRUE(cell.sc(0, 9));
  EXPECT_FALSE(cell.sc(0, 7)) << "SC without fresh LL must fail";
  EXPECT_EQ(cell.load(), 9u);
  EXPECT_EQ(cell.ll(1), 9u);
  EXPECT_TRUE(cell.rl(1));
  EXPECT_FALSE(cell.sc(1, 3));
  EXPECT_TRUE(cell.store(2));
  EXPECT_EQ(cell.load(), 2u);
  EXPECT_EQ(cell.snapshot().ctx, 0u);
}

TEST(RtRllsc, ConcurrentScsAreExclusivePerLink) {
  // Two threads race LL;SC on the same cell. Every successful SC installs a
  // unique token, so #successes == #distinct installed values observed.
  rt::RtRllsc cell(0);
  constexpr int kRounds = 20000;
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> token{1};

  auto worker = [&](int pid) {
    for (int i = 0; i < kRounds; ++i) {
      (void)cell.ll(pid);
      const std::uint64_t mine = token.fetch_add(1);
      if (cell.sc(pid, mine)) successes.fetch_add(1);
    }
  };
  std::thread t0(worker, 0), t1(worker, 1);
  t0.join();
  t1.join();

  EXPECT_GE(successes.load(), 1u);
  EXPECT_LE(successes.load(), 2u * kRounds);
  EXPECT_EQ(cell.snapshot().ctx, 0u)
      << "context must be empty once no LL is pending un-SC'd";
}

TEST(RtUniversal, LockFreedomReport) {
  const CounterSpec spec(1u << 24, 0);
  rt::RtUniversal<CounterSpec> object(spec, 4);
  const bool lock_free = object.is_lock_free();
  RecordProperty("cas16_lock_free", lock_free ? 1 : 0);
#if defined(__x86_64__)
  // The build compiles with -mcx16, so an x86-64 host has CMPXCHG16B and
  // libatomic resolves the 16-byte operations to it.
  EXPECT_TRUE(lock_free) << "16-byte CAS is not lock-free on this x86-64 host";
#endif
}

TEST(RtUniversal, IncDecRoundsStayExact) {
  // Regression for the stale-expected CAS (see RtEnvT::cas): gcc 12 -O2
  // once compiled the ll_interleaved retry loop so that a retry's expected
  // word lagged one attempt behind, and a stale CAS succeeded when head's
  // value recurred. Decrements make values recur, so every round must land
  // exactly on rounds × threads × (incs − decs). A lost or repeated
  // operation breaks the count; a hang trips the stall watchdog, which
  // aborts the binary rather than leaving ctest to wait for its timeout.
  constexpr int kThreads = 4;
  constexpr int kIncs = 5000;
  constexpr int kDecs = 1250;
  constexpr int kRounds = 12;
  constexpr auto kStall = std::chrono::seconds(20);
  const CounterSpec spec(1u << 24, 0);
  for (const bool combine : {false, true}) {
    rt::RtUniversal<CounterSpec> object(spec, kThreads, true, combine);
    for (int round = 1; round <= kRounds; ++round) {
      std::atomic<std::uint64_t> done{0};
      std::vector<std::thread> pool;
      for (int pid = 0; pid < kThreads; ++pid) {
        pool.emplace_back([&, pid] {
          for (int i = 0; i < kIncs; ++i) {
            (void)object.apply(pid, CounterSpec::inc());
            done.fetch_add(1, std::memory_order_relaxed);
          }
          for (int i = 0; i < kDecs; ++i) {
            (void)object.apply(pid, CounterSpec::dec());
            done.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      constexpr std::uint64_t kTotal = kThreads * (kIncs + kDecs);
      std::uint64_t seen = 0;
      auto last_progress = std::chrono::steady_clock::now();
      while (seen < kTotal) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::uint64_t now_done = done.load(std::memory_order_relaxed);
        const auto now = std::chrono::steady_clock::now();
        if (now_done != seen) {
          seen = now_done;
          last_progress = now;
        } else if (now - last_progress > kStall) {
          std::fprintf(stderr,
                       "IncDecRoundsStayExact: no operation completed for "
                       "%lld s (combine=%d, round %d, %llu of %llu done)\n",
                       static_cast<long long>(kStall.count()),
                       combine ? 1 : 0, round,
                       static_cast<unsigned long long>(seen),
                       static_cast<unsigned long long>(kTotal));
          std::abort();
        }
      }
      for (auto& t : pool) t.join();
      ASSERT_EQ(object.head_state_encoded(),
                static_cast<std::uint64_t>(round) * kThreads * (kIncs - kDecs))
          << "combine=" << combine << " round " << round;
    }
  }
}

TEST(RtUniversal, CounterSumsExactlyUnderContention) {
  const CounterSpec spec(1u << 24, 0);
  for (int threads : {2, 4, 8}) {
    rt::RtUniversal<CounterSpec> object(spec, threads);
    constexpr int kOpsEach = 4000;
    std::vector<std::thread> pool;
    std::vector<std::vector<std::uint32_t>> responses(threads);
    for (int pid = 0; pid < threads; ++pid) {
      pool.emplace_back([&, pid] {
        responses[pid].reserve(kOpsEach);
        for (int i = 0; i < kOpsEach; ++i) {
          responses[pid].push_back(object.apply(pid, CounterSpec::inc()));
        }
      });
    }
    for (auto& t : pool) t.join();

    // Final value: every inc applied exactly once.
    EXPECT_EQ(object.head_state_encoded(),
              static_cast<std::uint64_t>(threads) * kOpsEach);
    // Fetch-and-inc responses are globally distinct.
    std::set<std::uint32_t> all;
    for (const auto& r : responses) all.insert(r.begin(), r.end());
    EXPECT_EQ(all.size(), static_cast<std::size_t>(threads) * kOpsEach);
  }
}

TEST(RtUniversal, QuiescentMemoryIsCanonical) {
  // Theorem 32 at quiescence on hardware: announce ≡ ⊥, contexts empty,
  // head carries no response — and two completely different executions
  // reaching the same state have byte-identical memory images.
  const CounterSpec spec(1u << 24, 0);

  auto run = [&](int threads, int ops_each) {
    rt::RtUniversal<CounterSpec> object(spec, 8);  // fixed layout: 8 slots
    std::vector<std::thread> pool;
    for (int pid = 0; pid < threads; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < ops_each; ++i) {
          (void)object.apply(pid, CounterSpec::inc());
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(object.context_union(), 0u);
    EXPECT_FALSE(object.head_has_response());
    for (int pid = 0; pid < 8; ++pid) {
      EXPECT_TRUE(object.announce_is_bottom(pid));
    }
    return object.memory_image();
  };

  const auto img_a = run(2, 6000);   // 12000 incs by 2 threads
  const auto img_b = run(8, 1500);   // 12000 incs by 8 threads
  const auto img_c = run(4, 3000);   // 12000 incs by 4 threads
  EXPECT_EQ(img_a, img_b);
  EXPECT_EQ(img_b, img_c);
}

TEST(RtUniversal, TimestampedHistoryLinearizes) {
  const RegisterSpec spec(8, 3);
  const int threads = 4;
  rt::RtUniversal<RegisterSpec> object(spec, threads);

  std::atomic<std::uint64_t> clock{0};
  struct Record {
    RegisterSpec::Op op;
    std::uint32_t resp;
    std::uint64_t invoked, responded;
  };
  std::vector<std::vector<Record>> logs(threads);

  std::vector<std::thread> pool;
  for (int pid = 0; pid < threads; ++pid) {
    pool.emplace_back([&, pid] {
      util::Xoshiro256 rng(pid + 1);
      for (int i = 0; i < 50; ++i) {
        Record rec;
        rec.op = rng.chance(1, 2)
                     ? RegisterSpec::read()
                     : RegisterSpec::write(
                           static_cast<std::uint32_t>(rng.next_in(1, 8)));
        rec.invoked = clock.fetch_add(1);
        rec.resp = object.apply(pid, rec.op);
        rec.responded = clock.fetch_add(1);
        logs[pid].push_back(rec);
      }
    });
  }
  for (auto& t : pool) t.join();

  verify::History<RegisterSpec::Op, RegisterSpec::Resp> history;
  // Rebuild with global timestamps: insert all events sorted by time.
  struct Ev {
    std::uint64_t time;
    int pid;
    std::size_t idx;
    bool invoke;
  };
  std::vector<Ev> events;
  for (int pid = 0; pid < threads; ++pid) {
    for (std::size_t i = 0; i < logs[pid].size(); ++i) {
      events.push_back({logs[pid][i].invoked, pid, i, true});
      events.push_back({logs[pid][i].responded, pid, i, false});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Ev& a, const Ev& b) { return a.time < b.time; });
  std::vector<std::vector<std::size_t>> hist_index(threads);
  for (int pid = 0; pid < threads; ++pid) hist_index[pid].resize(50);
  for (const Ev& ev : events) {
    if (ev.invoke) {
      hist_index[ev.pid][ev.idx] =
          history.invoke(ev.pid, logs[ev.pid][ev.idx].op);
    } else {
      history.respond(hist_index[ev.pid][ev.idx], logs[ev.pid][ev.idx].resp);
    }
  }

  const auto final_state = spec.decode_state(object.head_state_encoded());
  const auto lin =
      verify::LinearizabilityChecker<RegisterSpec>(spec).check(history,
                                                               final_state);
  EXPECT_TRUE(lin.ok());
}

TEST(RtUniversal, SetMembershipConsistent) {
  const SetSpec spec(16);
  const int threads = 4;
  rt::RtUniversal<SetSpec> object(spec, threads);
  std::vector<std::thread> pool;
  // Thread pid owns elements where v % threads == pid: inserts then removes
  // half of them; final membership is exactly the kept half of each range.
  for (int pid = 0; pid < threads; ++pid) {
    pool.emplace_back([&, pid] {
      for (std::uint32_t v = 1; v <= 16; ++v) {
        if (v % threads != static_cast<std::uint32_t>(pid)) continue;
        (void)object.apply(pid, SetSpec::insert(v));
        if (v % 2 == 0) (void)object.apply(pid, SetSpec::remove(v));
      }
    });
  }
  for (auto& t : pool) t.join();
  std::uint64_t expected = 0;
  for (std::uint32_t v = 1; v <= 16; ++v) {
    if (v % 2 == 1) expected |= std::uint64_t{1} << (v - 1);
  }
  EXPECT_EQ(object.head_state_encoded(), expected);
}

TEST(RtBaselines, LockAndCasLoopCountersSum) {
  const CounterSpec spec(1u << 24, 0);
  {
    rt::RtLockObject<CounterSpec> object(spec);
    std::vector<std::thread> pool;
    for (int pid = 0; pid < 4; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < 5000; ++i) (void)object.apply(pid, CounterSpec::inc());
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(object.apply(0, CounterSpec::read()), 20000u);
  }
  {
    rt::RtCasLoopObject<CounterSpec> object(spec);
    std::vector<std::thread> pool;
    for (int pid = 0; pid < 4; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < 5000; ++i) (void)object.apply(pid, CounterSpec::inc());
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(object.apply(0, CounterSpec::read()), 20000u);
  }
}

TEST(RtBaselines, LeakyUniversalCountsOpsAndSums) {
  const CounterSpec spec(1u << 24, 0);
  const int threads = 4;
  algo::LeakyUniversalAlg<env::RtEnv, CounterSpec> object(env::RtEnv::Ctx{},
                                                         spec, threads);
  constexpr int kOpsEach = 3000;
  std::vector<std::thread> pool;
  std::vector<std::vector<std::uint32_t>> responses(threads);
  for (int pid = 0; pid < threads; ++pid) {
    pool.emplace_back([&, pid] {
      for (int i = 0; i < kOpsEach; ++i) {
        responses[pid].push_back(object.apply(pid, CounterSpec::inc()).get());
      }
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(object.head_state_encoded(),
            static_cast<std::uint64_t>(threads) * kOpsEach);
  std::set<std::uint32_t> all;
  for (const auto& r : responses) all.insert(r.begin(), r.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(threads) * kOpsEach);
  // The leak, quantified: the version counter reveals the operation count.
  EXPECT_EQ(object.version(), static_cast<std::uint64_t>(threads) * kOpsEach);
}

}  // namespace
}  // namespace hi
