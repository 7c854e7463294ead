// Shared fixtures for the schedule-replay differential suites
// (test_replay_equivalence.cpp, test_replay_fuzz.cpp,
// test_replay_adversary.cpp): the workload generators. All object rows —
// including the universal constructions, whose cells pack through the
// shared Word64HeadCodec on every backend — compare memory word-for-word
// via verify::snapshot_word_compare. Single-source so a workload change
// cannot silently weaken one suite's coverage while the other still runs
// the old mix.
#pragma once

#include <cstdint>
#include <vector>

#include "register_common.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"

namespace hi::testing {

/// Random R-LLSC workload: a uniform mix over all six op kinds per process,
/// ops tagged with the invoking pid (RllscSpec's Δ needs the identity).
inline std::vector<std::vector<spec::RllscSpec::Op>> rllsc_workload(
    int num_processes, int ops_per_process, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<spec::RllscSpec::Op>> workload(num_processes);
  for (int pid = 0; pid < num_processes; ++pid) {
    for (int i = 0; i < ops_per_process; ++i) {
      const auto arg = static_cast<std::uint16_t>(rng.next_below(100));
      switch (rng.next_below(6)) {
        case 0: workload[pid].push_back(spec::RllscSpec::ll(pid)); break;
        case 1: workload[pid].push_back(spec::RllscSpec::vl(pid)); break;
        case 2: workload[pid].push_back(spec::RllscSpec::sc(pid, arg)); break;
        case 3: workload[pid].push_back(spec::RllscSpec::rl(pid)); break;
        case 4: workload[pid].push_back(spec::RllscSpec::load(pid)); break;
        default:
          workload[pid].push_back(spec::RllscSpec::store(pid, arg));
          break;
      }
    }
  }
  return workload;
}

/// Random 2-process set workload: insert/remove/lookup over {1..domain}.
inline std::vector<std::vector<spec::SetSpec::Op>> set_workload(
    std::uint32_t domain, int ops_per_process, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<spec::SetSpec::Op>> workload(2);
  for (int pid = 0; pid < 2; ++pid) {
    for (int i = 0; i < ops_per_process; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
      switch (rng.next_below(3)) {
        case 0: workload[pid].push_back(spec::SetSpec::insert(v)); break;
        case 1: workload[pid].push_back(spec::SetSpec::remove(v)); break;
        default: workload[pid].push_back(spec::SetSpec::lookup(v)); break;
      }
    }
  }
  return workload;
}

/// SWSR max-register workload: `rounds` random WriteMax for the writer and
/// as many ReadMax for the reader.
inline std::vector<std::vector<spec::MaxRegisterSpec::Op>>
max_register_workload(std::uint32_t num_values, int rounds,
                      std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<spec::MaxRegisterSpec::Op>> workload(2);
  for (int i = 0; i < rounds; ++i) {
    workload[kWriterPid].push_back(spec::MaxRegisterSpec::write_max(
        static_cast<std::uint32_t>(rng.next_in(1, num_values))));
    workload[kReaderPid].push_back(spec::MaxRegisterSpec::read_max());
  }
  return workload;
}

/// Random counter workload (inc-heavy mix with reads and decs) for the
/// universal-construction differentials.
inline std::vector<std::vector<spec::CounterSpec::Op>> counter_workload(
    int num_processes, int ops_per_process, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<spec::CounterSpec::Op>> workload(num_processes);
  for (int pid = 0; pid < num_processes; ++pid) {
    for (int i = 0; i < ops_per_process; ++i) {
      switch (rng.next_below(4)) {
        case 0: workload[pid].push_back(spec::CounterSpec::read()); break;
        case 1: workload[pid].push_back(spec::CounterSpec::dec()); break;
        default: workload[pid].push_back(spec::CounterSpec::inc()); break;
      }
    }
  }
  return workload;
}

}  // namespace hi::testing
