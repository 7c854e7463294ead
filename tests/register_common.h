// Shared fixtures for the SWSR register experiments (§4, Table 1):
// system bundles, canonical-map construction from solo sequential runs, the
// single-writer state oracle, and workload generators.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/reader_adversary.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim_system.h"
#include "spec/register_spec.h"
#include "util/rng.h"
#include "verify/hi_checker.h"
#include "verify/history.h"

namespace hi::testing {

inline constexpr int kWriterPid = 0;
inline constexpr int kReaderPid = 1;

/// A fresh simulated system hosting one SWSR register implementation.
template <typename Impl>
struct RegisterSystem : SimSystem<spec::RegisterSpec, Impl> {
  explicit RegisterSystem(std::uint32_t num_values, std::uint32_t initial = 1)
      : SimSystem<spec::RegisterSpec, Impl>(
            spec::RegisterSpec(num_values, initial), 2, kWriterPid,
            kReaderPid) {}
};

/// can(v) for every value v, built the way the paper's proofs do: a solo
/// sequential execution ending in state v, snapshot at quiescence. (For
/// state v equal to the initial value, the empty execution provides the
/// canonical snapshot; we also cross-check that writing the initial value
/// reproduces it in the HI tests.)
template <typename Impl>
adversary::CanonicalMap build_register_canon(std::uint32_t num_values,
                                             std::uint32_t initial = 1) {
  adversary::CanonicalMap canon;
  for (std::uint32_t v = 1; v <= num_values; ++v) {
    RegisterSystem<Impl> sys(num_values, initial);
    if (v != initial) {
      (void)sim::run_solo(
          sys.sched, kWriterPid,
          sys.impl.write(kWriterPid, v));
    }
    canon.emplace(v, sys.mem.snapshot());
  }
  return canon;
}

/// State oracle for single-writer objects: at any state-quiescent
/// configuration the abstract state is the value of the last completed
/// Write (they are totally ordered by the single writer's program order),
/// or the initial value if none.
template <typename Hist>
std::uint64_t last_write_or(const Hist& history, std::uint64_t initial) {
  std::uint64_t value = initial;
  for (const auto& entry : history.entries()) {
    if (entry.op.kind == spec::RegisterSpec::Kind::kWrite &&
        entry.completed()) {
      value = entry.op.value;
    }
  }
  return value;
}

/// pid's random SWSR script: `ops` writes of uniform values for the
/// writer, `ops` reads for everyone else (which draw nothing from `rng`).
inline std::vector<spec::RegisterSpec::Op> register_script(
    const spec::RegisterSpec& spec, int pid, util::Xoshiro256& rng, int ops) {
  std::vector<spec::RegisterSpec::Op> out;
  for (int i = 0; i < ops; ++i) {
    out.push_back(pid == kWriterPid
                      ? spec::RegisterSpec::write(static_cast<std::uint32_t>(
                            rng.next_in(1, spec.num_values())))
                      : spec::RegisterSpec::read());
  }
  return out;
}

/// Random SWSR workload: `num_writes` writes of uniform values for the
/// writer, `num_reads` reads for the reader.
inline std::vector<std::vector<spec::RegisterSpec::Op>> register_workload(
    std::uint32_t num_values, int num_writes, int num_reads,
    std::uint64_t seed) {
  const spec::RegisterSpec spec(num_values, 1);
  util::Xoshiro256 rng(seed);
  return {register_script(spec, kWriterPid, rng, num_writes),
          register_script(spec, kReaderPid, rng, num_reads)};
}

}  // namespace hi::testing
