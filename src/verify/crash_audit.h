// Crash-configuration audit: what must still hold after the adversary
// crash-fails processes mid-operation (Scheduler::crash — the paper's §2
// crash failures, the event its seized-machine threat model quantifies
// over).
//
// Two checks, composable with any crash staging (explorer-enumerated
// ≤ k-crash configurations, hand-positioned step-exact crashes, shrunken
// regression traces):
//
//  1. PROGRESS GATE — drive_survivors_to_quiescence: round-robin the
//     surviving runnable processes until every one of their pending
//     operations completes, within a step budget. Lock-free and wait-free
//     objects must drain (their progress guarantees hold whatever a crashed
//     process was doing); a lock-based object whose lock holder crashed
//     spins the survivors forever and exhausts the budget — the positive
//     control the gate must catch (tests/test_crash.cpp).
//
//  2. CRASH-POINT HI CHECK — crash_residue: compare the quiescent image the
//     survivors reached against the canonical image of the same surviving
//     abstract state (a fresh system driven crash-free to that state), and
//     require every divergent word to lie inside the caller's allowed
//     residue region — the words the crashed operation itself was writing.
//     This is the fault-containment discipline (Dubois–Masuzawa–Tixeuil,
//     PAPERS.md) applied to the paper's HI definitions: a crash may leave
//     the crashed op's own words torn, but it must not leak history into
//     anything else an adversary reading the memory could see. The positive
//     control is a register that journals the OLD value in a scratch word
//     and only clears it on completion — crash mid-write and the previous
//     value sits in memory at quiescence, outside the op's own words: the
//     exact leak the threat model forbids, and the audit must flag it.
//
// The crashed operation's invocation stays in the history without a
// response; verify/linearizability.h already lets pending operations take
// effect or not, so crashed histories check unchanged. Because the crashed
// op's effect is ambiguous, callers compare against BOTH candidate
// canonical images (op absorbed / op lost) when the crash window spans the
// linearization point — residue_against_best below does exactly that.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/driver.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "verify/divergence.h"

namespace hi::verify {

/// Outcome of the progress gate.
struct ProgressResult {
  bool quiescent = false;       // every surviving process went idle
  std::uint64_t steps_used = 0;
};

/// Round-robin one step at a time over the surviving runnable processes
/// until none remains runnable or the budget runs out. Every runnable
/// process must be mid-operation in `driver`; sim::Driver::step reaps a
/// completed operation into the driver's history, so the process leaves the
/// runnable set. Crashed processes are excluded by
/// Scheduler::runnable_processes() itself.
///
/// Round-robin order matters for the audit's strength: it is the fairest
/// schedule, so a failure here means NO schedule drains the survivors —
/// the object's progress guarantee is simply gone (a lock died with its
/// holder), not merely delayed.
template <typename S, typename Impl>
ProgressResult drive_survivors_to_quiescence(sim::Driver<S, Impl>& driver,
                                             std::uint64_t step_budget) {
  ProgressResult result;
  for (;;) {
    const std::vector<int> pids = driver.scheduler().runnable_processes();
    if (pids.empty()) {
      result.quiescent = true;
      return result;
    }
    for (const int pid : pids) {
      if (result.steps_used >= step_budget) return result;
      (void)driver.step(pid);
      ++result.steps_used;
    }
  }
}

/// Outcome of the crash-point HI check. `ok` iff every divergent word index
/// satisfies the allowed-residue predicate (identical images are trivially
/// ok: the crash left no residue at all).
struct ResidueReport {
  bool ok = true;
  std::vector<std::size_t> divergent;    // all differing word indices
  std::vector<std::size_t> unlocalized;  // differing AND outside the region

  std::string describe() const {
    std::ostringstream out;
    out << divergent.size() << " divergent word(s), " << unlocalized.size()
        << " outside the crashed op's own words:";
    for (const std::size_t w : unlocalized) out << ' ' << w;
    return out.str();
  }
};

/// Compare the survivors' quiescent image against a canonical image of the
/// surviving abstract state. `allowed(index)` says whether snapshot word
/// `index` belongs to the crashed operation's own words (use
/// sim::Memory::word_range to express object-granular regions).
template <typename AllowedFn>
ResidueReport crash_residue(const sim::MemorySnapshot& canonical,
                            const sim::MemorySnapshot& crashed_quiescent,
                            AllowedFn allowed) {
  ResidueReport report;
  report.divergent = divergent_words(canonical, crashed_quiescent);
  for (const std::size_t w : report.divergent) {
    if (!allowed(w)) {
      report.unlocalized.push_back(w);
      report.ok = false;
    }
  }
  return report;
}

/// The ambiguous-linearization form: a crashed update may or may not have
/// taken effect, so the quiescent image is audited against BOTH candidate
/// canonical images and the better (fewest unlocalized words, then fewest
/// divergent) verdict is returned. Sound because the linearizability
/// checker independently certifies that one of the two abstract outcomes
/// explains the survivors' responses.
template <typename AllowedFn>
ResidueReport residue_against_best(const sim::MemorySnapshot& canonical_a,
                                   const sim::MemorySnapshot& canonical_b,
                                   const sim::MemorySnapshot& crashed_quiescent,
                                   AllowedFn allowed) {
  const ResidueReport a = crash_residue(canonical_a, crashed_quiescent, allowed);
  const ResidueReport b = crash_residue(canonical_b, crashed_quiescent, allowed);
  if (a.unlocalized.size() != b.unlocalized.size()) {
    return a.unlocalized.size() < b.unlocalized.size() ? a : b;
  }
  return a.divergent.size() <= b.divergent.size() ? a : b;
}

}  // namespace hi::verify
