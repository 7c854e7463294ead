// Voting machine: the classic motivation for history independence [14 in the
// paper: Bethencourt–Boneh–Waters, NDSS'07]. A tally must reveal *how many*
// votes each candidate got — never the order in which ballots were cast, or
// which ballot was cast last (that can deanonymize voters given an observer
// with physical access to the machine's memory).
//
// This example defines a custom sequential specification (a two-candidate
// tally) and runs it through both the history-independent universal
// construction (Algorithm 5/6) and the non-HI baseline. Dumping the shared
// memory afterwards shows the difference: the baseline's version counter and
// announce table reveal the ballot count per booth and each booth's LAST
// vote; the HI tally reveals the totals, full stop.
//
//   $ ./examples/voting_machine
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "algo/leaky_universal.h"
#include "env/rt_env.h"
#include "rt/universal_rt.h"
#include "util/rng.h"

namespace {

/// Sequential spec of a two-candidate vote tally (counts capped at 2^15 so
/// the packed state fits the rt layout's 32 bits).
class TallySpec {
 public:
  struct State {
    std::uint16_t alice = 0;
    std::uint16_t bob = 0;

    friend bool operator==(const State&, const State&) = default;
  };
  enum class Kind : std::uint8_t { kVoteAlice, kVoteBob, kReadTally };
  struct Op {
    Kind kind;

    friend bool operator==(const Op&, const Op&) = default;
  };
  using Resp = std::uint32_t;  // packed (alice << 16 | bob) for reads

  static Op vote_alice() { return Op{Kind::kVoteAlice}; }
  static Op vote_bob() { return Op{Kind::kVoteBob}; }
  static Op read_tally() { return Op{Kind::kReadTally}; }

  State initial_state() const { return {}; }

  std::pair<State, Resp> apply(const State& state, const Op& op) const {
    switch (op.kind) {
      case Kind::kVoteAlice:
        return {State{static_cast<std::uint16_t>(state.alice + 1), state.bob},
                0};
      case Kind::kVoteBob:
        return {State{state.alice, static_cast<std::uint16_t>(state.bob + 1)},
                0};
      case Kind::kReadTally:
        return {state, (static_cast<std::uint32_t>(state.alice) << 16) |
                           state.bob};
    }
    return {state, 0};
  }

  bool is_read_only(const Op& op) const {
    return op.kind == Kind::kReadTally;
  }

  std::uint64_t encode_state(const State& s) const {
    return (static_cast<std::uint64_t>(s.alice) << 16) | s.bob;
  }
  State decode_state(std::uint64_t word) const {
    return State{static_cast<std::uint16_t>((word >> 16) & 0xffff),
                 static_cast<std::uint16_t>(word & 0xffff)};
  }
  std::uint32_t encode_op(const Op& op) const {
    return static_cast<std::uint32_t>(op.kind);
  }
  Op decode_op(std::uint32_t word) const {
    return Op{static_cast<Kind>(word)};
  }
  std::uint32_t encode_resp(const Resp& resp) const { return resp; }
  Resp decode_resp(std::uint32_t word) const { return word; }
};

static_assert(hi::spec::SequentialSpec<TallySpec>);

/// Cast the same multiset of ballots (so the same final tally) under two
/// different orders / booth assignments, and return the memory images.
template <typename Machine>
std::vector<hi::rt::Word128> run_election(Machine& machine, int booths,
                                          std::uint64_t shuffle_seed) {
  // 120 ballots for Alice, 80 for Bob, in a seed-dependent order.
  std::vector<TallySpec::Op> ballots;
  for (int i = 0; i < 120; ++i) ballots.push_back(TallySpec::vote_alice());
  for (int i = 0; i < 80; ++i) ballots.push_back(TallySpec::vote_bob());
  hi::util::Xoshiro256 rng(shuffle_seed);
  std::shuffle(ballots.begin(), ballots.end(), rng);

  std::vector<std::thread> pool;
  const std::size_t per_booth = ballots.size() / booths;
  for (int booth = 0; booth < booths; ++booth) {
    pool.emplace_back([&, booth] {
      const std::size_t begin = booth * per_booth;
      const std::size_t end =
          booth + 1 == booths ? ballots.size() : begin + per_booth;
      for (std::size_t i = begin; i < end; ++i) {
        // The leaky baseline's apply returns an eager task: it has run.
        (void)machine.apply(booth, ballots[i]);
      }
    });
  }
  for (auto& t : pool) t.join();
  if constexpr (requires { machine.memory_image(); }) {
    return machine.memory_image();
  } else {
    return {};
  }
}

void dump(const char* label, const std::vector<hi::rt::Word128>& image) {
  std::printf("  %s memory dump:\n", label);
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::printf("    word[%zu] = {%#llx, %#llx}\n", i,
                static_cast<unsigned long long>(image[i].value),
                static_cast<unsigned long long>(image[i].ctx));
  }
}

}  // namespace

int main() {
  const TallySpec spec;
  constexpr int kBooths = 4;

  std::printf("=== History-independent voting machine ===\n");
  std::printf("200 ballots (Alice 120, Bob 80), %d booths.\n\n", kBooths);

  // Two elections with identical outcomes but different casting orders.
  hi::rt::RtUniversal<TallySpec> hi_machine_1(spec, kBooths);
  hi::rt::RtUniversal<TallySpec> hi_machine_2(spec, kBooths);
  const auto image_1 = run_election(hi_machine_1, kBooths, 1);
  const auto image_2 = run_election(hi_machine_2, kBooths, 2);

  const auto tally = hi_machine_1.apply(0, TallySpec::read_tally());
  std::printf("final tally: Alice=%u Bob=%u\n", tally >> 16, tally & 0xffff);
  std::printf("HI machine: memory identical across casting orders: %s\n",
              image_1 == image_2 ? "YES — order is unrecoverable"
                                 : "NO (bug!)");
  dump("HI machine", image_1);

  // The leaky baseline: same tallies, but its memory betrays the history.
  using Leaky = hi::algo::LeakyUniversalAlg<hi::env::RtEnv, TallySpec>;
  Leaky leaky_1(hi::env::RtEnv::Ctx{}, spec, kBooths);
  Leaky leaky_2(hi::env::RtEnv::Ctx{}, spec, kBooths);
  (void)run_election(leaky_1, kBooths, 1);
  (void)run_election(leaky_2, kBooths, 2);
  std::printf(
      "\nLeaky baseline: version counter reveals %llu ballots were cast;\n"
      "its per-booth announce/result tables also reveal each booth's last "
      "ballot\n(run twice: internal words differ across casting orders even "
      "though the\ntally is identical).\n",
      static_cast<unsigned long long>(leaky_1.version()));

  return image_1 == image_2 ? 0 : 1;
}
