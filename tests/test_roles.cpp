// Process roles of the single-writer objects (algo/values.h SwsrRoles): the
// §4 registers, the §5.1 max register and the wait-free-simulated register
// admit one writer p_w (and, except for the combinator, one reader p_r);
// the Theorem 20 strawman queue admits one mutator and one peeker. Every
// role-bound entry point and the spec-level apply(pid, op) assert the
// caller, on every Env. The wrong-role rows are debug death tests: under
// NDEBUG the asserts compile out and EXPECT_DEBUG_DEATH merely runs the
// (single-threaded, harmless) call, so the checks bite in asserts-on builds
// such as the CI sanitizer job.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/strawman_queue.h"
#include "algo/wait_free_sim.h"
#include "env/rt_env.h"
#include "env/sim_env.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/max_register_spec.h"
#include "spec/queue_spec.h"
#include "spec/register_spec.h"

namespace hi {
namespace {

constexpr int kWriter = 0;
constexpr int kReader = 1;

/// Runs one operation task to completion as process `pid`.
template <typename Env>
struct Host;

template <>
struct Host<env::SimEnv> {
  sim::Memory memory;
  sim::Scheduler sched{2};
  sim::Memory& ctx() { return memory; }
  template <typename T>
  T run(int pid, sim::OpTask<T> task) {
    return sim::run_solo(sched, pid, std::move(task));
  }
};

template <>
struct Host<env::RtEnv> {
  env::RtEnv::Ctx ctx() { return {}; }
  template <typename T>
  T run(int /*pid*/, env::EagerTask<T> task) {
    return task.get();
  }
};

// One row per object family and Env: how to build the object, and one
// reader-role and one writer-role operation, both direct and as spec ops.

template <typename E, template <typename, typename> class Alg>
struct RegisterRow {
  using Env = E;
  using Obj = Alg<E, env::PackedBins<E>>;
  static Obj make(typename E::Ctx ctx) {
    return Obj(ctx, spec::RegisterSpec(4), kWriter, kReader);
  }
  static auto read(Obj& obj, int pid) { return obj.read(pid); }
  static auto write(Obj& obj, int pid) { return obj.write(pid, 2); }
  static auto read_op() { return spec::RegisterSpec::read(); }
  static auto write_op() { return spec::RegisterSpec::write(2); }
};

template <typename E>
struct MaxRegisterRow {
  using Env = E;
  using Obj = algo::HiMaxRegisterAlgPacked<E>;
  static Obj make(typename E::Ctx ctx) {
    return Obj(ctx, spec::MaxRegisterSpec(4), kWriter, kReader);
  }
  static auto read(Obj& obj, int pid) { return obj.read_max(pid); }
  static auto write(Obj& obj, int pid) { return obj.write_max(pid, 2); }
  static auto read_op() { return spec::MaxRegisterSpec::read_max(); }
  static auto write_op() { return spec::MaxRegisterSpec::write_max(2); }
};

template <typename E>
struct QueueRow {
  using Env = E;
  using Obj = algo::StrawmanQueueAlg<E>;
  static Obj make(typename E::Ctx ctx) {
    return Obj(ctx, spec::QueueSpec(3, 2), kWriter, kReader);
  }
  static auto read(Obj& obj, int pid) { return obj.peek(pid); }
  static auto write(Obj& obj, int pid) { return obj.enqueue(pid, 1); }
  static auto read_op() { return spec::QueueSpec::peek(); }
  static auto write_op() { return spec::QueueSpec::enqueue(1); }
};

template <typename Row>
class SwsrRoleDeathTest : public ::testing::Test {};

using Rows = ::testing::Types<
    RegisterRow<env::SimEnv, algo::VidyasankarAlg>,
    RegisterRow<env::SimEnv, algo::LockFreeHiAlg>,
    RegisterRow<env::SimEnv, algo::WaitFreeHiAlg>,
    RegisterRow<env::SimEnv, algo::WaitFreeSimHiAlg>,
    MaxRegisterRow<env::SimEnv>, QueueRow<env::SimEnv>,
    RegisterRow<env::RtEnv, algo::VidyasankarAlg>,
    RegisterRow<env::RtEnv, algo::LockFreeHiAlg>,
    RegisterRow<env::RtEnv, algo::WaitFreeHiAlg>,
    RegisterRow<env::RtEnv, algo::WaitFreeSimHiAlg>,
    MaxRegisterRow<env::RtEnv>, QueueRow<env::RtEnv>>;
TYPED_TEST_SUITE(SwsrRoleDeathTest, Rows);

TYPED_TEST(SwsrRoleDeathTest, RightRolesRun) {
  Host<typename TypeParam::Env> host;
  auto obj = TypeParam::make(host.ctx());
  (void)host.run(kWriter, TypeParam::write(obj, kWriter));
  (void)host.run(kReader, TypeParam::read(obj, kReader));
  (void)host.run(kWriter, obj.apply(kWriter, TypeParam::write_op()));
  (void)host.run(kReader, obj.apply(kReader, TypeParam::read_op()));
}

TYPED_TEST(SwsrRoleDeathTest, WrongRoleAborts) {
  Host<typename TypeParam::Env> host;
  auto obj = TypeParam::make(host.ctx());
  EXPECT_DEBUG_DEATH((void)host.run(kReader, TypeParam::write(obj, kReader)),
                     "wrong role");
  EXPECT_DEBUG_DEATH((void)host.run(kWriter, TypeParam::read(obj, kWriter)),
                     "wrong role");
  EXPECT_DEBUG_DEATH(
      (void)host.run(kReader, obj.apply(kReader, TypeParam::write_op())),
      "wrong role");
  EXPECT_DEBUG_DEATH(
      (void)host.run(kWriter, obj.apply(kWriter, TypeParam::read_op())),
      "wrong role");
}

}  // namespace
}  // namespace hi
