// Algorithm 1 (Vidyasankar's SWSR multi-valued register): linearizable and
// wait-free, but NOT history independent — experiment E3 reproduces the
// paper's §4 leak example verbatim, and the HI checker rejects it even on
// purely sequential executions. The Figure 1 leak interleaving is also
// pinned as a hand-written ScheduleTrace literal, with the replay driver's
// rejection of corrupted literals (verify/replay.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/vidyasankar.h"
#include "register_common.h"
#include "sim/trace.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"
#include "verify/replay.h"

namespace hi {
namespace {

using core::VidyasankarRegister;
using spec::RegisterSpec;
using testing::kReaderPid;
using testing::kWriterPid;
using testing::RegisterSystem;
using Sys = RegisterSystem<VidyasankarRegister>;

TEST(Vidyasankar, SoloReadReturnsInitial) {
  Sys sys(5, 3);
  const auto value = sim::run_solo(sys.sched, kReaderPid,
                                   sys.impl.read(kReaderPid));
  EXPECT_EQ(value, 3u);
}

TEST(Vidyasankar, SoloWriteThenRead) {
  Sys sys(5);
  for (std::uint32_t v : {4u, 2u, 5u, 1u, 3u}) {
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
    const auto seen = sim::run_solo(sys.sched, kReaderPid,
                                    sys.impl.read(kReaderPid));
    EXPECT_EQ(seen, v);
  }
}

TEST(Vidyasankar, PaperLeakExampleK3) {
  // §4: "if K = 3 and there is a Write(2) followed by Write(1), we will have
  // A = [1,1,0], whereas if we have only a Write(1), the state will be
  // A = [1,0,0]."
  Sys with_history(3);
  (void)sim::run_solo(with_history.sched, kWriterPid,
                      with_history.impl.write(kWriterPid, 2));
  (void)sim::run_solo(with_history.sched, kWriterPid,
                      with_history.impl.write(kWriterPid, 1));
  const auto mem_with = with_history.memory.snapshot();
  EXPECT_EQ(mem_with.words, (std::vector<std::uint64_t>{1, 1, 0}));

  Sys without_history(3);
  (void)sim::run_solo(without_history.sched, kWriterPid,
                      without_history.impl.write(kWriterPid, 1));
  const auto mem_without = without_history.memory.snapshot();
  EXPECT_EQ(mem_without.words, (std::vector<std::uint64_t>{1, 0, 0}));

  // Same abstract state (1), different memory: the history leaks.
  EXPECT_NE(mem_with, mem_without);
}

TEST(Vidyasankar, HiCheckerRejectsSequentialExecutions) {
  // Not HI in even the weakest sense: Definition 4 fails already on
  // quiescent points of sequential executions.
  verify::HiChecker checker;
  for (std::uint64_t seed = 0; seed < 40 && checker.consistent(); ++seed) {
    Sys sys(4);
    util::Xoshiro256 rng(seed);
    std::uint64_t state = sys.spec.initial_state();
    for (int i = 0; i < 8; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next_in(1, 4));
      (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
      state = v;
      checker.observe(state, sys.memory.snapshot(),
                      "seq seed=" + std::to_string(seed));
    }
  }
  EXPECT_FALSE(checker.consistent())
      << "Algorithm 1 unexpectedly looked history independent";
}

class VidyasankarRandom : public ::testing::TestWithParam<
                              std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(VidyasankarRandom, LinearizableUnderRandomSchedules) {
  const auto [k, seed] = GetParam();
  testing::expect_register_linearizable<VidyasankarRegister>(k, seed);
  // The packed twin (64 bins per word) at K+64 values spans two words, so
  // the schedules cross the word boundary mid-scan and interleave
  // fetch_or/fetch_and RMWs with word-load snapshots.
  using Packed = core::PackedVidyasankarRegister;
  testing::expect_register_linearizable<Packed>(k + 64, seed);
}

TEST_P(VidyasankarRandom, WaitFreeStepBounds) {
  // Read scans up (≤K) then down (≤K-1); Write does ≤K writes. Both are
  // wait-free with bounds independent of scheduling.
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, VidyasankarRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed, .step_weight = 5});
  ASSERT_FALSE(result.timed_out);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const auto& entry = result.history[i];
    if (entry.op.kind == RegisterSpec::Kind::kRead) {
      EXPECT_LE(result.op_steps[i], 2u * k - 1);
    } else {
      EXPECT_LE(result.op_steps[i], static_cast<std::uint64_t>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VidyasankarRandom,
    ::testing::Combine(::testing::Values(3u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

// ---- A hand-written ScheduleTrace literal (the persisted-counterexample
// format): the Figure 1 leak interleaving, with a concurrent read landing
// between the two writes. Replay must leave the leaked [1,1,0] image in the
// atomic cells. ----

TEST(VidyasankarTrace, HandWrittenTraceLiteralReplays) {
  const RegisterSpec spec(3, 1);
  const std::vector<std::vector<RegisterSpec::Op>> workload = {
      {RegisterSpec::write(2), RegisterSpec::write(1)},
      {RegisterSpec::read()}};
  const sim::ScheduleTrace trace{{
      {0, true}, {0, false, 1, "write"}, {1, true}, {1, false, 0, "read"},
      {0, false, 0, "write"}, {0, true}, {0, false, 0, "write"},
  }};

  Sys sys(3);
  const verify::ReplayReport report =
      verify::replay_trace(spec, sys.sched, sys.impl, workload, trace);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.steps_executed, 4u);
  EXPECT_EQ(report.responses, 3u);
  EXPECT_EQ(sys.memory.snapshot().words,
            (std::vector<std::uint64_t>{1, 1, 0}));
}

// Driver self-checks: a corrupted annotation or a pid typo must be rejected,
// not silently replayed — the determinism cross-check that makes a persisted
// trace trustworthy as a regression artifact.

TEST(VidyasankarTrace, CorruptedTraceAnnotationIsRejected) {
  const RegisterSpec spec(3, 1);
  const std::vector<std::vector<RegisterSpec::Op>> workload = {
      {RegisterSpec::write(2)}, {}};
  const sim::ScheduleTrace trace{{
      {0, true}, {0, false, 2, "write"},  // write(2)'s first step hits A[2]
                                          // (object 1), not object 2
  }};

  Sys sys(3);
  const verify::ReplayReport report =
      verify::replay_trace(spec, sys.sched, sys.impl, workload, trace);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("deviates"), std::string::npos)
      << report.message;
}

TEST(VidyasankarTrace, OutOfRangePidInTraceIsRejected) {
  const RegisterSpec spec(3, 1);
  const std::vector<std::vector<RegisterSpec::Op>> workload = {
      {RegisterSpec::write(2)}, {}};
  const sim::ScheduleTrace trace{{{2, true}}};

  Sys sys(3);
  const verify::ReplayReport report =
      verify::replay_trace(spec, sys.sched, sys.impl, workload, trace);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("pid"), std::string::npos) << report.message;
}

}  // namespace
}  // namespace hi
