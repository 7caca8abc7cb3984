// Algorithm 2 (lock-free state-quiescent-HI SWSR register) — experiment E4
// validates Theorem 9 piece by piece: linearizability, state-quiescent
// history independence (canonical memory at every state-quiescent point,
// seeded from sequential canon), wait-freedom of the writer, and the
// *tightness* of lock-freedom for the reader (the Lemma 16 adversary starves
// it, which is experiment E7's positive case for this algorithm). Recorded
// starvation and overlapping-read schedules are pinned as ScheduleTrace
// literals (verify/replay.h).
#include <gtest/gtest.h>

#include <vector>

#include "adversary/reader_adversary.h"
#include "core/hi_register_lockfree.h"
#include "register_common.h"
#include "sim/trace.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"
#include "verify/replay.h"

namespace hi {
namespace {

using core::LockFreeHiRegister;
using spec::RegisterSpec;
using testing::kReaderPid;
using testing::kWriterPid;
using testing::RegisterSystem;
using Sys = RegisterSystem<LockFreeHiRegister>;

TEST(LockFreeHiRegister, SoloSemantics) {
  Sys sys(6, 2);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            2u);
  for (std::uint32_t v : {5u, 1u, 6u, 3u}) {
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
    EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
              v);
  }
}

TEST(LockFreeHiRegister, CanonicalRepresentationIsOneHot) {
  // After any quiescent Write(v): A[v] = 1 and everything else 0.
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(5);
  for (std::uint32_t v = 1; v <= 5; ++v) {
    const auto& snap = canon.at(v);
    for (std::uint32_t j = 1; j <= 5; ++j) {
      EXPECT_EQ(snap.words[j - 1], j == v ? 1u : 0u) << "v=" << v;
    }
  }
}

TEST(LockFreeHiRegister, RewritingSameValueLeavesCanonicalMemory) {
  // Write(v) twice in a row must leave the identical representation —
  // SHI's multi-observation requirement on a degenerate pair of points.
  Sys sys(4);
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  const auto first = sys.memory.snapshot();
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 3));
  EXPECT_EQ(first, sys.memory.snapshot());
}

class LockFreeHiRegisterRandom
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(LockFreeHiRegisterRandom, Linearizable) {
  const auto [k, seed] = GetParam();
  testing::expect_register_linearizable<LockFreeHiRegister>(k, seed);
  // The packed twin (64 bins per word) at K+64 values spans two words, so
  // the schedules cross the word boundary mid-scan and interleave
  // fetch_or/fetch_and RMWs with word-load snapshots.
  using Packed = core::PackedLockFreeHiRegister;
  testing::expect_register_linearizable<Packed>(k + 64, seed);
}

TEST_P(LockFreeHiRegisterRandom, StateQuiescentHI) {
  // Theorem 9's HI claim: at every state-quiescent configuration of every
  // execution, memory equals the sequential canonical representation.
  const auto [k, seed] = GetParam();
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(k);
  verify::HiChecker checker;
  for (const auto& [state, snap] : canon) {
    ASSERT_TRUE(checker.set_canonical(state, snap));
  }

  Sys sys(k);
  sim::Runner<RegisterSpec, LockFreeHiRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_GT(result.state_quiescent.size(), 0u);
  for (const auto& obs : result.state_quiescent) {
    checker.observe(obs.state, obs.mem,
                    "seed=" + std::to_string(seed) +
                        " step=" + std::to_string(obs.at_step));
  }
  EXPECT_TRUE(checker.consistent())
      << checker.violation()->message() << "\n(K=" << k << ")";
}

TEST_P(LockFreeHiRegisterRandom, WriterIsWaitFree) {
  // A Write performs exactly K low-level writes regardless of scheduling.
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, LockFreeHiRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    if (result.history[i].op.kind == RegisterSpec::Kind::kWrite) {
      EXPECT_EQ(result.op_steps[i], static_cast<std::uint64_t>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LockFreeHiRegisterRandom,
    ::testing::Combine(::testing::Values(3u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

TEST(LockFreeHiRegister, ReaderIsOnlyLockFree_AdversaryStarvesIt) {
  // E7 (Theorem 17, concrete case): the pigeonhole adversary keeps the
  // reader from ever returning, for as many rounds as we care to run. This
  // is precisely why Algorithm 2 must settle for lock-freedom.
  constexpr std::uint32_t kValues = 4;
  constexpr std::uint64_t kRounds = 3000;
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(kValues);

  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.memory, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, kRounds);

  EXPECT_FALSE(result.reader_returned);
  EXPECT_EQ(result.rounds_executed, kRounds);
  // The reader's step count grows with the rounds: one step per round.
  EXPECT_EQ(result.reader_steps, kRounds);
}

TEST(LockFreeHiRegister, ReaderCompletesWhenRunSolo) {
  // Lock-freedom's flip side: once the writer stops interfering, the pending
  // read finishes within one TryRead (≤ 2K-1 steps).
  constexpr std::uint32_t kValues = 4;
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(kValues);
  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  (void)adversary::run_starvation(sys.spec, sys.memory, sys.sched, sys.impl,
                                  plan, canon, kWriterPid, kReaderPid, 100);
  // The adversary abandoned the read. Start a fresh one and run it solo.
  const auto value =
      sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid));
  EXPECT_GE(value, 1u);
  EXPECT_LE(value, kValues);
  EXPECT_LE(sys.sched.steps_of(kReaderPid), 100 + 2 * kValues - 1);
}

// ---- Recorded schedules re-executed through verify::replay_trace ----

TEST(LockFreeHiRegisterTrace, RecordedStarvationScheduleReplays) {
  // Record the adversary's schedule and its dynamically chosen operations
  // (verify::RecordingImpl), then re-execute them on a fresh system: the
  // starvation reproduces step for step — the reader never responds.
  constexpr std::uint32_t kValues = 3;
  const auto canon = testing::build_register_canon<LockFreeHiRegister>(kValues);
  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  std::vector<std::vector<RegisterSpec::Op>> workload(2);
  verify::RecordingImpl<RegisterSpec, LockFreeHiRegister> recorder(sys.impl,
                                                                   workload);
  sim::ScheduleTrace trace;
  sys.sched.record_to(&trace);
  const auto result =
      adversary::run_starvation(sys.spec, sys.memory, sys.sched, recorder,
                                plan, canon, kWriterPid, kReaderPid, 50);
  sys.sched.record_to(nullptr);
  ASSERT_FALSE(result.reader_returned);

  Sys replayed(kValues);
  const verify::ReplayReport report = verify::replay_trace(
      replayed.spec, replayed.sched, replayed.impl, workload, trace);
  EXPECT_TRUE(report.ok) << report.message << "\ntrace:\n" << trace.pretty();
  std::uint64_t starts = 0;
  for (const auto& step : trace.steps) starts += step.start ? 1 : 0;
  EXPECT_EQ(report.steps_executed, trace.size() - starts);
  // The changer's initial o_change plus one per round; the read never
  // returned.
  EXPECT_EQ(report.responses, 51u);
  EXPECT_EQ(replayed.memory.snapshot(), sys.memory.snapshot());
}

// Persisted counterexample: 8 rounds of the Lemma 16 schedule against the
// K=3 lock-free register (captured from run_starvation with trace
// recording). The changer walks 2→3→1→2→…, one complete Write between any
// two reader steps; the reader's TryRead chases the moving 1 and never
// returns.
TEST(LockFreeHiRegisterTrace, PersistedReaderStarvationTrace) {
  const RegisterSpec spec(3, 1);
  std::vector<std::vector<RegisterSpec::Op>> workload(2);
  for (int round = 0; round < 3; ++round) {
    workload[kWriterPid].push_back(RegisterSpec::write(2));
    workload[kWriterPid].push_back(RegisterSpec::write(3));
    workload[kWriterPid].push_back(RegisterSpec::write(1));
  }
  workload[kReaderPid] = {RegisterSpec::read()};
  const sim::ScheduleTrace trace{{
      {0, true}, {0, false, 1, "write"}, {0, false, 0, "write"},
      {0, false, 2, "write"}, {1, true}, {0, true}, {0, false, 2, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 1, "read"}, {0, true},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {0, false, 2, "write"},
      {1, false, 2, "read"}, {0, true}, {0, false, 2, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 1, "read"}, {0, true},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {0, false, 2, "write"},
      {1, false, 2, "read"}, {0, true}, {0, false, 2, "write"},
      {0, false, 1, "write"}, {0, false, 0, "write"}, {1, false, 0, "read"},
      {0, true}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 1, "read"},
  }};

  Sys sys(3);
  const verify::ReplayReport report =
      verify::replay_trace(spec, sys.sched, sys.impl, workload, trace);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.responses, 9u);        // 9 writes; the read starves
  EXPECT_EQ(report.steps_executed, 35u);  // 27 write + 8 starved reads
}

// Persisted random-schedule trace: K=5, recorded from a seeded Runner run —
// reads overlap three of the five writes, so the replay covers TryRead
// retries chasing the moving 1 across the cells, plus a read that scans up
// the whole array and confirms downward (steps 39–48).
TEST(LockFreeHiRegisterTrace, PersistedOverlappingReadTraceReplays) {
  const RegisterSpec spec(5, 1);
  std::vector<std::vector<RegisterSpec::Op>> workload(2);
  workload[kWriterPid] = {RegisterSpec::write(2), RegisterSpec::write(4),
                          RegisterSpec::write(1), RegisterSpec::write(5),
                          RegisterSpec::write(3)};
  workload[kReaderPid].assign(4, RegisterSpec::read());
  const sim::ScheduleTrace trace{{
      {1, true}, {1, false, 0, "read"}, {0, true}, {0, false, 1, "write"},
      {0, false, 0, "write"}, {0, false, 2, "write"}, {1, true},
      {1, false, 0, "read"}, {0, false, 3, "write"}, {1, false, 1, "read"},
      {0, false, 4, "write"}, {1, false, 0, "read"}, {0, true},
      {0, false, 3, "write"}, {0, false, 2, "write"}, {1, true},
      {1, false, 0, "read"}, {0, false, 1, "write"}, {1, false, 1, "read"},
      {0, false, 0, "write"}, {0, false, 4, "write"}, {0, true},
      {1, false, 2, "read"}, {0, false, 0, "write"}, {0, false, 1, "write"},
      {0, false, 2, "write"}, {1, false, 3, "read"}, {0, false, 3, "write"},
      {0, false, 4, "write"}, {0, true}, {1, false, 2, "read"},
      {0, false, 4, "write"}, {0, false, 3, "write"}, {1, false, 1, "read"},
      {0, false, 2, "write"}, {1, false, 0, "read"}, {0, false, 1, "write"},
      {0, false, 0, "write"}, {1, true}, {1, false, 0, "read"},
      {1, false, 1, "read"}, {1, false, 2, "read"}, {1, false, 3, "read"},
      {1, false, 4, "read"}, {1, false, 3, "read"}, {1, false, 2, "read"},
      {1, false, 1, "read"}, {1, false, 0, "read"}, {0, true},
      {0, false, 2, "write"}, {0, false, 1, "write"}, {0, false, 0, "write"},
      {0, false, 3, "write"}, {0, false, 4, "write"},
  }};

  Sys sys(5);
  const verify::ReplayReport report =
      verify::replay_trace(spec, sys.sched, sys.impl, workload, trace);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.responses, 9u);  // all 5 writes + all 4 reads
  // State-quiescent HI: can(3) = e_3 after the run.
  EXPECT_EQ(sys.memory.snapshot().words,
            (std::vector<std::uint64_t>{0, 0, 1, 0, 0}));
}

}  // namespace
}  // namespace hi
