// Algorithm 4 (wait-free quiescent-HI SWSR register) — experiment E5
// validates Theorem 12: linearizability, wait-freedom with explicit step
// bounds (Read ≤ 6K+2, Write ≤ 2K+5), quiescent HI (canonical A=e_v, B=0,
// flags=0), and the separation from state-quiescent HI (a pending Read leaves
// observable traces — which is allowed, per Corollary 18 it MUST happen).
#include <gtest/gtest.h>

#include "adversary/reader_adversary.h"
#include "core/hi_register_waitfree.h"
#include "register_common.h"
#include "verify/hi_checker.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using core::WaitFreeHiRegister;
using spec::RegisterSpec;
using testing::kReaderPid;
using testing::kWriterPid;
using testing::RegisterSystem;
using Sys = RegisterSystem<WaitFreeHiRegister>;

std::uint64_t read_bound(std::uint32_t k) { return 6ull * k + 2; }
std::uint64_t write_bound(std::uint32_t k) { return 2ull * k + 5; }

TEST(WaitFreeHiRegister, SoloSemantics) {
  Sys sys(6, 4);
  EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
            4u);
  for (std::uint32_t v : {1u, 6u, 2u, 4u}) {
    (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, v));
    EXPECT_EQ(sim::run_solo(sys.sched, kReaderPid, sys.impl.read(kReaderPid)),
              v);
  }
}

TEST(WaitFreeHiRegister, QuiescentCanonicalRepresentation) {
  // At quiescence: A = e_v, B = 0..0, flag = 0,0 — regardless of how v was
  // reached and regardless of interleaved reads.
  const auto canon = testing::build_register_canon<WaitFreeHiRegister>(5);
  for (std::uint32_t v = 1; v <= 5; ++v) {
    const auto& words = canon.at(v).words;
    ASSERT_EQ(words.size(), 2u * 5 + 2);  // A[5], B[5], flag[2]
    for (std::uint32_t j = 1; j <= 5; ++j) {
      EXPECT_EQ(words[j - 1], j == v ? 1u : 0u) << "A, v=" << v;
      EXPECT_EQ(words[5 + j - 1], 0u) << "B, v=" << v;
    }
    EXPECT_EQ(words[10], 0u);
    EXPECT_EQ(words[11], 0u);
  }
}

TEST(WaitFreeHiRegister, NotStateQuiescentHI_PendingReadLeavesTraces) {
  // A Read that has executed only its announcement step leaves flag[1]=1 in
  // a configuration with no pending Write — same abstract state, different
  // memory than the canon. (Corollary 18 says every wait-free
  // implementation from binary registers must fail state-quiescent HI.)
  Sys sys(4);
  const auto canon_before = sys.memory.snapshot();

  sim::OpTask<std::uint32_t> read_task = sys.impl.read(kReaderPid);
  sys.sched.start(kReaderPid, read_task);
  sys.sched.step(kReaderPid);  // flag[1] <- 1

  const auto mem_with_pending_read = sys.memory.snapshot();
  EXPECT_NE(canon_before, mem_with_pending_read)
      << "expected the reader's announcement to be visible";

  verify::HiChecker checker;
  checker.set_canonical(1, canon_before);
  checker.observe(1, mem_with_pending_read, "state-quiescent, read pending");
  EXPECT_FALSE(checker.consistent());
  sys.sched.abandon(kReaderPid);
}

class WaitFreeHiRegisterRandom
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(WaitFreeHiRegisterRandom, Linearizable) {
  const auto [k, seed] = GetParam();
  testing::expect_register_linearizable<WaitFreeHiRegister>(k, seed);
  // The packed twin (64 bins per word) at K+64 values spans two words, so
  // the schedules cross the word boundary mid-scan and interleave
  // fetch_or/fetch_and RMWs with word-load snapshots.
  using Packed = core::PackedWaitFreeHiRegister;
  testing::expect_register_linearizable<Packed>(k + 64, seed);
}

TEST_P(WaitFreeHiRegisterRandom, QuiescentHI) {
  const auto [k, seed] = GetParam();
  const auto canon = testing::build_register_canon<WaitFreeHiRegister>(k);
  verify::HiChecker checker;
  for (const auto& [state, snap] : canon) {
    ASSERT_TRUE(checker.set_canonical(state, snap));
  }

  Sys sys(k);
  sim::Runner<RegisterSpec, WaitFreeHiRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 30, 30, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_GT(result.quiescent.size(), 0u);
  for (const auto& obs : result.quiescent) {
    checker.observe(obs.state, obs.mem,
                    "seed=" + std::to_string(seed) +
                        " step=" + std::to_string(obs.at_step));
  }
  EXPECT_TRUE(checker.consistent())
      << checker.violation()->message() << "\n(K=" << k << ")";
}

TEST_P(WaitFreeHiRegisterRandom, BothOperationsWaitFree) {
  const auto [k, seed] = GetParam();
  Sys sys(k);
  sim::Runner<RegisterSpec, WaitFreeHiRegister> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return testing::last_write_or(hist, 1); });
  auto result = runner.run(testing::register_workload(k, 40, 40, seed),
                           {.seed = seed, .step_weight = 6});
  ASSERT_FALSE(result.timed_out);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    if (result.history[i].op.kind == RegisterSpec::Kind::kRead) {
      EXPECT_LE(result.op_steps[i], read_bound(k)) << "read, seed=" << seed;
    } else {
      EXPECT_LE(result.op_steps[i], write_bound(k)) << "write, seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaitFreeHiRegisterRandom,
    ::testing::Combine(::testing::Values(3u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

TEST(WaitFreeHiRegister, AdversaryCannotStarveTheReader) {
  // The same adversary that starves Algorithm 2 forever fails here: the
  // helping mechanism (array B) hands the reader a returnable value within
  // its wait-freedom bound. Positive control for E7.
  constexpr std::uint32_t kValues = 4;
  const auto canon = testing::build_register_canon<WaitFreeHiRegister>(kValues);
  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.memory, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, /*max_rounds=*/10 * read_bound(kValues));

  EXPECT_TRUE(result.reader_returned);
  EXPECT_LE(result.reader_steps, read_bound(kValues));
  EXPECT_GE(result.reader_response, 1u);
  EXPECT_LE(result.reader_response, kValues);
}

TEST(WaitFreeHiRegister, HelpedReadUsesTheBArray) {
  // Deep-path coverage: under the adversary the reader's two TryReads fail,
  // so it must have taken the lines 5–6 path through B. We detect this via
  // the step count: a read that returns from A alone takes at most
  // 1 + 2(2K-1) + 1 + K + 2 steps; the B path adds the B scan.
  constexpr std::uint32_t kValues = 5;
  const auto canon = testing::build_register_canon<WaitFreeHiRegister>(kValues);
  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.memory, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, /*max_rounds=*/10 * read_bound(kValues));
  ASSERT_TRUE(result.reader_returned);
  // Two full failed TryReads = 2 * (2K-1) steps; with announcement that is
  // already 2(2K-1)+1; the B path then adds K (scan) + 1 + K (clear) + 2.
  EXPECT_GE(result.reader_steps, 2u * (2 * kValues - 1) + 1);
}

TEST(WaitFreeHiRegister, MemoryReturnsToCanonAfterHelpedRead) {
  // After the adversary run completes and the system quiesces, the memory
  // must be back at can(v) for the final value v — B fully cleared
  // (Lemma 35 / Lemma 36).
  constexpr std::uint32_t kValues = 4;
  const auto canon = testing::build_register_canon<WaitFreeHiRegister>(kValues);
  Sys sys(kValues);
  const auto plan = adversary::ct_plan(sys.spec);
  const auto result = adversary::run_starvation(
      sys.spec, sys.memory, sys.sched, sys.impl, plan, canon, kWriterPid,
      kReaderPid, /*max_rounds=*/200);
  ASSERT_TRUE(result.reader_returned);
  // One more solo write to a known value, then compare against canon.
  (void)sim::run_solo(sys.sched, kWriterPid, sys.impl.write(kWriterPid, 2));
  EXPECT_EQ(sys.memory.snapshot(), canon.at(2));
}

}  // namespace
}  // namespace hi
