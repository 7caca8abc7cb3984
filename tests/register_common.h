// Shared fixtures for the SWSR register experiments (§4, Table 1):
// system bundles, canonical-map construction from solo sequential runs, the
// single-writer state oracle, and workload generators.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adversary/reader_adversary.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/register_spec.h"
#include "util/rng.h"
#include "verify/hi_checker.h"
#include "verify/history.h"
#include "verify/linearizability.h"

namespace hi::testing {

inline constexpr int kWriterPid = 0;
inline constexpr int kReaderPid = 1;

/// A fresh simulated system hosting one SWSR register implementation.
template <typename Impl>
struct RegisterSystem {
  spec::RegisterSpec spec;
  sim::Memory memory;
  sim::Scheduler sched;
  Impl impl;

  explicit RegisterSystem(std::uint32_t num_values, std::uint32_t initial = 1)
      : spec(num_values, initial),
        sched(2),
        impl(memory, spec, kWriterPid, kReaderPid) {}
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
    canon.emplace(v, sys.memory.snapshot());
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

/// Random SWSR workload: `num_writes` writes of uniform values for the
/// writer, `num_reads` reads for the reader.
inline std::vector<std::vector<spec::RegisterSpec::Op>> register_workload(
    std::uint32_t num_values, std::size_t num_writes, std::size_t num_reads,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<spec::RegisterSpec::Op>> work(2);
  for (std::size_t i = 0; i < num_writes; ++i) {
    work[kWriterPid].push_back(spec::RegisterSpec::write(
        static_cast<std::uint32_t>(rng.next_in(1, num_values))));
  }
  for (std::size_t i = 0; i < num_reads; ++i) {
    work[kReaderPid].push_back(spec::RegisterSpec::read());
  }
  return work;
}

/// One seeded random-schedule run of 25 writes ‖ 25 reads over `Impl` with
/// K = num_values, checked for linearizability.
template <typename Impl>
void expect_register_linearizable(std::uint32_t num_values,
                                  std::uint64_t seed) {
  RegisterSystem<Impl> sys(num_values);
  sim::Runner<spec::RegisterSpec, Impl> runner(
      sys.spec, sys.memory, sys.sched, sys.impl,
      [&](const auto& hist) { return last_write_or(hist, 1); });
  auto result = runner.run(register_workload(num_values, 25, 25, seed),
                           {.seed = seed});
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.history.num_pending(), 0u);
  const auto lin = verify::check_linearizable(sys.spec, result.history);
  EXPECT_TRUE(lin.ok()) << "seed=" << seed << " K=" << num_values;
}

}  // namespace hi::testing
