// The wait-free simulation combinator (algo/wait_free_sim.h over RtEnv) vs
// the native wait-free register (Alg 4): what does generic helping cost on
// hardware next to an algorithm that is wait-free by construction?
//
// Rows in BENCH_waitfree_sim.json (every row carries slow_path_entry_rate):
//   wfs/*   — algo::WaitFreeSimHiAlg{Packed,Padded}<RtEnv> (combinator over
//             Alg 2/3)
//   alg4/*  — algo::WaitFreeHiAlg{Packed,Padded}<RtEnv> as the
//             native-wait-free control
//             (rate pinned 0.0: Alg 4 has no announce/enqueue/help machinery)
// The solo wfs rows run the pure fast path (rate 0 — uncontended attempts
// never fail); wfs/forced_slow_read sets fast_limit=0 so EVERY read takes
// the announce → enqueue → help path (rate 1.0), isolating the slow path's
// full cost; the mixed/contended rows use the PADDED layout so a TryRead
// scan can actually lose to a concurrent write (packed K ≤ 64 snapshots a
// single word and never fails), making the measured rate schedule-dependent
// but in (0, 1] whenever the writer is hot enough. The
// wfs/traffic_closed_t{2,3} rows rerun that contended shape under the
// traffic driver's closed loop (util/traffic.h — the load generator
// bench_traffic.cpp uses), adding the p50/p99/p999 sojourn triple and the
// reader-count scaling of slow_path_entry_rate.
//
// The rate denominator includes each worker's untimed warmup (the stats
// counters cannot be reset mid-worker between warmup and the measured
// window); warmup is ≤ 1024 of ≥ 20k ops per thread, so the dilution is
// under 5% and identical across rows.
//
// allocs_per_op must be 0 in steady state on every row — the slow path's
// coroutine chain (announce, enqueue, help) recycles through the per-thread
// FrameArena exactly like the fast path (tests/test_rt_alloc.cpp pins both
// paths at zero).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "algo/registers.h"
#include "algo/wait_free_sim.h"
#include "env/rt_env.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/traffic.h"

namespace hi {
namespace {

constexpr std::uint32_t kValues = 64;        // packed: one-word snapshots
constexpr std::uint32_t kPaddedValues = 16;  // padded: failable scans

using Wfs = algo::WaitFreeSimHiAlgPacked<env::RtEnv>;
using WfsPadded = algo::WaitFreeSimHiAlgPadded<env::RtEnv>;
using Alg4 = algo::WaitFreeHiAlgPacked<env::RtEnv>;
using Alg4Padded = algo::WaitFreeHiAlgPadded<env::RtEnv>;

/// Measure one row; `rate` fills slow_path_entry_rate after the run (pass
/// nullptr-like no-op for non-combinator controls, which pin 0.0).
template <typename Reg, typename OpFn>
void row(util::BenchReport& report, const char* name, Reg& reg, int threads,
         std::size_t ops_per_thread, OpFn op) {
  reg.reset_stats();
  auto result = util::measure_throughput(name, threads, ops_per_thread, op);
  result.bytes_per_object = reg.memory_bytes();
  result.slow_path_entry_rate =
      reg.total_ops() > 0
          ? static_cast<double>(reg.slow_path_entries()) /
                static_cast<double>(reg.total_ops())
          : 0.0;
  report.add(std::move(result));
}

/// Alg 4 control rows: natively wait-free, no slow path to enter.
template <typename Reg, typename OpFn>
void control_row(util::BenchReport& report, const char* name, Reg& reg,
                 int threads, std::size_t ops_per_thread, OpFn op) {
  auto result = util::measure_throughput(name, threads, ops_per_thread, op);
  result.bytes_per_object = reg.memory_bytes();
  result.slow_path_entry_rate = 0.0;
  report.add(std::move(result));
}

void emit_bench_json() {
  util::BenchReport report("waitfree_sim");

  // ---- solo fast path vs the native control, packed K=64 ----
  {
    Wfs reg({}, kValues, kValues / 2);
    util::Xoshiro256 rng(21);
    row(report, "wfs/solo_write", reg, 1, 100'000, [&](int, std::size_t) {
      (void)reg
          .write(/*pid=*/0, static_cast<std::uint32_t>(rng.next_in(1, kValues)))
          .get();
    });
  }
  {
    Wfs reg({}, kValues, kValues / 2);
    row(report, "wfs/solo_read", reg, 1, 100'000, [&](int, std::size_t) {
      benchmark::DoNotOptimize(reg.read(/*pid=*/1).get());
    });
  }
  {
    Alg4 reg({}, kValues, kValues / 2);
    util::Xoshiro256 rng(22);
    control_row(
        report, "alg4/solo_write", reg, 1, 100'000, [&](int, std::size_t) {
          (void)reg.write(static_cast<std::uint32_t>(rng.next_in(1, kValues)))
              .get();
        });
  }
  {
    Alg4 reg({}, kValues, kValues / 2);
    control_row(report, "alg4/solo_read", reg, 1, 100'000,
                [&](int, std::size_t) {
                  benchmark::DoNotOptimize(reg.read().get());
                });
  }

  // ---- the slow path in isolation: fast_limit=0 forces every read through
  // announce → enqueue → self-help, even solo (rate 1.0 on the read rows;
  // the denominator also counts the direct writes a mixed row would add,
  // so this row is read-only) ----
  {
    Wfs reg({}, kValues, kValues / 2, /*num_processes=*/2, /*fast_limit=*/0);
    row(report, "wfs/forced_slow_read", reg, 1, 50'000, [&](int, std::size_t) {
      benchmark::DoNotOptimize(reg.read(1).get());
    });
  }

  // ---- SWSR under genuine concurrency, padded so reads can fail ----
  {
    WfsPadded reg({}, kPaddedValues, kPaddedValues / 2);
    util::Xoshiro256 rng(23);
    row(report, "wfs/swsr_mixed", reg, 2, 50'000, [&](int tid, std::size_t) {
      if (tid == 0) {
        (void)reg
            .write(/*pid=*/0,
                   static_cast<std::uint32_t>(rng.next_in(1, kPaddedValues)))
            .get();
      } else {
        benchmark::DoNotOptimize(reg.read(/*pid=*/1).get());
      }
    });
  }
  {
    Alg4Padded reg({}, kPaddedValues, kPaddedValues / 2);
    util::Xoshiro256 rng(24);
    control_row(
        report, "alg4/swsr_mixed", reg, 2, 50'000, [&](int tid, std::size_t) {
          if (tid == 0) {
            (void)reg
                .write(
                    static_cast<std::uint32_t>(rng.next_in(1, kPaddedValues)))
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read().get());
          }
        });
  }

  // ---- one writer, two helped readers: the helping machinery under the
  // contention it exists for (num_processes=3; readers share the queue) ----
  {
    WfsPadded reg({}, kPaddedValues, kPaddedValues / 2, /*num_processes=*/3,
                  /*fast_limit=*/1);
    util::Xoshiro256 rng(25);
    row(report, "wfs/contended_reads", reg, 3, 30'000,
        [&](int tid, std::size_t) {
          if (tid == 0) {
            (void)reg
                .write(/*pid=*/0, static_cast<std::uint32_t>(
                                      rng.next_in(1, kPaddedValues)))
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read(/*pid=*/tid).get());
          }
        });
  }

  // ---- contention scaling under the traffic driver's closed loop (the
  // same load generator as bench_traffic.cpp, so the wfs rows and the
  // universal traffic rows are comparable run-for-run): writer pid 0 is
  // hot, the padded layout makes reader TryRead scans actually lose to it,
  // and slow_path_entry_rate grows with the reader count — the
  // contention-scaling signal. Full percentile triple + load pair on each
  // row, like every traffic-driven row. ----
  for (const int threads : {2, 3}) {
    WfsPadded reg({}, kPaddedValues, kPaddedValues / 2,
                  /*num_processes=*/threads, /*fast_limit=*/1);
    reg.reset_stats();
    util::TrafficConfig cfg;
    cfg.seed = 31 + static_cast<std::uint64_t>(threads);
    const util::TrafficResult result = util::run_traffic(
        threads, 30'000, cfg, {{"op", 1.0}},
        [&](int tid, std::uint32_t, std::size_t i) {
          if (tid == 0) {
            (void)reg
                .write(/*pid=*/0,
                       static_cast<std::uint32_t>(i % kPaddedValues) + 1)
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read(/*pid=*/tid).get());
          }
        });
    const double rate =
        reg.total_ops() > 0
            ? static_cast<double>(reg.slow_path_entries()) /
                  static_cast<double>(reg.total_ops())
            : 0.0;
    for (util::BenchResult& r : result.to_results(
             "wfs/traffic_closed_t" + std::to_string(threads))) {
      r.bytes_per_object = reg.memory_bytes();
      r.slow_path_entry_rate = rate;
      report.add(std::move(r));
    }
  }

  report.write();
}

}  // namespace
}  // namespace hi

int main(int argc, char** argv) {
  hi::emit_bench_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
