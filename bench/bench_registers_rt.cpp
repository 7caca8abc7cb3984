// Register algorithms on hardware (Table 1's rows as performance): write and
// read costs of Algorithms 1, 2 and 4, the price of upward clearing (Alg 2
// vs Alg 1) and of the helping protocol (Alg 4), plus the progress shape: a
// read's TryRead-attempt distribution under a hot writer — Algorithm 2's
// tail is unbounded (lock-free), Algorithm 4's is exactly ≤ 2 attempts
// before falling back to B (wait-free).
//
// emit_bench_json() writes BENCH_registers.json with build metadata and the
// per-result allocs_per_op field (0.0 in steady state — the frame arena
// absorbs every coroutine frame; see docs/PERF.md for the schema and gate).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "algo/registers.h"
#include "env/rt_env.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hi {
namespace {

constexpr std::uint32_t kValues = 16;

using Alg1 = algo::VidyasankarAlgPacked<env::RtEnv>;
using Alg2 = algo::LockFreeHiAlgPacked<env::RtEnv>;
using Alg4 = algo::WaitFreeHiAlgPacked<env::RtEnv>;

template <typename Reg>
void BM_SoloWrite(benchmark::State& state) {
  Reg reg({}, kValues, 1);
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    (void)reg.write(static_cast<std::uint32_t>(rng.next_in(1, kValues))).get();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoloWrite<Alg1>)->Name("alg1/solo_write");
BENCHMARK(BM_SoloWrite<Alg2>)->Name("alg2/solo_write");
BENCHMARK(BM_SoloWrite<Alg4>)->Name("alg4/solo_write");

void BM_SoloReadAlg1(benchmark::State& state) {
  Alg1 reg({}, kValues, kValues / 2);
  for (auto _ : state) benchmark::DoNotOptimize(reg.read().get());
  state.SetItemsProcessed(state.iterations());
}
void BM_SoloReadAlg2(benchmark::State& state) {
  Alg2 reg({}, kValues, kValues / 2);
  for (auto _ : state) benchmark::DoNotOptimize(reg.read_bounded(0).get());
  state.SetItemsProcessed(state.iterations());
}
void BM_SoloReadAlg4(benchmark::State& state) {
  Alg4 reg({}, kValues, kValues / 2);
  for (auto _ : state) benchmark::DoNotOptimize(reg.read().get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoloReadAlg1)->Name("alg1/solo_read");
BENCHMARK(BM_SoloReadAlg2)->Name("alg2/solo_read");
BENCHMARK(BM_SoloReadAlg4)->Name("alg4/solo_read");

// Contended write throughput: writer thread with a concurrent reader.
template <typename Reg>
void contended(benchmark::State& state) {
  static Reg* reg = nullptr;
  static std::atomic<bool>* stop = nullptr;
  static std::thread* reader = nullptr;
  if (state.thread_index() == 0) {
    reg = new Reg({}, kValues, 1);
    stop = new std::atomic<bool>{false};
    reader = new std::thread([&] {
      while (!stop->load(std::memory_order_acquire)) {
        if constexpr (requires { reg->read_bounded(1); }) {
          benchmark::DoNotOptimize(reg->read_bounded(1000).get());
        } else {
          benchmark::DoNotOptimize(reg->read().get());
        }
      }
    });
  }
  util::Xoshiro256 rng(2);
  for (auto _ : state) {
    (void)reg->write(static_cast<std::uint32_t>(rng.next_in(1, kValues)))
        .get();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    stop->store(true, std::memory_order_release);
    reader->join();
    delete reader;
    delete stop;
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(contended<Alg1>)->Name("alg1/contended_write");
BENCHMARK(contended<Alg2>)->Name("alg2/contended_write");
BENCHMARK(contended<Alg4>)->Name("alg4/contended_write");

// ---- Progress-shape section: read attempts under a hot writer ----

void print_attempt_distribution() {
  // The padded-per-bit instantiation: with the packed layout and K ≤ 64 a
  // TryRead is a single full-array word snapshot and can never fail, so the
  // lock-free long tail only shows on the per-bit layout (or packed K > 64).
  std::printf(
      "=== read progress under a hot writer (K=%u, padded layout) ===\n"
      "Algorithm 2: TryRead attempts until success (lock-free: long tail);\n"
      "Algorithm 4: reads always complete (wait-free, helped via B).\n\n",
      kValues);
  {
    algo::LockFreeHiAlgPadded<env::RtEnv> reg({}, kValues, 1);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      util::Xoshiro256 rng(3);
      while (!stop.load(std::memory_order_acquire)) {
        (void)reg.write(static_cast<std::uint32_t>(rng.next_in(1, kValues)))
            .get();
      }
    });
    util::Samples attempts;
    std::uint64_t failures = 0;
    for (int i = 0; i < 20000; ++i) {
      std::uint64_t tries = 0;
      for (;;) {
        ++tries;
        if (reg.read_bounded(1).get().has_value()) break;
        if (tries >= 10000) {  // declare starved for reporting purposes
          ++failures;
          break;
        }
      }
      attempts.add(tries);
    }
    stop.store(true, std::memory_order_release);
    writer.join();
    std::printf(
        "alg2: attempts p50=%llu p99=%llu max=%llu; reads giving up after "
        "10000 attempts: %llu\n",
        static_cast<unsigned long long>(attempts.percentile(0.5)),
        static_cast<unsigned long long>(attempts.percentile(0.99)),
        static_cast<unsigned long long>(attempts.max()),
        static_cast<unsigned long long>(failures));
  }
  {
    Alg4 reg({}, kValues, 1);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      util::Xoshiro256 rng(4);
      while (!stop.load(std::memory_order_acquire)) {
        (void)reg.write(static_cast<std::uint32_t>(rng.next_in(1, kValues)))
            .get();
      }
    });
    util::Samples latency;
    for (int i = 0; i < 20000; ++i) {
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(reg.read().get());
      const auto end = std::chrono::steady_clock::now();
      latency.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
              .count()));
    }
    stop.store(true, std::memory_order_release);
    writer.join();
    std::printf(
        "alg4: every read completed; latency ns p50=%llu p99=%llu max=%llu\n\n",
        static_cast<unsigned long long>(latency.percentile(0.5)),
        static_cast<unsigned long long>(latency.percentile(0.99)),
        static_cast<unsigned long long>(latency.max()));
  }
}

/// Machine-readable results (BENCH_registers.json) for cross-PR tracking.
/// The K-suffixed rows are the large-domain packed-vs-padded comparison:
/// packed scans are O(K/64) word loads over contiguous lines, padded scans
/// O(K) loads over one padded cache line per bin — at K=1024 that is 128 B
/// vs 64 KiB of register (bytes_per_object) and the solo-read gap the
/// ISSUE's ≥5× acceptance row measures (both layouts benched in this run).
void emit_bench_json() {
  util::BenchReport report("registers");
  const auto solo = [&report](const char* name, auto make_reg,
                              std::uint32_t k, bool reads,
                              std::size_t ops = 100'000) {
    auto reg = make_reg();
    util::Xoshiro256 rng(9);
    auto result = util::measure_throughput(
        name, 1, ops, [&](int, std::size_t) {
          if (reads) {
            if constexpr (requires { reg.read_bounded(1); }) {
              benchmark::DoNotOptimize(
                  reg.read_bounded(/*max_attempts=*/1).get());
            } else {
              benchmark::DoNotOptimize(reg.read().get());
            }
          } else {
            (void)reg.write(static_cast<std::uint32_t>(rng.next_in(1, k)))
                .get();
          }
        });
    result.bytes_per_object = reg.memory_bytes();
    report.add(std::move(result));
  };
  solo("alg1/solo_write", [] { return Alg1({}, kValues, kValues / 2); },
       kValues, false);
  solo("alg2/solo_write", [] { return Alg2({}, kValues, kValues / 2); },
       kValues, false);
  solo("alg4/solo_write", [] { return Alg4({}, kValues, kValues / 2); },
       kValues, false);
  solo("alg1/solo_read", [] { return Alg1({}, kValues, kValues / 2); },
       kValues, true);
  solo("alg4/solo_read", [] { return Alg4({}, kValues, kValues / 2); },
       kValues, true);

  // ---- large-domain scaling: packed rows at K ∈ {16, 256, 1024}, plus
  // the padded-per-bit equivalents at K=1024 measured in the SAME run so
  // the packed/padded ratio is an apples-to-apples same-binary number ----
  for (const std::uint32_t k : {16u, 256u, 1024u}) {
    const std::string suffix = "/K" + std::to_string(k);
    solo(("alg2/solo_read" + suffix).c_str(),
         [k] { return Alg2({}, k, k / 2); }, k, true,
         k >= 1024 ? 50'000 : 100'000);
    solo(("alg2/solo_write" + suffix).c_str(),
         [k] { return Alg2({}, k, k / 2); }, k, false,
         k >= 1024 ? 50'000 : 100'000);
  }
  using Alg2Padded = algo::LockFreeHiAlgPadded<env::RtEnv>;
  solo("alg2_padded/solo_read/K1024",
       [] { return Alg2Padded({}, 1024, 512); }, 1024, true, 20'000);
  solo("alg2_padded/solo_write/K1024",
       [] { return Alg2Padded({}, 1024, 512); }, 1024, false, 20'000);

  {
    // SWSR under genuine concurrency: tid 0 writes, tid 1 reads (Alg 4's
    // wait-free reader never blocks, so both sides are unconditional).
    Alg4 reg({}, kValues, 1);
    util::Xoshiro256 rng(10);
    auto result = util::measure_throughput(
        "alg4/swsr_mixed", 2, 50'000, [&](int tid, std::size_t) {
          if (tid == 0) {
            (void)reg
                .write(static_cast<std::uint32_t>(rng.next_in(1, kValues)))
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read().get());
          }
        });
    result.bytes_per_object = reg.memory_bytes();
    report.add(std::move(result));
  }
  report.write();
}

}  // namespace
}  // namespace hi

int main(int argc, char** argv) {
  hi::emit_bench_json();
  hi::print_attempt_distribution();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
