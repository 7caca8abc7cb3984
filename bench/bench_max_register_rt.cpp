// §5.1 max register on hardware (the RtEnv instantiation of
// algo/max_register.h): per-operation cost of the monotone-write register.
// ReadMax costs O(m) binary-register reads (m = current maximum), WriteMax
// is O(v) on a ramp and ZERO atomics when absorbed — the absorb fast-path is
// the HI-relevant behaviour (an absorbed write may leave no footprint), and
// the benchmark quantifies that it is also the cheap path.
//
// emit_bench_json() writes BENCH_max_register.json with build metadata and
// the per-result allocs_per_op field (0.0 in steady state; docs/PERF.md).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "algo/max_register.h"
#include "env/rt_env.h"
#include "util/bench_json.h"

namespace hi {
namespace {

constexpr std::uint32_t kValues = 64;
constexpr int kWriter = 0;
constexpr int kReader = 1;

using MaxRegister = algo::HiMaxRegisterAlgPacked<env::RtEnv>;

void BM_ReadMax(benchmark::State& state) {
  // Reader throughput at a fixed maximum (mid-range scan length).
  static MaxRegister* reg = nullptr;
  if (state.thread_index() == 0) {
    reg = new MaxRegister({}, kValues, 1, kWriter, kReader);
    (void)reg->write_max(kWriter, kValues / 2).get();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg->read_max(kReader).get());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(BM_ReadMax)->Name("read_max")->Threads(1)->UseRealTime();

void BM_AbsorbedWrite(benchmark::State& state) {
  // The maximum is already K: every WriteMax(1) is absorbed writer-locally
  // with zero shared-memory accesses.
  static MaxRegister* reg = nullptr;
  if (state.thread_index() == 0) {
    reg = new MaxRegister({}, kValues, 1, kWriter, kReader);
    (void)reg->write_max(kWriter, kValues).get();
  }
  for (auto _ : state) {
    (void)reg->write_max(kWriter, 1).get();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(BM_AbsorbedWrite)->Name("absorbed_write")->Threads(1)->UseRealTime();

/// Machine-readable results (BENCH_max_register.json) for cross-PR
/// tracking. The read_max/K* rows scale the domain (packed layout, the
/// default): ReadMax at maximum m = K/2 costs O(m/64) word loads, so the
/// packed rows stay nearly flat in K where the padded comparison row
/// (read_max_padded/K1024, same run) pays one padded cache line per bin.
void emit_bench_json() {
  util::BenchReport report("max_register");
  const auto read_row = [&report](const char* name, auto make_reg,
                                  std::uint32_t k, std::size_t ops) {
    auto reg = make_reg();
    (void)reg.write_max(kWriter, k / 2).get();
    auto result = util::measure_throughput(
        name, 1, ops, [&reg](int, std::size_t) {
          benchmark::DoNotOptimize(reg.read_max(kReader).get());
        });
    result.bytes_per_object = reg.memory_bytes();
    report.add(std::move(result));
  };
  read_row("read_max",
           [] { return MaxRegister({}, kValues, 1, kWriter, kReader); },
           kValues, 200'000);
  for (const std::uint32_t k : {16u, 256u, 1024u}) {
    const std::string name = "read_max/K" + std::to_string(k);
    read_row(name.c_str(),
             [k] { return MaxRegister({}, k, 1, kWriter, kReader); }, k,
             k >= 1024 ? 50'000 : 200'000);
  }
  read_row("read_max_padded/K1024",
           [] {
             return algo::HiMaxRegisterAlgPadded<env::RtEnv>(
                 {}, 1024, 1, kWriter, kReader);
           },
           1024, 20'000);
  {
    MaxRegister reg({}, kValues, 1, kWriter, kReader);
    (void)reg.write_max(kWriter, kValues).get();
    auto result = util::measure_throughput(
        "absorbed_write", 1, 200'000,
        [&reg](int, std::size_t) { (void)reg.write_max(kWriter, 1).get(); });
    result.bytes_per_object = reg.memory_bytes();
    report.add(std::move(result));
  }
  {
    // SWSR under contention: thread 0 writes a slowly rising maximum,
    // thread 1 reads concurrently.
    MaxRegister reg({}, kValues, 1, kWriter, kReader);
    auto result = util::measure_throughput(
        "swsr_mixed", 2, 100'000, [&reg](int tid, std::size_t i) {
          if (tid == 0) {
            (void)reg
                .write_max(kWriter, static_cast<std::uint32_t>(i % kValues) + 1)
                .get();
          } else {
            benchmark::DoNotOptimize(reg.read_max(kReader).get());
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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
