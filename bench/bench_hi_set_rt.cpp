// §5.1 perfect-HI set on hardware (the RtEnv instantiation of
// algo/hi_set.h): every operation is a single seq_cst atomic access to one
// cache-line-padded binary cell, so this workload measures the raw cost of
// the perfect-HI discipline — and how it scales when multiple threads hit
// disjoint vs overlapping elements.
//
// emit_bench_json() writes BENCH_hi_set.json with build metadata and the
// per-result allocs_per_op field (0.0 in steady state; docs/PERF.md).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "algo/hi_set.h"
#include "env/rt_env.h"
#include "util/bench_json.h"

namespace hi {
namespace {

constexpr std::uint32_t kDomain = 64;

using HiSet = algo::HiSetAlgPacked<env::RtEnv>;
using HiSetPadded = algo::HiSetAlgPadded<env::RtEnv>;

void BM_InsertRemove(benchmark::State& state) {
  static HiSet* set = nullptr;
  if (state.thread_index() == 0) set = new HiSet({}, kDomain, 0);
  // Each thread toggles its own stripe of elements: disjoint cache lines,
  // the embarrassingly-parallel case the padded layout is built for.
  const std::uint32_t base =
      (static_cast<std::uint32_t>(state.thread_index()) * 8) % kDomain;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const std::uint32_t v = base + (i++ % 8) + 1;
    benchmark::DoNotOptimize(set->insert(v).get());
    benchmark::DoNotOptimize(set->remove(v).get());
  }
  state.SetItemsProcessed(2 * state.iterations());
  if (state.thread_index() == 0) {
    delete set;
    set = nullptr;
  }
}
BENCHMARK(BM_InsertRemove)
    ->Name("insert_remove")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_Lookup(benchmark::State& state) {
  static HiSet* set = nullptr;
  if (state.thread_index() == 0) {
    set = new HiSet({}, kDomain, /*initial_bits=*/0x5555555555555555ull);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set->lookup((i++ % kDomain) + 1).get());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete set;
    set = nullptr;
  }
}
BENCHMARK(BM_Lookup)->Name("lookup")->Threads(1)->Threads(8)->UseRealTime();

/// Machine-readable results (BENCH_hi_set.json) for cross-PR tracking.
///
/// The packed default makes the whole set ONE atomic word (8 bytes vs 4 KiB
/// of padded cells at t=64) — but disjoint-element writers then serialize
/// on that word's cache line, while the padded layout gives each element
/// its own line. The *_padded rows measure the SAME striped workload on
/// both layouts so the false-sharing-free vs word-contention tradeoff is a
/// same-run comparison (docs/PERF.md "padded vs packed"); the /d16 rows
/// scale the domain down to show packing is domain-independent one-word
/// cost while the padded footprint scales linearly.
void emit_bench_json() {
  util::BenchReport report("hi_set");
  const auto insert_remove_rows = [&report](const char* name, auto make_set,
                                            std::uint32_t domain) {
    for (const int threads : {1, 2, 4}) {
      auto set = make_set();
      auto result = util::measure_throughput(
          name, threads, 100'000, [&set, domain](int tid, std::size_t i) {
            const std::uint32_t v =
                ((static_cast<std::uint32_t>(tid) * 8) +
                 (static_cast<std::uint32_t>(i) % 8)) % domain + 1;
            benchmark::DoNotOptimize(set.insert(v).get());
            benchmark::DoNotOptimize(set.remove(v).get());
          });
      result.bytes_per_object = set.memory_bytes();
      report.add(std::move(result));
    }
  };
  insert_remove_rows("insert_remove", [] { return HiSet({}, kDomain, 0); },
                     kDomain);
  insert_remove_rows("insert_remove_padded",
                     [] { return HiSetPadded({}, kDomain, 0); }, kDomain);
  insert_remove_rows("insert_remove/d16", [] { return HiSet({}, 16, 0); }, 16);

  const auto lookup_row = [&report](const char* name, auto make_set,
                                    std::uint32_t domain) {
    auto set = make_set();
    auto result = util::measure_throughput(
        name, 1, 200'000, [&set, domain](int, std::size_t i) {
          benchmark::DoNotOptimize(
              set.lookup(static_cast<std::uint32_t>(i % domain) + 1).get());
        });
    result.bytes_per_object = set.memory_bytes();
    report.add(std::move(result));
  };
  lookup_row("lookup",
             [] { return HiSet({}, kDomain, 0x5555555555555555ull); },
             kDomain);
  lookup_row("lookup_padded",
             [] { return HiSetPadded({}, kDomain, 0x5555555555555555ull); },
             kDomain);
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
