// Experiment E14 ablations — the measurable cost and necessity of the HI
// machinery in Algorithm 5:
//
//  (a) red-lines ablation: clear_contexts=false removes the RL operations
//      (lines 22, 27, 18R.2). Throughput improves slightly; history
//      independence breaks — context residue persists at quiescence (the
//      §6.1 counter example). Verified and printed.
//  (b) upward-clearing ablation for the register: Algorithm 2 without its
//      up-clear loop is Algorithm 1 — faster writes, but the memory leaks
//      old values. Verified via memory images.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "algo/registers.h"
#include "env/rt_env.h"
#include "rt/universal_rt.h"
#include "spec/counter_spec.h"

namespace hi {
namespace {

using spec::CounterSpec;

const CounterSpec& counter_spec() {
  static const CounterSpec spec(0xffffff, 0);
  return spec;
}

void BM_WithClearing(benchmark::State& state) {
  static rt::RtUniversal<CounterSpec>* object = nullptr;
  if (state.thread_index() == 0) {
    object = new rt::RtUniversal<CounterSpec>(counter_spec(), state.threads(),
                                              /*clear_contexts=*/true);
  }
  const int pid = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(object->apply(pid, CounterSpec::inc()));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete object;
    object = nullptr;
  }
}
void BM_WithoutClearing(benchmark::State& state) {
  static rt::RtUniversal<CounterSpec>* object = nullptr;
  if (state.thread_index() == 0) {
    object = new rt::RtUniversal<CounterSpec>(counter_spec(), state.threads(),
                                              /*clear_contexts=*/false);
  }
  const int pid = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(object->apply(pid, CounterSpec::inc()));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete object;
    object = nullptr;
  }
}
BENCHMARK(BM_WithClearing)
    ->Name("alg5/with_rl_clearing")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();
BENCHMARK(BM_WithoutClearing)
    ->Name("alg5/without_rl_clearing(ablation)")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void print_hi_verdicts() {
  std::printf("=== ablation (a): Algorithm 5 red lines (RL clearing) ===\n");
  for (const bool clearing : {true, false}) {
    rt::RtUniversal<CounterSpec> object(counter_spec(), 4, clearing);
    std::vector<std::thread> pool;
    for (int pid = 0; pid < 4; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < 2000; ++i) {
          (void)object.apply(pid, CounterSpec::inc());
        }
      });
    }
    for (auto& t : pool) t.join();
    std::printf(
        "  clear_contexts=%-5s: state=%llu, context residue at quiescence: "
        "%#llx %s\n",
        clearing ? "true" : "false",
        static_cast<unsigned long long>(object.head_state_encoded()),
        static_cast<unsigned long long>(object.context_union()),
        clearing ? "(HI holds)" : "(history leaked!)");
  }

  std::printf("\n=== ablation (b): Algorithm 2's upward clearing ===\n");
  algo::LockFreeHiAlgPacked<env::RtEnv> with_clear({}, 4, 1);
  // Alg 1 = Alg 2 minus the up-clear.
  algo::VidyasankarAlgPacked<env::RtEnv> without_clear({}, 4, 1);
  for (const std::uint32_t v : {3u, 1u}) {
    (void)with_clear.write(v).get();
    (void)without_clear.write(v).get();
  }
  const auto canonical = algo::memory_image(with_clear);
  const auto leaky = algo::memory_image(without_clear);
  auto show = [](const char* label, const std::vector<std::uint8_t>& img) {
    std::printf("  %-22s A = [", label);
    for (std::size_t i = 0; i < img.size(); ++i) {
      std::printf("%s%u", i ? "," : "", img[i]);
    }
    std::printf("]\n");
  };
  show("with up-clear (Alg 2):", canonical);
  show("without (= Alg 1):", leaky);
  std::printf("  same abstract state (1); %s\n\n",
              canonical == leaky ? "identical memory (unexpected!)"
                                 : "the ablated memory leaks Write(3)");
}

}  // namespace
}  // namespace hi

int main(int argc, char** argv) {
  hi::print_hi_verdicts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
