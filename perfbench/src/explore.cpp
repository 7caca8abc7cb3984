// explore_dpor: the exhaustive explorer in DPOR mode over the simulator
// instantiation of Algorithm 5 (core::Universal<CounterSpec> over CAS
// R-LLSC cells), inc ‖ inc at n = 2, single-threaded. The schedule space of
// this pair does not exhaust in reasonable time, so each exploration stops
// at a fixed execution budget and depth; the explorer is deterministic, so
// its execution and configuration counts are pinned exactly. Every complete
// history goes through verify::check_linearizable. One op is one complete
// execution explored and checked.
//
// The seed picks the counter's initial value; the schedule space, and with
// it every pinned count, does not depend on it.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/universal.h"
#include "sim/explorer.h"
#include "spec/counter_spec.h"
#include "verify/linearizability.h"

namespace perfbench {
namespace {

using hi::spec::CounterSpec;
using Hist = hi::verify::History<CounterSpec::Op, CounterSpec::Resp>;

constexpr int kProcs = 2;
constexpr std::uint32_t kMax = 100;
constexpr std::uint64_t kBudget = 10'000;  // executions per exploration
constexpr std::size_t kDepth = 120;
constexpr std::uint64_t kWarmupBudget = 1'000;
constexpr int kSetups = 5;
// Every exploration does the same deterministic work (its counts are
// pinned), so the least disturbed ones measure the code: ops_per_s is the
// 90th percentile of the plain explorations' rates, p50_ns / p99_ns the
// 10th percentile over the sampled ones. This host's speed for this
// single-threaded, allocation-heavy loop alternates, seconds at a time,
// between two levels ~35% apart; the median exploration follows whichever
// level held most of a run, the fastest tenth does not.
constexpr double kWindowQuantile = 0.9;

/// What one exploration of the fixed workload must report.
struct Pinned {
  std::uint64_t complete;
  std::uint64_t truncated;
  std::uint64_t pruned;
  std::uint64_t configurations;
};
constexpr Pinned kPinned{10'000, 0, 0, 73'151};
constexpr Pinned kPinnedWarmup{1'000, 0, 0, 8'195};

struct UniSystem {
  CounterSpec spec;
  hi::sim::Memory mem;
  hi::sim::Scheduler sched;
  hi::core::Universal<CounterSpec, hi::core::CasRllsc> impl;

  explicit UniSystem(std::uint32_t initial)
      : spec(kMax, initial), sched(kProcs), impl(mem, spec, kProcs) {}
  hi::sim::Scheduler& scheduler() { return sched; }
  hi::sim::Memory& memory() { return mem; }
  hi::sim::OpTask<std::uint32_t> apply(int pid, CounterSpec::Op op) {
    return impl.apply(pid, op);
  }
};

using Explorer = hi::sim::Explorer<CounterSpec, UniSystem>;

bool counts_match(const hi::sim::ExploreStats& s, const Pinned& p) {
  return s.executions_complete == p.complete &&
         s.executions_truncated == p.truncated &&
         s.executions_pruned == p.pruned && s.configurations == p.configurations;
}

std::string describe(const hi::sim::ExploreStats& s) {
  std::ostringstream out;
  out << "complete=" << s.executions_complete
      << " truncated=" << s.executions_truncated
      << " pruned=" << s.executions_pruned
      << " configurations=" << s.configurations;
  return out.str();
}

struct Exploration {
  hi::sim::ExploreStats stats;
  std::uint64_t lin_failures = 0;
  std::int64_t explore_ns = 0;   // the whole explore() call
  std::int64_t callback_ns = 0;  // traced: Σ on_complete spans
  std::int64_t lin_ns = 0;       // traced: Σ check_linearizable spans
  std::vector<std::uint32_t> lin_samples;  // traced: each check's duration
};

class ExploreBench {
 public:
  explicit ExploreBench(std::uint64_t seed)
      : initial_(1 + static_cast<std::uint32_t>(SeedRng(seed).below(kMax - 2))),
        spec_(kMax, initial_) {}

  std::unique_ptr<Explorer> make_explorer() const {
    const std::uint32_t initial = initial_;
    return std::make_unique<Explorer>(
        spec_, [initial] { return std::make_unique<UniSystem>(initial); },
        std::vector<std::vector<CounterSpec::Op>>{{CounterSpec::inc()},
                                                  {CounterSpec::inc()}});
  }

  /// One exploration. kSampled appends each execution's duration (time
  /// since the previous completion) to `samples`; kTraced records spans in
  /// `log`, under a root span around the whole exploration.
  template <Mode M>
  Exploration explore(Explorer& explorer, std::uint64_t budget,
                      std::vector<std::uint32_t>* samples, SpanLog* log) {
    Exploration e;
    if constexpr (M == Mode::kTraced) e.lin_samples.reserve(budget);
    const std::int64_t t0 = now_ns();
    if constexpr (M == Mode::kTraced) log->open_root(kSpanExplore);
    std::int64_t last = t0;
    e.stats = explorer.explore(
        {.max_depth = kDepth,
         .max_executions = budget,
         .mode = hi::sim::ExploreMode::kDpor},
        nullptr, [&](UniSystem&, const Hist& hist) {
          if constexpr (M == Mode::kPlain) {
            if (!hi::verify::check_linearizable(spec_, hist).ok()) {
              ++e.lin_failures;
            }
          } else if constexpr (M == Mode::kSampled) {
            if (!hi::verify::check_linearizable(spec_, hist).ok()) {
              ++e.lin_failures;
            }
            const std::int64_t now = now_ns();
            samples->push_back(static_cast<std::uint32_t>(now - last));
            last = now;
          } else {
            const std::int64_t c0 = now_ns();
            const bool ok = hi::verify::check_linearizable(spec_, hist).ok();
            const std::int64_t c1 = now_ns();
            e.lin_failures += ok ? 0 : 1;
            const std::int64_t c2 = now_ns();
            const std::int64_t cb =
                log->record(kSpanOnComplete, SpanLog::kRoot, c0, c2);
            log->record(kSpanLinCheck, cb, c0, c1);
            e.callback_ns += c2 - c0;
            e.lin_ns += c1 - c0;
            e.lin_samples.push_back(static_cast<std::uint32_t>(c1 - c0));
          }
        });
    if constexpr (M == Mode::kTraced) log->close_root();
    e.explore_ns = now_ns() - t0;
    return e;
  }

  const CounterSpec& spec() const { return spec_; }
  std::uint32_t initial() const { return initial_; }

 private:
  std::uint32_t initial_;
  CounterSpec spec_;
};

/// Explorations until `seconds` are spent, alternating plain ones with
/// `Alt` ones; each exploration is one window, a traced one with a fresh
/// span log, and `violations` counts histories that are not linearizable.
template <Mode Alt>
Pass run_pass(ExploreBench& bench, Explorer& explorer, double seconds,
              Tracer* tracer, Result& result) {
  Pass pass;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t allocs0 = thread_heap_allocs();
  std::vector<std::uint32_t> samples;
  samples.reserve(kBudget);
  const auto account = [&](const Exploration& e, Windows& windows,
                           std::vector<std::uint32_t>* window_samples) {
    windows.add(e.stats.executions_complete,
                static_cast<double>(e.explore_ns) * 1e-9, 0, window_samples);
    pass.violations += e.lin_failures;
    if (!counts_match(e.stats, kPinned)) {
      result.fail_check("exploration counts moved: " + describe(e.stats));
    }
  };
  while (now_ns() < deadline) {
    account(bench.explore<Mode::kPlain>(explorer, kBudget, nullptr, nullptr),
            pass.plain, nullptr);
    samples.clear();
    SpanLog* log = nullptr;
    if constexpr (Alt == Mode::kTraced) log = &tracer->new_log("explore");
    account(bench.explore<Alt>(explorer, kBudget, &samples, log), pass.alt,
            Alt == Mode::kSampled ? &samples : nullptr);
  }
  pass.allocs = thread_heap_allocs() - allocs0;
  return pass;
}

/// Positive controls: each check must trip on a deliberately wrong input.
void run_controls(const ExploreBench& bench, Result& result) {
  // Two sequential incs that both return the initial value: a lost update.
  Hist lost;
  const std::size_t a = lost.invoke(0, CounterSpec::inc());
  lost.respond(a, bench.initial());
  const std::size_t b = lost.invoke(1, CounterSpec::inc());
  lost.respond(b, bench.initial());
  if (hi::verify::check_linearizable(bench.spec(), lost).ok()) {
    result.fail_check("control: linearizability check did not trip");
  }
  hi::sim::ExploreStats off_by_one;
  off_by_one.executions_complete = kPinned.complete;
  off_by_one.configurations = kPinned.configurations + 1;
  if (counts_match(off_by_one, kPinned)) {
    result.fail_check("control: exact-count check did not trip");
  }
}

}  // namespace

Result run_explore_dpor(const RunArgs& args) {
  Result result;
  ExploreBench bench(args.seed);
  std::unique_ptr<Explorer> explorer;
  Pass pass;
  Tally tally;
  tally.window_quantile = kWindowQuantile;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    explorer = bench.make_explorer();
    const Exploration e =
        bench.explore<Mode::kPlain>(*explorer, kWarmupBudget, nullptr, nullptr);
    tally.setups.push_back(seconds_between(t0, now_ns()));
    tally.warmup_violations += e.lin_failures;
    if (!counts_match(e.stats, kPinnedWarmup)) {
      result.fail_check("warm-up exploration counts moved: " +
                        describe(e.stats));
    }
  };
  if (!args.trace) {
    for (int i = 0; i < kSetups; ++i) set_up();
    pass = run_pass<Mode::kSampled>(bench, *explorer, args.seconds, nullptr,
                                    result);
  } else {
    set_up();
    Tracer tracer;
    pass = run_pass<Mode::kTraced>(bench, *explorer, args.seconds, &tracer,
                                   result);
    tracer.write(args.trace_dir + "/explore_dpor.jsonl", result);
  }
  tally.peak_rss_mb = peak_rss_mb();
  run_controls(bench, result);

  tally.bytes_per_object =
      static_cast<double>(UniSystem(bench.initial()).impl.memory_bytes());
  std::ostringstream details;
  details << "initial=" << bench.initial() << " explorations="
          << pass.plain.rates.size() + pass.alt.rates.size()
          << " pinned per exploration: complete=" << kPinned.complete
          << " configurations=" << kPinned.configurations;
  const std::uint64_t lin_failures =
      report("explore_dpor", args, pass, tally, details.str(), result);
  if (lin_failures != 0) {
    result.fail_check(std::to_string(lin_failures) +
                      " explored histories are not linearizable");
  }
  return result;
}

void run_explorer_row(Tracer& tracer, Result& result) {
  // Fixed seed: the row measures the layers, not an input.
  ExploreBench bench(1);
  std::unique_ptr<Explorer> explorer = bench.make_explorer();
  (void)bench.explore<Mode::kPlain>(*explorer, kWarmupBudget, nullptr, nullptr);
  // Room for every span of the row: 2 per execution, under the root.
  SpanLog& log = tracer.new_log("row.explorer", 2 * kBudget);
  Exploration e = bench.explore<Mode::kTraced>(*explorer, kBudget, nullptr, &log);
  if (!counts_match(e.stats, kPinned) || e.lin_failures != 0) {
    result.fail_check("explorer row: " + describe(e.stats) + " lin_failures=" +
                      std::to_string(e.lin_failures));
  }
  const double explore_ns = static_cast<double>(e.explore_ns);
  const double self_ns = explore_ns - static_cast<double>(e.callback_ns);
  result.add("sim.explorer.executions",
             static_cast<double>(e.stats.executions_complete), "count");
  result.add("sim.explorer.configurations",
             static_cast<double>(e.stats.configurations), "count");
  result.add("sim.explorer.ns_per_configuration",
             self_ns / static_cast<double>(e.stats.configurations), "ns");
  result.add("sim.explorer.self_share", self_ns / explore_ns, "share");
  result.add("verify.lin_check_ns", percentile(e.lin_samples, 0.5), "ns");
  result.add("verify.lin_check_share",
             static_cast<double>(e.lin_ns) / explore_ns, "share");
}

}  // namespace perfbench
