// Layer rows of the traced run: each row times calls into one layer's
// public functions, one span per batch, and reports the median batch time
// per call. Single-threaded rows run on the calling thread; contended rows
// run 3 workers through the crew, so a wedged row trips the watchdog
// instead of hanging the run.
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/universal.h"
#include "env/rt_env.h"
#include "rt/atomic128.h"
#include "rt/cells.h"
#include "rt/rllsc_rt.h"
#include "rt/sharded_set_rt.h"
#include "rt/universal_rt.h"
#include "sim/harness.h"
#include "spec/counter_spec.h"

namespace perfbench {
namespace {

using hi::env::EagerTask;
using hi::env::FrameArena;
using hi::env::RtEnv;
using hi::spec::CounterSpec;

constexpr int kBatches = 7;
constexpr int kWorkers = 3;

/// Keeps a value alive without a store the optimizer may drop.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median ns per call over kBatches batches of `iters` calls; one span per
/// batch.
template <typename Body>
double time_row(Tracer& tracer, const std::string& name, std::uint64_t iters,
                Body&& body) {
  SpanLog& log = tracer.new_log("row." + name);
  body(iters / 8);  // warm caches and lazy set-up
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    body(iters);
    const std::int64_t t1 = now_ns();
    log.record(kSpanRow, -1, t0, t1);
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(iters));
  }
  return median(per_call);
}

/// A contended row: 3 workers, `iters` calls each, median over kBatches of
/// wall time per call (each worker's calls are sequential). Returns the
/// median; `body` returns the worker's useful-outcome count.
template <typename Body>
double contended_row(Tracer& tracer, const std::string& name,
                     std::uint64_t iters, Body&& body, double* useful_share,
                     Result& result) {
  SpanLog& log = tracer.new_log("row." + name);
  std::vector<double> per_call;
  std::uint64_t useful = 0;
  std::uint64_t attempts = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::uint64_t> wins(kWorkers, 0);
    CrewConfig config;
    config.workers = kWorkers;
    config.quota = iters;
    const std::int64_t t0 = now_ns();
    const CrewOutcome out = run_crew(
        config, [&](int pid, WorkerProgress& progress,
                    const std::atomic<bool>& stop, std::uint64_t quota) {
          std::uint64_t w = 0;
          drive(progress, stop, quota,
                [&](std::uint64_t i) { w += body(pid, i); });
          wins[static_cast<std::size_t>(pid)] = w;
        });
    const std::int64_t t1 = now_ns();
    log.record(kSpanRow, -1, t0, t1);
    if (out.stalled()) {
      result.fail_check("row " + name + " stalled");
      return 0;
    }
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(iters));
    for (std::uint64_t w : wins) useful += w;
    attempts += out.total();
  }
  if (useful_share != nullptr) {
    *useful_share = static_cast<double>(useful) / static_cast<double>(attempts);
  }
  return median(per_call);
}

// ---- env rows: one RtEnv primitive awaited inside an EagerTask ----

EagerTask<std::uint64_t> await_cas_read(RtEnv::CasCell& cell) {
  const RtEnv::Word w = co_await RtEnv::cas_read(cell);
  co_return w.value;
}

EagerTask<bool> await_cas(RtEnv::CasCell& cell, RtEnv::Word expected,
                          RtEnv::Word desired) {
  const hi::algo::CasResult<RtEnv::Word> r =
      co_await RtEnv::cas(cell, expected, desired);
  co_return r.installed;
}

EagerTask<std::uint64_t> empty_task(std::uint64_t v) { co_return v; }

void harness_rows(Tracer& tracer, Result& result) {
  result.add("bench.floor_ns",
             time_row(tracer, "bench.floor", 4'000'000,
                      [](std::uint64_t n) {
                        WorkerProgress progress;
                        const std::atomic<bool> stop{false};
                        drive(progress, stop, n, [](std::uint64_t i) { keep(i); });
                      }),
             "ns");
  result.add("bench.clock_ns",
             time_row(tracer, "bench.clock", 1'000'000,
                      [](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) keep(now_ns());
                      }),
             "ns");
}

void atomic_rows(Tracer& tracer, Result& result) {
  hi::rt::Atomic128 word(hi::rt::Word128{1, 0});
  result.add("rt.atomic128.load_ns",
             time_row(tracer, "rt.atomic128.load", 1'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) keep(word.load());
                      }),
             "ns");
  result.add("rt.atomic128.cas_ns",
             time_row(tracer, "rt.atomic128.cas", 1'000'000,
                      [&](std::uint64_t n) {
                        hi::rt::Word128 cur = word.load();
                        for (std::uint64_t i = 0; i < n; ++i) {
                          const hi::rt::Word128 next{cur.value + 1, cur.ctx};
                          if (word.compare_exchange(cur, next)) cur = next;
                        }
                      }),
             "ns");
  result.add("rt.atomic128.store_ns",
             time_row(tracer, "rt.atomic128.store", 1'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          word.store(hi::rt::Word128{i, 0});
                        }
                      }),
             "ns");
  result.add("rt.atomic128.lock_free", word.is_lock_free() ? 1 : 0, "bool");

  // Failure-word retry, as in the R-LLSC loops: a failed CAS hands back the
  // word it saw, which is the next attempt's expectation.
  struct alignas(64) Expected {
    hi::rt::Word128 word;
  };
  hi::rt::Atomic128 shared(hi::rt::Word128{0, 0});
  std::vector<Expected> expected(kWorkers);
  double cas_success = 0;
  result.add("rt.atomic128.cas_contended_ns",
             contended_row(
                 tracer, "rt.atomic128.cas_contended", 200'000,
                 [&](int pid, std::uint64_t) -> std::uint64_t {
                   hi::rt::Word128& cur =
                       expected[static_cast<std::size_t>(pid)].word;
                   const hi::rt::Word128 next{cur.value + 1, cur.ctx};
                   if (!shared.compare_exchange(cur, next)) return 0;
                   cur = next;
                   return 1;
                 },
                 &cas_success, result),
             "ns");
  result.add("rt.atomic128.cas_success_ratio", cas_success, "share");

  std::atomic<std::uint64_t> w64{0};
  result.add("rt.word64.load_ns",
             time_row(tracer, "rt.word64.load", 2'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          keep(hi::rt::packed_load(w64));
                        }
                      }),
             "ns");
  result.add("rt.word64.fetch_or_ns",
             time_row(tracer, "rt.word64.fetch_or", 2'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          hi::rt::packed_or(w64, std::uint64_t{1} << (i & 63));
                        }
                      }),
             "ns");
  std::atomic<std::uint64_t> hot{0};
  result.add("rt.word64.contended_rmw_ns",
             contended_row(
                 tracer, "rt.word64.contended_rmw", 500'000,
                 [&](int pid, std::uint64_t i) -> std::uint64_t {
                   const std::uint64_t bit = std::uint64_t{1}
                                             << (3 * (i & 15) +
                                                 static_cast<std::uint64_t>(pid));
                   if ((i & 1) == 0) {
                     hi::rt::packed_or(hot, bit);
                   } else {
                     hi::rt::packed_and(hot, ~bit);
                   }
                   return 1;
                 },
                 nullptr, result),
             "ns");
}

void env_rows(Tracer& tracer, Result& result) {
  RtEnv::CasCell cell = RtEnv::make_cas({}, "row", 7);
  result.add("env.rt.cas_read_ns",
             time_row(tracer, "env.rt.cas_read", 1'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          keep(await_cas_read(cell).get());
                        }
                      }),
             "ns");
  result.add("env.rt.cas_ns",
             time_row(tracer, "env.rt.cas", 1'000'000,
                      [&](std::uint64_t n) {
                        RtEnv::Word cur = RtEnv::peek_cas(cell);
                        for (std::uint64_t i = 0; i < n; ++i) {
                          const RtEnv::Word next{cur.value + 1, 0};
                          if (await_cas(cell, cur, next).get()) cur = next;
                        }
                      }),
             "ns");
  result.add("env.eager_task_ns",
             time_row(tracer, "env.eager_task", 2'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          keep(empty_task(i).get());
                        }
                      }),
             "ns");
}

void rllsc_rows(Tracer& tracer, Result& result) {
  hi::rt::RtRllsc x(0);
  double sc_success = 0;
  result.add("algo.rllsc.ll_sc_ns",
             contended_row(
                 tracer, "algo.rllsc.ll_sc", 100'000,
                 [&](int pid, std::uint64_t) -> std::uint64_t {
                   const std::uint64_t v = x.ll(pid);
                   return x.sc(pid, (v + 1) & 0xffffffffu) ? 1 : 0;
                 },
                 &sc_success, result),
             "ns");
  result.add("algo.rllsc.sc_success_ratio", sc_success, "share");
}

void universal_rows(Tracer& tracer, Result& result) {
  // rt responses travel in 24 bits; static because a stalled row's parked
  // workers keep pointing at the object, which points at the spec.
  static const CounterSpec spec(0xffffff, 0);

  // Exact step counts from the simulator at n = 3, solo.
  {
    hi::sim::Memory mem;
    hi::sim::Scheduler sched(kWorkers);
    hi::core::Universal<CounterSpec, hi::core::CasRllsc> sim_obj(mem, spec,
                                                                 kWorkers);
    const std::uint64_t s0 = sched.total_steps();
    (void)hi::sim::run_solo(sched, 0, sim_obj.apply(0, CounterSpec::inc()));
    const std::uint64_t s1 = sched.total_steps();
    (void)hi::sim::run_solo(sched, 0, sim_obj.apply(0, CounterSpec::read()));
    const std::uint64_t s2 = sched.total_steps();
    result.add("algo.universal.steps_per_update", static_cast<double>(s1 - s0),
               "count");
    result.add("algo.universal.steps_per_read", static_cast<double>(s2 - s1),
               "count");
  }

  // Solo rt calls at n = 3 (pid 0 alone). Incs stay below the 24-bit cap:
  // (1/8 + 7) × 40k per row.
  hi::rt::RtUniversal<CounterSpec> solo(spec, kWorkers);
  const double update_ns = time_row(
      tracer, "algo.universal.solo_update", 40'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          keep(solo.apply(0, CounterSpec::inc()));
        }
      });
  const double read_ns = time_row(
      tracer, "algo.universal.solo_read", 1'000'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          keep(solo.apply(0, CounterSpec::read()));
        }
      });
  result.add("algo.universal.solo_update_ns", update_ns, "ns");
  result.add("algo.universal.solo_read_ns", read_ns, "ns");
  double steps_per_update = 0;
  for (const Metric& m : result.metrics) {
    if (m.name == "algo.universal.steps_per_update") steps_per_update = m.value;
  }
  result.add("algo.universal.ns_per_step", update_ns / steps_per_update, "ns");

  // Contended installs: 3 workers, 3:1 inc:read, fixed op count, in the
  // combining mode of counter_combining, where a winner installs a batch.
  auto* shared_obj =
      new hi::rt::RtUniversal<CounterSpec>(spec, kWorkers, true, true);
  hi::rt::RtUniversal<CounterSpec>& shared = *shared_obj;
  std::vector<std::uint64_t> updates(kWorkers, 0);
  std::vector<std::uint64_t> slabs(kWorkers, 0);
  CrewConfig config;
  config.workers = kWorkers;
  config.quota = 30'000;
  SpanLog& log = tracer.new_log("row.algo.universal.installs");
  const std::int64_t t0 = now_ns();
  const CrewOutcome out = run_crew(
      config, [&](int pid, WorkerProgress& progress,
                  const std::atomic<bool>& stop, std::uint64_t quota) {
        (void)shared.apply(pid, CounterSpec::read());  // builds the arena
        const std::uint64_t fresh0 = FrameArena::local().stats().fresh_slabs;
        std::uint64_t u = 0;
        drive(progress, stop, quota, [&](std::uint64_t i) {
          const bool inc = (i & 3) != 3;
          keep(shared.apply(pid, inc ? CounterSpec::inc() : CounterSpec::read()));
          u += inc ? 1 : 0;
        });
        updates[static_cast<std::size_t>(pid)] = u;
        slabs[static_cast<std::size_t>(pid)] =
            FrameArena::local().stats().fresh_slabs - fresh0;
      });
  log.record(kSpanRow, -1, t0, now_ns());
  if (out.stalled()) {
    result.notes.push_back("STALL in the algo.universal.installs row after " +
                           std::to_string(out.total()) + " ops");
  }
  std::uint64_t total_updates = 0;
  std::uint64_t total_slabs = 0;
  for (int p = 0; p < kWorkers; ++p) {
    total_updates += updates[static_cast<std::size_t>(p)];
    total_slabs += slabs[static_cast<std::size_t>(p)];
  }
  result.add("algo.universal.installs_per_update",
             static_cast<double>(shared.batches_installed()) /
                 static_cast<double>(total_updates),
             "count");
  result.add("algo.universal.ops_per_install",
             static_cast<double>(shared.ops_combined()) /
                 static_cast<double>(shared.batches_installed()),
             "count");
  result.add("env.frame_arena.fresh_slabs_per_op",
             static_cast<double>(total_slabs) /
                 static_cast<double>(out.total()),
             "count");
  if (!out.stalled()) delete shared_obj;  // else parked workers point into it
}

void sharded_rows(Tracer& tracer, Result& result) {
  hi::rt::RtShardedHiSet set(kStoreDomain, kStoreShards);
  SeedRng rng(1);
  std::vector<std::uint32_t> hot(4096);
  std::vector<std::uint32_t> cold(1 << 16);
  const std::uint32_t base = 1 + 64 * 1000;
  for (std::uint32_t& k : hot) {
    k = base + static_cast<std::uint32_t>(rng.below(kStoreHot));
  }
  for (std::uint32_t& k : cold) {
    k = 1 + static_cast<std::uint32_t>(rng.below(kStoreDomain));
  }
  result.add("algo.sharded_set.hot_op_ns",
             time_row(tracer, "algo.sharded_set.hot_op", 1'000'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          const std::uint32_t k = hot[i & 4095];
                          switch (i & 3) {
                            case 0:
                              keep(set.insert(k));
                              break;
                            case 1:
                              keep(set.remove(k));
                              break;
                            default:
                              keep(set.lookup(k));
                          }
                        }
                      }),
             "ns");
  result.add("algo.sharded_set.cold_lookup_ns",
             time_row(tracer, "algo.sharded_set.cold_lookup", 500'000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          keep(set.lookup(cold[i & 0xffff]));
                        }
                      }),
             "ns");
}

}  // namespace

void run_layer_rows(Tracer& tracer, Result& result) {
  harness_rows(tracer, result);
  atomic_rows(tracer, result);
  env_rows(tracer, result);
  rllsc_rows(tracer, result);
  universal_rows(tracer, result);
  sharded_rows(tracer, result);
  run_explorer_row(tracer, result);
}

}  // namespace perfbench
