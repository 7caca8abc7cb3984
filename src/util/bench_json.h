// Machine-readable benchmark results, so the performance trajectory can be
// tracked across PRs without scraping console output.
//
// Each bench executable writes one BENCH_<suite>.json next to its working
// directory (override the directory with HI_BENCH_DIR):
//
//   {
//     "suite": "registers",
//     "meta": {"compiler": "gcc 12.2.0", "cplusplus": 202002,
//              "optimize": true, "assertions": false,
//              "sanitizer": "none", "arch": "x86_64", "host_cores": 4,
//              "atomic128_lock_free": true},
//     "results": [
//       {"name": "alg2/solo_write", "threads": 1,
//        "ops_per_sec": 12345678.9, "p50_ns": 81, "p99_ns": 204,
//        "allocs_per_op": 0, "bytes_per_object": 128},
//       ...
//     ]
//   }
//
// bytes_per_object is the benched object's shared-memory footprint (e.g.
// 65536 for a K=1024 padded-per-bit register vs 128 packed — the layout
// win the packed bin arrays buy), tracked in the JSON trajectory so memory
// wins/regressions are as visible as throughput ones.
//
// The full schema, the measurement methodology (warmup, percentile
// definitions, allocs_per_op semantics) and how CI consumes these artifacts
// are documented in docs/PERF.md.
//
// measure_throughput() is the standard harness: each worker runs an untimed
// warmup (which also brings the RtEnv frame arena to steady state), then
// per-operation latencies are sampled with steady_clock on every thread
// (the ~25ns clock overhead is part of the reported latency, identically
// for every algorithm), wall time is taken across the whole thread group
// for ops/sec, and each worker's thread-local heap-allocation delta
// (util/alloc_probe.h, included below — note its one-TU-per-binary rule)
// yields allocs_per_op.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rt/atomic128.h"
#include "util/alloc_probe.h"
#include "util/stats.h"

namespace hi::util {

/// Build provenance embedded in every BENCH_*.json so artifacts from
/// different CI runs (or a laptop vs a runner) are comparable — a perf
/// delta between a TSan build and a plain Release build is a build-config
/// delta, not a regression.
struct BenchMeta {
  std::string compiler;
  long cplusplus = 0;
  bool optimize = false;    // __OPTIMIZE__: -O1 or higher
  bool assertions = false;  // NDEBUG absent: assert() compiled in
  std::string sanitizer;    // "none" | "thread" | "address"
  std::string arch;
  /// Hardware threads visible to the recording host. Contention-scaling
  /// bounds (the sharded shard sweep) are only meaningful when the host can
  /// actually run the bench threads in parallel — on a 1-core container
  /// every thread time-slices on the same core, inter-core cache-line
  /// ping-pong does not exist, and the sweep is pure noise. check_bench.py
  /// reads this field to decide whether the scaling bound applies.
  unsigned host_cores = 0;
  /// rt::Atomic128::is_lock_free(): inline CMPXCHG16B (true) or libatomic's
  /// lock table (false) under every universal and R-LLSC row.
  bool atomic128_lock_free = false;
};

inline const BenchMeta& bench_meta() {
  static const BenchMeta meta = [] {
    BenchMeta m;
#if defined(__clang__)
    m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    m.compiler = std::string("gcc ") + __VERSION__;
#else
    m.compiler = "unknown";
#endif
    m.cplusplus = static_cast<long>(__cplusplus);
#if defined(__OPTIMIZE__)
    m.optimize = true;
#endif
#if !defined(NDEBUG)
    m.assertions = true;
#endif
#if defined(__SANITIZE_THREAD__)
    m.sanitizer = "thread";
#elif defined(__SANITIZE_ADDRESS__)
    m.sanitizer = "address";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    m.sanitizer = "thread";
#elif __has_feature(address_sanitizer)
    m.sanitizer = "address";
#else
    m.sanitizer = "none";
#endif
#else
    m.sanitizer = "none";
#endif
#if defined(__x86_64__) || defined(_M_X64)
    m.arch = "x86_64";
#elif defined(__aarch64__)
    m.arch = "aarch64";
#else
    m.arch = "unknown";
#endif
    m.host_cores = std::thread::hardware_concurrency();
    m.atomic128_lock_free = rt::Atomic128{}.is_lock_free();
    return m;
  }();
  return meta;
}

struct BenchResult {
  std::string name;
  int threads = 1;
  double ops_per_sec = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  /// Heap allocations per operation in the measured (post-warmup) window,
  /// summed across workers. 0.0 is the steady-state contract for every rt
  /// bench (the frame arena absorbs all coroutine frames); -1.0 means the
  /// result predates the probe (legacy artifacts only).
  double allocs_per_op = -1.0;
  /// Shared-memory footprint of the benched object in bytes (the rt
  /// wrappers' memory_bytes(); set by the emitter after measuring). Tracks
  /// the representation cost next to the throughput — the padded-vs-packed
  /// bin-array tradeoff is a memory×contention tradeoff, not a pure speed
  /// knob (docs/PERF.md).
  std::uint64_t bytes_per_object = 0;
  /// Fraction of operations that entered a helping slow path in the
  /// measured run (wait-free simulation combinator rows; 0.0 on rows for
  /// natively wait-free algorithms benched as controls). -1.0 means "not
  /// applicable" and the field is omitted from the JSON — only suites whose
  /// rows all report it (waitfree_sim) gate on it.
  double slow_path_entry_rate = -1.0;
  // Traffic-driver fields (util/traffic.h; docs/PERF.md "traffic schema").
  // Each uses the same "negative means not-applicable, omitted from the
  // JSON" convention as slow_path_entry_rate.
  /// Ops/sec the arrival schedule asked for. Closed-loop rows report the
  /// achieved rate here too (offered ≡ achieved when there is no schedule).
  double offered_load = -1.0;
  /// Ops/sec actually completed over the wall-clock window. On open-loop
  /// rows achieved ≤ offered by construction (lateness accrues; the driver
  /// never compresses inter-arrival gaps to catch up) — check_bench.py's
  /// traffic suite gates on it.
  double achieved_load = -1.0;
  /// 99.9th-percentile completion latency; with p50/p99 this is the
  /// JCT-style tail picture. -1 omits.
  std::int64_t p999_ns = -1;
  /// ops_combined / batches_installed for universal-construction rows:
  /// exactly 1.0 with combine=false, > 1 when flat combining actually
  /// batches under contention.
  double batch_size_mean = -1.0;
};

/// Run `op(tid, i)` ops_per_thread times on each of `threads` threads,
/// timing every call. OpFn must be thread-safe across distinct tids.
///
/// Each worker first runs min(1024, ops_per_thread) warmup calls, untimed
/// and excluded from the allocation tally: the warmup populates caches,
/// trains branch predictors, and — the part the allocs_per_op gate relies
/// on — lets the per-thread FrameArena mint every coroutine-frame slab the
/// workload needs, so the measured window reports the true steady state.
template <typename OpFn>
BenchResult measure_throughput(std::string name, int threads,
                               std::size_t ops_per_thread, OpFn op) {
  using Clock = std::chrono::steady_clock;
  const std::size_t warmup_ops = std::min<std::size_t>(ops_per_thread, 1024);
  std::vector<Samples> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> allocs(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));

  // Start barrier: the wall clock starts when every thread has finished its
  // warmup and all are released together, so neither thread-creation
  // stagger nor warmup pads the wall time, and no thread runs a
  // lower-contention measured phase while others are still warming up.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  for (int tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      Samples& samples = per_thread[static_cast<std::size_t>(tid)];
      samples.reserve(ops_per_thread);
      for (std::size_t i = 0; i < warmup_ops; ++i) {
        op(tid, i);
      }
      const AllocTally tally;  // thread-local; spin-waiting allocates nothing
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const auto start = Clock::now();
        op(tid, i);
        const auto end = Clock::now();
        samples.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()));
      }
      allocs[static_cast<std::size_t>(tid)] = tally.allocs();
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
  }
  const auto wall_start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& worker : pool) worker.join();
  const auto wall_end = Clock::now();

  Samples merged;
  std::uint64_t total_allocs = 0;
  for (const Samples& samples : per_thread) merged.merge(samples);
  for (const std::uint64_t a : allocs) total_allocs += a;

  const double wall_sec =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);

  BenchResult result;
  result.name = std::move(name);
  result.threads = threads;
  result.ops_per_sec = wall_sec > 0 ? total_ops / wall_sec : 0.0;
  result.p50_ns = merged.percentile(0.5);
  result.p99_ns = merged.percentile(0.99);
  result.allocs_per_op = static_cast<double>(total_allocs) / total_ops;
  return result;
}

/// Collects results and writes BENCH_<suite>.json.
class BenchReport {
 public:
  explicit BenchReport(std::string suite) : suite_(std::move(suite)) {}

  void add(BenchResult result) { results_.push_back(std::move(result)); }

  /// Writes the JSON file; returns the path written (empty on failure).
  std::string write() const {
    std::string dir = ".";
    if (const char* env_dir = std::getenv("HI_BENCH_DIR")) dir = env_dir;
    const std::string path = dir + "/BENCH_" + suite_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return "";
    }
    const BenchMeta& meta = bench_meta();
    std::fprintf(out, "{\n  \"suite\": \"%s\",\n", suite_.c_str());
    std::fprintf(out,
                 "  \"meta\": {\"compiler\": \"%s\", \"cplusplus\": %ld, "
                 "\"optimize\": %s, \"assertions\": %s, "
                 "\"sanitizer\": \"%s\", \"arch\": \"%s\", "
                 "\"host_cores\": %u, \"atomic128_lock_free\": %s},\n",
                 meta.compiler.c_str(), meta.cplusplus,
                 meta.optimize ? "true" : "false",
                 meta.assertions ? "true" : "false", meta.sanitizer.c_str(),
                 meta.arch.c_str(), meta.host_cores,
                 meta.atomic128_lock_free ? "true" : "false");
    std::fprintf(out, "  \"results\": [\n");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      // %.6g for allocs_per_op: a fixed-precision format would round a
      // tiny-but-real leak (one frame per ~25k ops => 4e-05) to 0.0000 and
      // sneak it past the CI gate's allocs != 0 check; %.6g keeps any
      // nonzero rate nonzero in the JSON (scientific notation parses fine).
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"threads\": %d, "
                   "\"ops_per_sec\": %.1f, \"p50_ns\": %llu, "
                   "\"p99_ns\": %llu, \"allocs_per_op\": %.6g, "
                   "\"bytes_per_object\": %llu",
                   r.name.c_str(), r.threads, r.ops_per_sec,
                   static_cast<unsigned long long>(r.p50_ns),
                   static_cast<unsigned long long>(r.p99_ns), r.allocs_per_op,
                   static_cast<unsigned long long>(r.bytes_per_object));
      if (r.slow_path_entry_rate >= 0.0) {
        // %.6g for the same reason as allocs_per_op: a rare-but-real slow
        // path (1 in 25k ops) must stay nonzero in the JSON.
        std::fprintf(out, ", \"slow_path_entry_rate\": %.6g",
                     r.slow_path_entry_rate);
      }
      if (r.offered_load >= 0.0) {
        std::fprintf(out, ", \"offered_load\": %.1f", r.offered_load);
      }
      if (r.achieved_load >= 0.0) {
        std::fprintf(out, ", \"achieved_load\": %.1f", r.achieved_load);
      }
      if (r.p999_ns >= 0) {
        std::fprintf(out, ", \"p999_ns\": %lld",
                     static_cast<long long>(r.p999_ns));
      }
      if (r.batch_size_mean >= 0.0) {
        // %.6g: a mean of 1.00004 (one two-op batch in 25k) must not round
        // to a clean 1.0 — the gate reads this to prove combining engaged.
        std::fprintf(out, ", \"batch_size_mean\": %.6g", r.batch_size_mean);
      }
      std::fprintf(out, "}%s\n", i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("bench_json: wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string suite_;
  std::vector<BenchResult> results_;
};

}  // namespace hi::util
