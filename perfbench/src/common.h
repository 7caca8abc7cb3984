// Shared harness of the repository benchmark: clock, statistics, the
// worker crew with its progress watchdog, span tracing, allocation and RSS
// probes, and the result record every workload fills in.
//
// Nothing here comes from src/util: the yardstick must not move when the
// library's own bench harness (util/bench_json.h, util/traffic.h) does.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clock

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// ---------------------------------------------------------------- statistics

double median(std::vector<double> values);
/// The q-quantile (q in [0, 1]) of `values`, interpolating between the two
/// nearest ranks; quantile(v, 0.5) is the median.
double quantile(std::vector<double> values, double q);
/// Nearest-rank percentile (q in [0, 1]) of `samples`; sorts in place.
double percentile(std::vector<std::uint32_t>& samples, double q);

/// 64-bit mixer for seeded input generation (splitmix64).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------- probes

/// Global operator new calls made by the calling thread (harness.cpp
/// replaces the global allocation functions with counting versions).
std::uint64_t thread_heap_allocs();
/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `notes` are
/// human-readable report lines printed before the JSON result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness failure with its explanation.
  void fail_check(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// ---------------------------------------------------------------- crew

/// Per-worker progress cell, written by its worker (relaxed store after
/// every completed op) and sampled by the watchdog. Padded so workers do
/// not false-share.
struct alignas(64) WorkerProgress {
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> exited{false};
};

struct CrewConfig {
  int workers = 3;
  double seconds = 0;                        // 0: run until every quota is met
  std::uint64_t quota = ~std::uint64_t{0};   // per-worker op cap
  double stall_window_s = 1.0;               // no progress this long = stuck
};

struct CrewOutcome {
  double live_s = 0;  // start to the last observed progress of any worker
  std::vector<std::uint64_t> done;  // ops completed, per worker
  std::vector<int> stuck;           // workers parked by the watchdog
  bool stalled() const { return !stuck.empty(); }
  std::uint64_t total() const;
};

/// Worker body: runs ops for `pid` until `stop` reads true or its quota is
/// met, storing the completed count into `progress.done` after each op.
using CrewBody = std::function<void(int pid, WorkerProgress& progress,
                                    const std::atomic<bool>& stop,
                                    std::uint64_t quota)>;

/// Starts `config.workers` threads running `body` and acts as their
/// watchdog from the calling thread. A worker whose done count does not
/// move for `stall_window_s` while it has not exited is stuck: the crew
/// stops the rest, parks each stuck thread inside a signal handler (it
/// never runs again and never returns) and reports it in `stuck`. Parked
/// threads cannot be joined, so the process must end through std::_Exit
/// (see main.cpp); callers keep the object a parked thread is inside alive,
/// both for the stall dump and because the thread's frames point into it.
CrewOutcome run_crew(const CrewConfig& config, const CrewBody& body);

/// The op loop every worker runs: one op per iteration, no clock reads.
template <typename Op>
inline void drive(WorkerProgress& progress, const std::atomic<bool>& stop,
                  std::uint64_t quota, Op&& op) {
  std::uint64_t i = 0;
  while (i != quota && !stop.load(std::memory_order_relaxed)) {
    op(i);
    progress.done.store(++i, std::memory_order_relaxed);
  }
}

/// Latency samples, 1 op in kSampleStride timed with two clock reads. A
/// ring: once full, the oldest samples are overwritten, so long windows keep
/// a bounded buffer.
inline constexpr std::uint64_t kSampleStride = 16;

class SampleRing {
 public:
  static constexpr std::uint64_t kCapacity = std::uint64_t{1} << 18;

  SampleRing() : buf_(kCapacity) {}
  void clear() { count_ = 0; }
  void push(std::int64_t ns) {
    const std::uint32_t v =
        ns < 0 ? 0u
               : (ns > 0xffffffffll ? 0xffffffffu
                                    : static_cast<std::uint32_t>(ns));
    buf_[count_ & (kCapacity - 1)] = v;
    ++count_;
  }
  void append_to(std::vector<std::uint32_t>& out) const;

 private:
  std::vector<std::uint32_t> buf_;
  std::uint64_t count_ = 0;
};

/// A run's measured time is split into windows of about kWindowS that
/// alternate between plain windows (throughput, no clock reads) and
/// sampled or traced ones. Each end-to-end figure is the median over its
/// windows, so a short slowdown of the host moves one window, not the
/// figure, and both kinds of window cover the whole run.
inline constexpr double kWindowS = 0.5;
/// An even number of windows, at least 4.
int window_count(double seconds);

/// Per-window figures of one pass.
struct Windows {
  std::vector<double> rates;  // ops per live second
  std::vector<double> p50;    // sampled passes only
  std::vector<double> p99;
  std::uint64_t ops = 0;
  std::uint64_t stuck = 0;
  std::uint64_t samples = 0;
  int stalls = 0;

  /// Folds one window in; `samples` (sampled passes) are its latencies.
  void add(std::uint64_t window_ops, double live_s, std::size_t stuck_ops,
           std::vector<std::uint32_t>* window_samples);
  void add(const CrewOutcome& out, std::vector<std::uint32_t>* window_samples) {
    add(out.total(), out.live_s, out.stuck.size(), window_samples);
  }
};

/// One run's measured windows and the counts its workers accumulate.
struct Pass {
  Windows plain;  // throughput windows
  Windows alt;    // sampled or traced windows
  std::uint64_t violations = 0;  // wrong responses (explore: lin failures)
  std::uint64_t allocs = 0;      // heap allocations during measured ops
};

// ---------------------------------------------------------------- tracing

/// One span: a named interval with the id of its parent span in the same
/// log (-1 for none).
struct Span {
  std::uint32_t name = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span names. Kept as a fixed table so recording a span stores an index.
enum SpanName : std::uint32_t {
  kSpanWorker,           // one worker's share of a traced window
  kSpanUniversalApply,   // sampled RtUniversal::apply call
  kSpanShardedOp,        // sampled RtShardedHiSet insert/remove/lookup
  kSpanExplore,          // one Explorer::explore call
  kSpanOnComplete,       // explorer on_complete callback
  kSpanLinCheck,         // verify::check_linearizable
  kSpanRow,              // one batch of a layer row
  kSpanNameCount,
};
const char* span_name(std::uint32_t name);

/// One thread's spans of one traced window (or of one layer row),
/// preallocated so that recording never allocates. It holds a root span
/// (id kRoot) around the window and a ring of the spans recorded in it (ids
/// 1, 2, ...). Once the ring is full each new span overwrites the oldest, so
/// every span of every window costs the same to record and the log keeps the
/// window's latest `capacity` spans.
class SpanLog {
 public:
  static constexpr std::int64_t kRoot = 0;
  /// Per-thread ring size of a traced window's log.
  static constexpr std::size_t kWindowCapacity = std::size_t{1} << 12;

  /// `capacity` is rounded up to a power of two.
  explicit SpanLog(std::size_t capacity);

  void open_root(std::uint32_t name) {
    root_ = Span{name, -1, now_ns(), 0};
    has_root_ = true;
  }
  void close_root() { root_.end_ns = now_ns(); }
  /// Records an already-timed interval under `parent`; returns its id.
  std::int64_t record(std::uint32_t name, std::int64_t parent,
                      std::int64_t start_ns, std::int64_t end_ns) {
    spans_[count_ & mask_] = Span{name, parent, start_ns, end_ns};
    return static_cast<std::int64_t>(++count_);
  }

  const Span* root() const { return has_root_ ? &root_ : nullptr; }
  /// Spans recorded into the ring, kept or overwritten.
  std::uint64_t recorded() const { return count_; }
  /// The lowest id still kept; ids below it were overwritten.
  std::int64_t first_kept() const {
    return static_cast<std::int64_t>(
        count_ > spans_.size() ? count_ - spans_.size() + 1 : 1);
  }
  /// A kept span, by id (first_kept() ≤ id ≤ recorded()).
  const Span& span(std::int64_t id) const {
    return spans_[static_cast<std::uint64_t>(id - 1) & mask_];
  }
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t mask_ = 0;
  std::uint64_t count_ = 0;
  Span root_;
  bool has_root_ = false;
  std::string label_;
};

/// Owns every span log of a traced run and writes them out at the end.
class Tracer {
 public:
  SpanLog& new_log(std::string label,
                   std::size_t capacity = SpanLog::kWindowCapacity);
  /// Writes one JSON object per kept span (JSON Lines) to `path` and notes
  /// the count, or the failure, in `result`.
  void write(const std::string& path, Result& result) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---------------------------------------------------------------- windows

/// How a window instruments its ops: not at all (throughput), 1 op in
/// kSampleStride timed into a SampleRing (latency), or that op recorded as
/// a span (tracing).
enum class Mode { kPlain, kSampled, kTraced };

template <Mode M>
using ModeTag = std::integral_constant<Mode, M>;

/// What CrewWindows keeps for each rt worker: the counts it folds
/// into the pass after every window, and the instrument of the window.
struct alignas(64) Slot {
  std::uint64_t violations = 0;  // wrong responses
  std::uint64_t allocs = 0;      // heap allocations during measured ops
  SampleRing* ring = nullptr;    // sampled windows
  SpanLog* spans = nullptr;      // traced windows: this window's log
};

/// Runs a worker's op number `i` under mode M; returns what `op` returns.
template <Mode M, typename Op>
inline auto instrumented(std::uint64_t i, Slot& slot, std::uint32_t span,
                         Op&& op) {
  if constexpr (M != Mode::kPlain) {
    if ((i & (kSampleStride - 1)) == 0) {
      const std::int64_t t0 = now_ns();
      const auto r = op();
      const std::int64_t t1 = now_ns();
      if constexpr (M == Mode::kSampled) {
        slot.ring->push(t1 - t0);
      } else {
        slot.spans->record(span, SpanLog::kRoot, t0, t1);
      }
      return r;
    }
  }
  return op();
}

/// A worker's measured op loop under mode M: `drive` plus the slot's
/// allocation count and, traced, the window's root span.
template <Mode M, typename Op>
inline void drive_slot(Slot& slot, WorkerProgress& progress,
                       const std::atomic<bool>& stop, std::uint64_t quota,
                       Op&& op) {
  const std::uint64_t allocs0 = thread_heap_allocs();
  if constexpr (M == Mode::kTraced) slot.spans->open_root(kSpanWorker);
  drive(progress, stop, quota, op);
  if constexpr (M == Mode::kTraced) slot.spans->close_root();
  slot.allocs += thread_heap_allocs() - allocs0;
}

/// The windows of an rt workload: each is one crew run. Before a window the
/// runner readies each slot's instrument (a cleared sample ring, or a fresh
/// span log per worker); after it, it folds every slot's counts into the
/// pass and the merged samples into the window's figures.
class CrewWindows {
 public:
  /// `alt` is the mode of the pass's non-plain windows; `label` names the
  /// span logs of traced windows.
  CrewWindows(int workers, Mode alt, std::string label, Tracer* tracer);

  /// `body(pid, slot, progress, stop, quota)` is one worker.
  template <Mode M, typename Body>
  CrewOutcome run(const CrewConfig& config, Windows& windows, Pass& pass,
                  Body&& body) {
    for (std::size_t p = 0; p < slots_.size(); ++p) {
      if constexpr (M == Mode::kSampled) slots_[p].ring->clear();
      if constexpr (M == Mode::kTraced) {
        slots_[p].spans =
            &tracer_->new_log(label_ + ".worker" + std::to_string(p));
      }
    }
    const CrewOutcome out = run_crew(
        config, [&](int pid, WorkerProgress& progress,
                    const std::atomic<bool>& stop, std::uint64_t quota) {
          body(pid, slots_[static_cast<std::size_t>(pid)], progress, stop,
               quota);
        });
    merged_.clear();
    for (Slot& s : slots_) {
      pass.violations += s.violations;
      s.violations = 0;
      pass.allocs += s.allocs;
      s.allocs = 0;
      if constexpr (M == Mode::kSampled) s.ring->append_to(merged_);
    }
    windows.add(out, M == Mode::kSampled ? &merged_ : nullptr);
    return out;
  }

 private:
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<SampleRing>> rings_;
  std::vector<std::uint32_t> merged_;  // one window's samples, all workers
  std::string label_;
  Tracer* tracer_;
};

/// The measured time of an rt workload: window_count(seconds) windows,
/// plain ones (even) alternating with Alt ones (odd).
/// `window(ModeTag<M>{}, windows, pass)` runs one and returns false to end
/// the pass early.
template <Mode Alt, typename Window>
Pass alternate(double seconds, Window&& window) {
  Pass pass;
  const int n = window_count(seconds);
  for (int k = 0; k < n; ++k) {
    const bool more = k % 2 == 0
                          ? window(ModeTag<Mode::kPlain>{}, pass.plain, pass)
                          : window(ModeTag<Alt>{}, pass.alt, pass);
    if (!more) break;
  }
  return pass;
}

// ---------------------------------------------------------------- report

/// What a workload run counted besides its measured windows.
struct Tally {
  /// Which of a pass's windows the figures come from: ops_per_s is this
  /// quantile of the plain windows' rates, p50_ns / p99_ns the (1 − it)
  /// quantile of the sampled windows' percentiles. 0.5 takes the median
  /// window; 0.9 the least disturbed tenth (see explore.cpp).
  double window_quantile = 0.5;
  std::uint64_t warmup_stuck = 0;       // stuck ops during set-ups
  std::uint64_t warmup_violations = 0;  // wrong responses during set-ups
  std::uint64_t hi_mismatches = 0;
  double bytes_per_object = 0;
  double peak_rss_mb = 0;
  std::vector<double> setups;  // seconds per set-up (untraced runs)
};

/// Fills `attempted` and `failed`, adds the summary report line (`name`:
/// counts, then `details`) and the metrics of the run's mode: the
/// end-to-end ones untraced, the tracing overhead (1 − traced / plain rate,
/// each at the tally's window quantile) and workload.* counts traced. Returns the wrong responses of the whole run.
std::uint64_t report(const char* name, const RunArgs& args, const Pass& pass,
                     const Tally& tally, const std::string& details,
                     Result& result);

// ---------------------------------------------------------------- workloads

/// store_mixed's object: a 4 MiB bin bitmap (2^25 keys), larger than one
/// core's L2, over a fixed shard count, with a hot window of the 64 keys of
/// one packed word. One word never straddles a cache line, so the hot
/// window's layout does not depend on the seed or on where the allocator
/// put the shard.
inline constexpr std::uint32_t kStoreDomain = std::uint32_t{1} << 25;
inline constexpr std::uint32_t kStoreShards = 64;
inline constexpr std::uint32_t kStoreHot = 64;


Result run_counter_contended(const RunArgs& args);
Result run_counter_combining(const RunArgs& args);
Result run_store_mixed(const RunArgs& args);
Result run_explore_dpor(const RunArgs& args);
/// Per-layer rows (traced runs only); append metrics to `result`.
void run_layer_rows(Tracer& tracer, Result& result);
/// The sim/verify rows: one traced fixed-budget exploration (explore.cpp).
void run_explorer_row(Tracer& tracer, Result& result);

/// Watchdog positive control: a deliberately never-returning op must trip
/// the stall detection and be parked. Returns true iff it tripped.
bool watchdog_control_trips();

}  // namespace perfbench
