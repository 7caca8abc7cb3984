// Harness implementation: statistics, probes, the crew watchdog with its
// thread parking, and the span writer. This translation unit also replaces
// the global allocation functions with counting versions (allocs_per_op);
// no other file of the benchmark may define them.
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "common.h"

// ------------------------------------------------------ counting allocator

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t bytes) {
  ++t_allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* counted_aligned_alloc(std::size_t bytes, std::align_val_t align) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((bytes == 0 ? 1 : bytes) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_aligned_alloc(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_aligned_alloc(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t thread_heap_allocs() { return t_allocs; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

// ---------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double percentile(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void SampleRing::append_to(std::vector<std::uint32_t>& out) const {
  const std::uint64_t n = std::min(count_, kCapacity);
  out.insert(out.end(), buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(n));
}

int window_count(double seconds) {
  const int pairs = static_cast<int>(seconds / (2 * kWindowS) + 0.5);
  return 2 * (pairs < 2 ? 2 : pairs);
}

void Windows::add(std::uint64_t window_ops, double live_s,
                  std::size_t stuck_ops,
                  std::vector<std::uint32_t>* window_samples) {
  ops += window_ops;
  stuck += stuck_ops;
  stalls += stuck_ops > 0 ? 1 : 0;
  // A window cut short by a stall still yields a rate if it ran long
  // enough for one to mean something.
  if (live_s >= 0.1 * kWindowS) {
    rates.push_back(static_cast<double>(window_ops) / live_s);
  }
  if (window_samples != nullptr && window_samples->size() >= 1000) {
    samples += window_samples->size();
    p50.push_back(percentile(*window_samples, 0.50));
    p99.push_back(percentile(*window_samples, 0.99));
  }
}

// ---------------------------------------------------------------- crew

namespace {

std::atomic<int> g_parked{0};

extern "C" void park_handler(int) {
  // Release: what the parked thread wrote before the signal is visible to
  // the watchdog once it sees the count.
  g_parked.fetch_add(1, std::memory_order_release);
  for (;;) pause();
}

void install_park_handler() {
  static const bool installed = [] {
    struct sigaction action {};
    action.sa_handler = park_handler;
    sigemptyset(&action.sa_mask);
    sigaction(SIGUSR1, &action, nullptr);
    return true;
  }();
  (void)installed;
}

/// Parked threads: never joined, never destroyed (the process ends through
/// std::_Exit), hence a deliberately leaked container.
std::vector<std::thread>& parked_threads() {
  static auto* threads = new std::vector<std::thread>();
  return *threads;
}

/// State the workers reference. Leaked when a worker is parked, because a
/// parked thread's frames still point into it.
struct CrewShared {
  std::atomic<bool> stop{false};
  std::unique_ptr<WorkerProgress[]> progress;
};

}  // namespace

std::uint64_t CrewOutcome::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t d : done) sum += d;
  return sum;
}

CrewOutcome run_crew(const CrewConfig& config, const CrewBody& body) {
  install_park_handler();
  const int n = config.workers;
  auto* shared = new CrewShared();
  shared->progress = std::make_unique<WorkerProgress[]>(
      static_cast<std::size_t>(n));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  const std::int64_t t0 = now_ns();
  for (int p = 0; p < n; ++p) {
    threads.emplace_back([shared, &body, p, quota = config.quota] {
      WorkerProgress& progress = shared->progress[static_cast<std::size_t>(p)];
      body(p, progress, shared->stop, quota);
      progress.exited.store(true, std::memory_order_release);
    });
  }

  const auto window = static_cast<std::int64_t>(config.stall_window_s * 1e9);
  const std::int64_t deadline =
      config.seconds > 0 ? t0 + static_cast<std::int64_t>(config.seconds * 1e9)
                         : INT64_MAX;
  std::vector<std::uint64_t> last(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> changed(static_cast<std::size_t>(n), t0);
  std::vector<bool> stuck(static_cast<std::size_t>(n), false);
  std::int64_t last_any = t0;
  std::int64_t stop_at = -1;
  bool stall = false;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::int64_t now = now_ns();
    int running = 0;
    for (int p = 0; p < n; ++p) {
      const auto i = static_cast<std::size_t>(p);
      const std::uint64_t d =
          shared->progress[i].done.load(std::memory_order_relaxed);
      if (d != last[i]) {
        last[i] = d;
        changed[i] = now;
        last_any = now;
      }
      if (shared->progress[i].exited.load(std::memory_order_acquire) ||
          stuck[i]) {
        continue;
      }
      if (now - changed[i] > window) {
        stuck[i] = true;
        stall = true;
        continue;
      }
      ++running;
    }
    if (stop_at < 0 && (stall || now >= deadline || running == 0)) {
      shared->stop.store(true, std::memory_order_relaxed);
      stop_at = now;
    }
    if (running == 0) break;
  }

  CrewOutcome outcome;
  outcome.live_s = seconds_between(t0, stall ? last_any : stop_at);
  for (int p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    outcome.done.push_back(
        shared->progress[i].done.load(std::memory_order_relaxed));
    if (stuck[i]) outcome.stuck.push_back(p);
  }
  if (stall) {
    const int target =
        g_parked.load(std::memory_order_relaxed) +
        static_cast<int>(outcome.stuck.size());
    for (int p : outcome.stuck) {
      pthread_kill(threads[static_cast<std::size_t>(p)].native_handle(),
                   SIGUSR1);
    }
    const std::int64_t give_up = now_ns() + 2'000'000'000;
    while (g_parked.load(std::memory_order_acquire) < target &&
           now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int p : outcome.stuck) {
      parked_threads().push_back(
          std::move(threads[static_cast<std::size_t>(p)]));
    }
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (!stall) delete shared;
  return outcome;
}

bool watchdog_control_trips() {
  // Worker 0 makes progress; worker 1's op never returns. The watchdog must
  // name worker 1, and only worker 1.
  CrewConfig config;
  config.workers = 2;
  config.seconds = 0.3;
  config.stall_window_s = 0.1;
  const CrewOutcome outcome = run_crew(
      config, [](int pid, WorkerProgress& progress,
                 const std::atomic<bool>& stop, std::uint64_t quota) {
        drive(progress, stop, quota, [pid](std::uint64_t) {
          if (pid == 1) {
            for (;;) asm volatile("");
          }
        });
      });
  return outcome.stuck == std::vector<int>{1} && outcome.done[0] > 0;
}

// ---------------------------------------------------------------- tracing

const char* span_name(std::uint32_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "bench.worker",   "rt.universal.apply",  "rt.sharded_set.op",
      "sim.explore",    "sim.on_complete",     "verify.check_linearizable",
      "bench.row",
  };
  return name < kSpanNameCount ? kNames[name] : "?";
}

SpanLog::SpanLog(std::size_t capacity)
    : spans_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
      mask_(spans_.size() - 1) {}

SpanLog& Tracer::new_log(std::string label, std::size_t capacity) {
  logs_.push_back(std::make_unique<SpanLog>(capacity));
  logs_.back()->set_label(std::move(label));
  return *logs_.back();
}

void Tracer::write(const std::string& path, Result& result) const {
  std::ofstream out(path);
  if (!out) {
    result.notes.push_back("trace: cannot write " + path);
    return;
  }
  std::int64_t origin = INT64_MAX;
  for (const auto& log : logs_) {
    if (const Span* root = log->root()) origin = std::min(origin, root->start_ns);
    for (std::int64_t id = log->first_kept();
         id <= static_cast<std::int64_t>(log->recorded()); ++id) {
      origin = std::min(origin, log->span(id).start_ns);
    }
  }
  std::uint64_t written = 0;
  std::uint64_t overwritten = 0;
  for (std::size_t index = 0; index < logs_.size(); ++index) {
    const SpanLog& log = *logs_[index];
    const auto emit = [&](std::int64_t id, const Span& s) {
      out << "{\"log\":" << index << ",\"label\":\"" << log.label()
          << "\",\"id\":" << id << ",\"name\":\"" << span_name(s.name)
          << "\",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start_ns - origin)
          << ",\"end_ns\":" << (s.end_ns - origin) << "}\n";
      ++written;
    };
    if (const Span* root = log.root()) emit(SpanLog::kRoot, *root);
    const std::int64_t first = log.first_kept();
    overwritten += static_cast<std::uint64_t>(first - 1);
    for (std::int64_t id = first;
         id <= static_cast<std::int64_t>(log.recorded()); ++id) {
      const Span& s = log.span(id);
      // A span whose parent was overwritten is left out with it.
      if (s.parent > SpanLog::kRoot && s.parent < first) {
        ++overwritten;
        continue;
      }
      emit(id, s);
    }
  }
  std::ostringstream note;
  note << "trace: " << written << " spans of " << logs_.size()
       << " logs written to " << path << " (" << overwritten
       << " overwritten: a traced window keeps its latest "
       << SpanLog::kWindowCapacity << " per thread)";
  result.notes.push_back(note.str());
}

CrewWindows::CrewWindows(int workers, Mode alt, std::string label,
                         Tracer* tracer)
    : slots_(static_cast<std::size_t>(workers)),
      label_(std::move(label)),
      tracer_(tracer) {
  if (alt != Mode::kSampled) return;
  for (Slot& s : slots_) {
    rings_.push_back(std::make_unique<SampleRing>());
    s.ring = rings_.back().get();
  }
  // Allocated and touched once, so its pages do not vary with throughput.
  merged_.assign(static_cast<std::size_t>(workers) * SampleRing::kCapacity, 0);
  merged_.clear();
}

// ---------------------------------------------------------------- report

std::uint64_t report(const char* name, const RunArgs& args, const Pass& pass,
                     const Tally& tally, const std::string& details,
                     Result& result) {
  const std::uint64_t ops = pass.plain.ops + pass.alt.ops;
  const std::uint64_t stuck =
      tally.warmup_stuck + pass.plain.stuck + pass.alt.stuck;
  const std::uint64_t violations = tally.warmup_violations + pass.violations;
  const int stalls = pass.plain.stalls + pass.alt.stalls;
  const double q = tally.window_quantile;
  result.attempted = ops + stuck;
  result.failed = stuck + violations;
  const double failed_share = static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted);
  const double allocs_per_op =
      static_cast<double>(pass.allocs) / static_cast<double>(ops);

  std::ostringstream note;
  note << name << ": ops=" << ops << " stalls=" << stalls
       << " stuck_ops=" << stuck << " wrong_responses=" << violations
       << " failed_op_share=" << failed_share
       << " hi_image_mismatches=" << tally.hi_mismatches
       << " allocs_per_op=" << allocs_per_op << " " << details;
  result.notes.push_back(note.str());

  if (!args.trace) {
    result.notes.push_back(
        std::string(name) + ": latency samples=" +
        std::to_string(pass.alt.samples) + " over " +
        std::to_string(pass.alt.p50.size()) + " sampled windows");
    result.add("ops_per_s", quantile(pass.plain.rates, q), "1/s");
    result.add("p50_ns", quantile(pass.alt.p50, 1 - q), "ns");
    result.add("p99_ns", quantile(pass.alt.p99, 1 - q), "ns");
    result.add("bytes_per_object", tally.bytes_per_object, "B");
    result.add("peak_rss_mb", tally.peak_rss_mb, "MB");
    result.add("setup_s", median(tally.setups), "s");
  } else {
    result.add("bench.trace_overhead_share",
               1.0 - quantile(pass.alt.rates, q) / quantile(pass.plain.rates, q),
               "share");
    result.add("workload.allocs_per_op", allocs_per_op, "count");
    result.add("workload.failed_op_share", failed_share, "share");
    result.add("workload.hi_image_mismatches",
               static_cast<double>(tally.hi_mismatches), "count");
    result.add("workload.stalls", stalls, "count");
  }
  return violations;
}

}  // namespace perfbench
