// counter_contended: the paper's wait-free HI universal construction
// (Algorithm 5 over Algorithm 6) under contention — rt::RtUniversal over
// CounterSpec with its default settings, 3 workers, 3:1 inc:read through
// apply(), closed loop.
//
// counter_combining: the same object, mix and checks with the universal
// construction's flat-combining mode on (lock-free instead of wait-free,
// same quiescent image).
//
// The measured time is 0.5 s windows on one object, alternating plain and
// sampled (or traced) windows. When the watchdog finds a worker stuck, the
// window ends early, the object's memory image, context union and announce
// cells are dumped, the stuck op counts as failed, and the run goes on with
// a fresh object. A window's rate is its ops over its live time (start to
// the last observed progress).
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "rt/universal_rt.h"
#include "spec/counter_spec.h"

namespace perfbench {
namespace {

using hi::spec::CounterSpec;
using Universal = hi::rt::RtUniversal<CounterSpec>;

constexpr int kWorkers = 3;
// Responses travel in 24 bits on the rt backend, so the counter is capped
// there. A window does at most kWindowQuota ops per worker (4.5M incs) and
// an object is retired once it has counted kRetireAt incs, so no inc ever
// reaches the cap.
constexpr std::uint32_t kMax = 0xffffff;
constexpr std::uint64_t kWindowQuota = 2'000'000;
constexpr std::uint64_t kRetireAt = 8'000'000;
constexpr std::uint64_t kWarmupOps = 100'000;  // per worker, per set-up
constexpr int kSetups = 9;
constexpr std::size_t kMixLen = 4096;  // per-worker op pattern, cycled
constexpr double kStallWindowS = 1.0;

const CounterSpec& counter_spec() {
  static const CounterSpec spec(kMax, 0);
  return spec;
}

/// Per-worker response check: each response must be at least the floor
/// the worker's own history implies (an inc returning v means the next
/// response is ≥ v + 1; a read returning v means the next is ≥ v), so a
/// worker's reads never decrease and never fall below its own incs.
struct Floor {
  std::uint32_t floor = 0;
  /// Returns 1 if `response` violates the floor, else 0.
  std::uint64_t observe(bool inc, std::uint32_t response) {
    const std::uint64_t violation = response < floor ? 1 : 0;
    floor = inc ? response + 1 : response;
    return violation;
  }
};

/// One worker's own state. The floor lives as long as the object.
struct alignas(64) CounterWorker {
  const std::uint8_t* is_inc = nullptr;  // kMixLen entries
  Floor floor;
  std::uint64_t incs = 0;  // completed incs this window
};

template <Mode M>
void worker_loop(Universal& obj, int pid, CounterWorker& w, Slot& slot,
                 WorkerProgress& progress, const std::atomic<bool>& stop,
                 std::uint64_t quota) {
  // One read first: the thread's frame arena is built on its first op, so
  // allocation counting starts after it.
  (void)obj.apply(pid, CounterSpec::read());
  drive_slot<M>(slot, progress, stop, quota, [&](std::uint64_t i) {
    const bool inc = w.is_inc[i & (kMixLen - 1)] != 0;
    const CounterSpec::Op op = inc ? CounterSpec::inc() : CounterSpec::read();
    const std::uint32_t r = instrumented<M>(
        i, slot, kSpanUniversalApply, [&] { return obj.apply(pid, op); });
    slot.violations += w.floor.observe(inc, r);
    w.incs += inc ? 1 : 0;
  });
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The stall dump: memory image, context union and announce cells.
std::string dump(const Universal& obj) {
  std::ostringstream out;
  out << "image=[";
  const auto image = obj.memory_image();
  for (std::size_t i = 0; i < image.size(); ++i) {
    out << (i ? " " : "") << "{" << hex(image[i].value) << ","
        << hex(image[i].ctx) << "}";
  }
  out << "] context_union=" << hex(obj.context_union())
      << " announce_is_bottom=[";
  for (int p = 0; p < obj.num_processes(); ++p) {
    out << (p ? "," : "") << (obj.announce_is_bottom(p) ? 1 : 0);
  }
  out << "] head_state=" << obj.head_state_encoded();
  return out.str();
}

/// HI check: the image equals that of a fresh object whose initial state
/// is the same abstract state.
bool image_is_canonical(const Universal& obj, std::uint32_t state) {
  const CounterSpec at_state(kMax, state);
  const Universal fresh(at_state, obj.num_processes(), true,
                        obj.combining_enabled());
  return obj.memory_image() == fresh.memory_image();
}

/// One object and what it must hold at the end.
struct Episode {
  explicit Episode(bool combine)
      : obj(std::make_unique<Universal>(counter_spec(), kWorkers, true,
                                        combine)) {}
  std::unique_ptr<Universal> obj;
  std::uint64_t incs = 0;          // completed incs over its life
  std::uint64_t pending_incs = 0;  // incs stuck in flight (stall only)
  bool stalled = false;
};

class CounterBench {
 public:
  CounterBench(std::uint64_t seed, bool combine) : combine_(combine) {
    SeedRng rng(seed);
    // Exactly 3:1 per cycle in a seeded order, and exactly 3:1 among the ops
    // a sampled window times (every kSampleStride-th), so the timed mix, and
    // with it where p50 falls, does not depend on the seed.
    const auto shuffled_3_to_1 = [&rng](std::size_t n) {
      std::vector<std::uint8_t> kinds(n, 1);
      for (std::size_t i = 0; i < n / 4; ++i) kinds[i] = 0;
      for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(kinds[i], kinds[rng.below(i + 1)]);
      }
      return kinds;
    };
    constexpr std::size_t kTimed = kMixLen / kSampleStride;
    for (int p = 0; p < kWorkers; ++p) {
      const std::vector<std::uint8_t> timed = shuffled_3_to_1(kTimed);
      const std::vector<std::uint8_t> rest = shuffled_3_to_1(kMixLen - kTimed);
      std::vector<std::uint8_t> mix(kMixLen);
      for (std::size_t i = 0; i < kMixLen; ++i) {
        const std::size_t slot = i / kSampleStride;
        mix[i] = i % kSampleStride == 0 ? timed[slot] : rest[i - slot - 1];
      }
      mixes_.push_back(std::move(mix));
    }
    workers_.resize(kWorkers);
    for (int p = 0; p < kWorkers; ++p) {
      workers_[static_cast<std::size_t>(p)].is_inc =
          mixes_[static_cast<std::size_t>(p)].data();
    }
  }

  /// Construction plus warm-up; returns the warmed object.
  Episode setup(std::vector<Episode>& done, Result& result) {
    Episode ep(combine_);
    // A fresh object starts at 0: the floors of the previous one do not
    // apply to it.
    for (CounterWorker& w : workers_) w.floor = Floor{};
    CrewConfig config;
    config.workers = kWorkers;
    config.quota = kWarmupOps;
    config.stall_window_s = kStallWindowS;
    CrewWindows crew(kWorkers, Mode::kPlain, "", nullptr);
    Pass warm;
    window<Mode::kPlain>(ep, crew, config, warm.plain, warm, done, result);
    warmup_.warmup_violations += warm.violations;
    warmup_.warmup_stuck += warm.plain.stuck;
    return ep;
  }

  /// Runs `seconds` of windows, alternating plain and `Alt` windows,
  /// starting on `first` if given. Every object the pass finishes with is
  /// appended to `done` for the final audit.
  template <Mode Alt>
  Pass pass(double seconds, std::optional<Episode> first,
            std::vector<Episode>& done, Result& result, Tracer* tracer) {
    CrewWindows crew(kWorkers, Alt, "counter", tracer);
    Episode ep = first.has_value() ? std::move(*first) : Episode(combine_);
    CrewConfig config;
    config.workers = kWorkers;
    config.seconds = seconds / window_count(seconds);
    config.quota = kWindowQuota;
    config.stall_window_s = kStallWindowS;
    Pass pass = alternate<Alt>(
        seconds, [&](auto mode, Windows& windows, Pass& p) {
          if (ep.incs >= kRetireAt) retire(ep, done);
          window<decltype(mode)::value>(ep, crew, config, windows, p, done,
                                        result);
          return true;
        });
    done.push_back(std::move(ep));
    return pass;
  }

  /// Set-up counts, for the report.
  const Tally& warmup() const { return warmup_; }

 private:
  /// Hands `ep` to the audit and starts a fresh object (and fresh floors).
  void retire(Episode& ep, std::vector<Episode>& done) {
    done.push_back(std::move(ep));
    ep = Episode(combine_);
    for (CounterWorker& w : workers_) w.floor = Floor{};
  }

  /// One crew run on `ep.obj`. A stalled window's stuck workers stay
  /// parked inside the object forever; the next window's threads use the
  /// same worker state, which the parked ones never touch again.
  template <Mode M>
  void window(Episode& ep, CrewWindows& crew, const CrewConfig& config,
              Windows& windows, Pass& pass, std::vector<Episode>& done,
              Result& result) {
    for (CounterWorker& w : workers_) w.incs = 0;
    Universal& obj = *ep.obj;
    const CrewOutcome out = crew.run<M>(
        config, windows, pass,
        [&](int pid, Slot& slot, WorkerProgress& progress,
            const std::atomic<bool>& stop, std::uint64_t quota) {
          worker_loop<M>(obj, pid, workers_[static_cast<std::size_t>(pid)],
                         slot, progress, stop, quota);
        });
    for (const CounterWorker& w : workers_) ep.incs += w.incs;
    if (!out.stalled()) return;
    for (int p : out.stuck) {
      const std::uint64_t i = out.done[static_cast<std::size_t>(p)];
      if (mixes_[static_cast<std::size_t>(p)][i & (kMixLen - 1)] != 0) {
        ++ep.pending_incs;
      }
    }
    std::ostringstream note;
    note << "STALL after " << out.total() << " ops in " << out.live_s
         << " s of the window; stuck workers=" << out.stuck.size() << " "
         << dump(obj);
    result.notes.push_back(note.str());
    ep.stalled = true;
    retire(ep, done);
  }

  bool combine_;
  std::vector<std::vector<std::uint8_t>> mixes_;
  std::vector<CounterWorker> workers_;
  Tally warmup_;
};

struct Audit {
  std::uint64_t hi_checks = 0;
  std::uint64_t hi_mismatches = 0;
  std::uint64_t state_mismatches = 0;
};

/// Final-state and HI checks over every finished object. Stalled objects
/// are leaked on purpose: their parked workers still point into them.
Audit audit(std::vector<Episode>& episodes, Result& result) {
  Audit a;
  for (Episode& ep : episodes) {
    const std::uint64_t head = ep.obj->head_state_encoded();
    const std::uint64_t lo = ep.incs;
    const std::uint64_t hi = lo + ep.pending_incs;
    if (head < lo || head > hi) {
      ++a.state_mismatches;
      result.fail_check("counter head state " + std::to_string(head) +
                        " outside [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "] implied by completed incs");
    }
    if (ep.stalled) {
      (void)ep.obj.release();
      continue;
    }
    ++a.hi_checks;
    if (!image_is_canonical(*ep.obj, static_cast<std::uint32_t>(head))) {
      ++a.hi_mismatches;
      result.fail_check("quiescent image differs from the canonical image "
                        "of state " + std::to_string(head) + ": " +
                        dump(*ep.obj));
    }
  }
  return a;
}

/// Positive controls: each check must trip on a deliberately wrong input.
void run_controls(bool combine, Result& result) {
  // Final-state check: claiming 4 completed incs after 5 must not pass.
  std::vector<Episode> eps;
  eps.emplace_back(combine);
  for (int i = 0; i < 5; ++i) (void)eps[0].obj->apply(1, CounterSpec::inc());
  eps[0].incs = 4;
  Result discarded;
  if (audit(eps, discarded).state_mismatches != 1) {
    result.fail_check("control: final-state check did not trip");
  }
  // HI check: the image of state 5 is not the canonical image of state 6.
  if (image_is_canonical(*eps[0].obj, 6) ||
      !image_is_canonical(*eps[0].obj, 5)) {
    result.fail_check("control: HI image check did not trip");
  }
  // Response floor: a read that decreases must count as a violation.
  Floor f;
  if (f.observe(false, 7) + f.observe(false, 6) != 1) {
    result.fail_check("control: read-monotonicity check did not trip");
  }
}

Result run_counter(const RunArgs& args, const std::string& name,
                   bool combine) {
  Result result;
  CounterBench bench(args.seed, combine);
  std::vector<Episode> episodes;
  Pass pass;
  Tally tally;
  if (!args.trace) {
    std::optional<Episode> warmed;
    for (int i = 0; i < kSetups; ++i) {
      const std::int64_t t0 = now_ns();
      Episode ep = bench.setup(episodes, result);
      tally.setups.push_back(seconds_between(t0, now_ns()));
      if (i + 1 == kSetups) {
        warmed = std::move(ep);
      } else {
        episodes.push_back(std::move(ep));
      }
    }
    pass = bench.pass<Mode::kSampled>(args.seconds, std::move(warmed),
                                      episodes, result, nullptr);
  } else {
    Tracer tracer;
    pass = bench.pass<Mode::kTraced>(args.seconds, std::nullopt, episodes,
                                     result, &tracer);
    tracer.write(args.trace_dir + "/" + name + ".jsonl", result);
  }
  tally.peak_rss_mb = peak_rss_mb();
  const Audit a = audit(episodes, result);
  run_controls(combine, result);

  tally.warmup_stuck = bench.warmup().warmup_stuck;
  tally.warmup_violations = bench.warmup().warmup_violations;
  tally.hi_mismatches = a.hi_mismatches;
  tally.bytes_per_object = static_cast<double>(
      Universal(counter_spec(), kWorkers, true, combine).memory_bytes());
  const std::uint64_t violations =
      report(name.c_str(), args, pass, tally,
             "hi_checks=" + std::to_string(a.hi_checks), result);
  if (violations != 0) {
    result.fail_check(std::to_string(violations) +
                      " responses below the worker's own floor");
  }
  return result;
}

}  // namespace

Result run_counter_contended(const RunArgs& args) {
  return run_counter(args, "counter_contended", false);
}

Result run_counter_combining(const RunArgs& args) {
  return run_counter(args, "counter_combining", true);
}

}  // namespace perfbench
