// store_mixed: the sharded perfect-HI store (rt::RtShardedHiSet, default
// placement, fixed shard count) over a key domain whose bitmap (4 MiB) is
// larger than one core's L2. 3 workers, closed loop: 25% insert / 25%
// remove / 50% lookup on a window of adjacent hot keys, plus 1 op in 8 a
// cold lookup anywhere in the domain. Every op is one 8-byte packed-word
// atomic; lookups share words with writes.
//
// Checking: each hot key is written by exactly one worker (key offset mod
// 3), so that worker knows its keys' membership exactly: its lookups of
// them must agree, cold lookups outside the window must miss, the final
// membership must be the union of the workers' shadows, and the quiescent
// image must equal that of a fresh store built from snapshot_members.
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "rt/sharded_set_rt.h"

namespace perfbench {
namespace {

using Store = hi::rt::RtShardedHiSet;

constexpr int kWorkers = 3;
constexpr std::uint32_t kDomain = kStoreDomain;
constexpr std::uint32_t kShards = kStoreShards;
constexpr std::uint32_t kHot = kStoreHot;
constexpr std::size_t kOpsLen = std::size_t{1} << 16;  // per worker, cycled
constexpr std::uint64_t kWarmupOps = 500'000;  // per worker, per set-up
constexpr int kSetups = 9;
constexpr double kStallWindowS = 1.0;

enum Kind : std::uint8_t { kInsert, kRemove, kLookup };
enum Expect : std::uint8_t { kAny, kShadow, kAbsent };

struct StoreOp {
  std::uint32_t key = 0;
  Kind kind = kLookup;
  Expect expect = kAny;  // what a lookup must return
};

/// One worker's own state.
struct StoreWorker {
  const StoreOp* ops = nullptr;
  std::uint8_t* shadow = nullptr;  // kHot entries; this worker's keys only
  std::uint32_t base = 0;          // first hot key
};

template <Mode M>
void worker_loop(Store& set, const StoreWorker& w, Slot& slot,
                 WorkerProgress& progress, const std::atomic<bool>& stop,
                 std::uint64_t quota) {
  (void)set.lookup(w.base);  // builds the thread's frame arena
  drive_slot<M>(slot, progress, stop, quota, [&](std::uint64_t i) {
    const StoreOp& o = w.ops[i & (kOpsLen - 1)];
    const bool result = instrumented<M>(i, slot, kSpanShardedOp, [&] {
      switch (o.kind) {
        case kInsert:
          return set.insert(o.key);
        case kRemove:
          return set.remove(o.key);
        case kLookup:
          break;
      }
      return set.lookup(o.key);
    });
    switch (o.kind) {
      case kInsert:
        w.shadow[o.key - w.base] = 1;
        break;
      case kRemove:
        w.shadow[o.key - w.base] = 0;
        break;
      case kLookup:
        if (o.expect == kShadow) {
          slot.violations += result != (w.shadow[o.key - w.base] != 0) ? 1 : 0;
        } else if (o.expect == kAbsent) {
          slot.violations += result ? 1 : 0;
        }
        break;
    }
  });
}

/// HI check: the image equals that of a fresh store whose initial words are
/// the snapshot's members.
bool image_is_canonical(Store& set, const std::vector<std::uint32_t>& members) {
  std::vector<std::uint64_t> words((set.domain() + 63) / 64, 0);
  for (std::uint32_t k : members) {
    words[(k - 1) / 64] |= std::uint64_t{1} << ((k - 1) % 64);
  }
  const Store fresh(set.domain(), set.shard_count(),
                    hi::algo::ShardPlacement::kBlocked, words);
  return set.memory_image() == fresh.memory_image();
}

std::vector<std::uint32_t> members_of(Store& set) {
  std::vector<std::uint32_t> members;
  members.reserve(kHot);
  set.snapshot_members(members);
  return members;
}

/// One worker's view of its own hot keys, on lines of its own.
struct alignas(64) Shadow {
  std::uint8_t bits[kHot] = {};
};

struct Instance {
  std::unique_ptr<Store> set;
  std::unique_ptr<Shadow[]> shadows;  // one per worker
  bool stalled = false;
};

class StoreBench {
 public:
  explicit StoreBench(std::uint64_t seed) {
    SeedRng rng(seed);
    base_ = 1 + 64 * static_cast<std::uint32_t>(rng.below(kDomain / 64));
    for (std::uint32_t off = 0; off < kHot; ++off) {
      initial_.push_back(rng.below(2) == 1 ? 1 : 0);
    }
    for (int p = 0; p < kWorkers; ++p) {
      std::vector<StoreOp> ops(kOpsLen);
      for (StoreOp& o : ops) {
        if (rng.below(8) == 0) {
          o.key = 1 + static_cast<std::uint32_t>(rng.below(kDomain));
        } else {
          const std::uint64_t roll = rng.below(4);
          if (roll < 2) {
            o.key = base_ + static_cast<std::uint32_t>(rng.below(kHot));
          } else {
            // One of this worker's own keys: offset ≡ p (mod 3).
            o.key = base_ + static_cast<std::uint32_t>(
                                3 * rng.below(kHot / 3) +
                                static_cast<std::uint64_t>(p));
            o.kind = roll == 2 ? kInsert : kRemove;
          }
        }
        if (o.kind == kLookup) o.expect = expect_of(o.key, p);
      }
      ops_.push_back(std::move(ops));
    }
  }

  std::uint32_t base() const { return base_; }

  /// Construction plus seeding of the hot window plus warm-up.
  Instance setup(Result& result) {
    Instance inst = fresh();
    CrewConfig config;
    config.workers = kWorkers;
    config.quota = kWarmupOps;
    config.stall_window_s = kStallWindowS;
    CrewWindows crew(kWorkers, Mode::kPlain, "", nullptr);
    Pass warm;
    window<Mode::kPlain>(inst, crew, config, warm.plain, warm, result);
    warmup_.warmup_violations += warm.violations;
    warmup_.warmup_stuck += warm.plain.stuck;
    return inst;
  }

  /// Runs `seconds` of windows on one instance (`first`, or a fresh one),
  /// alternating plain and `Alt` windows, then appends the instance to
  /// `done` for the final audit.
  template <Mode Alt>
  Pass pass(double seconds, std::optional<Instance> first,
            std::vector<Instance>& done, Result& result, Tracer* tracer) {
    CrewWindows crew(kWorkers, Alt, "store", tracer);
    Instance inst = first.has_value() ? std::move(*first) : fresh();
    CrewConfig config;
    config.workers = kWorkers;
    config.seconds = seconds / window_count(seconds);
    config.stall_window_s = kStallWindowS;
    Pass pass = alternate<Alt>(
        seconds, [&](auto mode, Windows& windows, Pass& p) {
          window<decltype(mode)::value>(inst, crew, config, windows, p,
                                        result);
          return !inst.stalled;
        });
    done.push_back(std::move(inst));
    return pass;
  }

  /// Set-up counts, for the report.
  const Tally& warmup() const { return warmup_; }

  /// Final-membership and HI checks on a quiescent instance.
  void audit(Instance& inst, Result& result, std::uint64_t& hi_checks,
             std::uint64_t& hi_mismatches) {
    if (inst.stalled) {
      (void)inst.set.release();  // parked workers still point into it
      return;
    }
    const std::vector<std::uint32_t> members = members_of(*inst.set);
    if (members != expected_members(inst.shadows.get())) {
      result.fail_check("store membership differs from the workers' "
                        "shadows (" + std::to_string(members.size()) +
                        " members)");
    }
    ++hi_checks;
    if (!image_is_canonical(*inst.set, members)) {
      ++hi_mismatches;
      result.fail_check("store image differs from the canonical image of "
                        "its snapshot");
    }
  }

  /// Hot key base+off is a member iff its owner (off mod 3) says so.
  std::vector<std::uint32_t> expected_members(const Shadow* shadows) const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t off = 0; off < kHot; ++off) {
      if (shadows[off % kWorkers].bits[off] != 0) out.push_back(base_ + off);
    }
    return out;
  }

 private:
  Expect expect_of(std::uint32_t key, int pid) const {
    if (key < base_ || key >= base_ + kHot) return kAbsent;
    return (key - base_) % 3 == static_cast<std::uint32_t>(pid) ? kShadow
                                                                 : kAny;
  }

  Instance fresh() const {
    Instance inst;
    inst.set = std::make_unique<Store>(kDomain, kShards);
    inst.shadows = std::make_unique<Shadow[]>(kWorkers);
    for (std::uint32_t off = 0; off < kHot; ++off) {
      if (initial_[off] == 0) continue;
      (void)inst.set->insert(base_ + off);
      for (int p = 0; p < kWorkers; ++p) inst.shadows[p].bits[off] = 1;
    }
    return inst;
  }

  /// One crew run. After a stall the instance is not used again: its
  /// parked workers stay inside it, so the audit keeps it alive.
  template <Mode M>
  void window(Instance& inst, CrewWindows& crew, const CrewConfig& config,
              Windows& windows, Pass& pass, Result& result) {
    Store& set = *inst.set;
    const CrewOutcome out = crew.run<M>(
        config, windows, pass,
        [&](int pid, Slot& slot, WorkerProgress& progress,
            const std::atomic<bool>& stop, std::uint64_t quota) {
          const auto p = static_cast<std::size_t>(pid);
          const StoreWorker w{ops_[p].data(), inst.shadows[p].bits, base_};
          worker_loop<M>(set, w, slot, progress, stop, quota);
        });
    if (out.stalled()) {
      inst.stalled = true;
      result.notes.push_back("STALL in store_mixed after " +
                             std::to_string(out.total()) + " ops");
    }
  }

  std::uint32_t base_ = 1;
  std::vector<std::uint8_t> initial_;
  std::vector<std::vector<StoreOp>> ops_;
  Tally warmup_;
};

/// Positive controls on a small store: each check must trip.
void run_controls(Result& result) {
  Store set(4096, 4);
  for (std::uint32_t k : {3u, 64u, 65u, 4000u}) (void)set.insert(k);
  std::vector<std::uint32_t> members = members_of(set);
  if (!image_is_canonical(set, members)) {
    result.fail_check("control: HI image check rejects a canonical image");
  }
  members.push_back(77);
  if (image_is_canonical(set, members)) {
    result.fail_check("control: HI image check did not trip");
  }
  // Shadow check: a worker that believes key 3 absent must see a violation.
  std::vector<StoreOp> ops(kOpsLen);
  for (StoreOp& o : ops) o = StoreOp{3, kLookup, kShadow};
  std::vector<std::uint8_t> shadow(kHot, 0);
  Slot slot;
  WorkerProgress progress;
  std::atomic<bool> stop{false};
  worker_loop<Mode::kPlain>(set, StoreWorker{ops.data(), shadow.data(), 1},
                            slot, progress, stop, 4);
  if (slot.violations != 4) {
    result.fail_check("control: lookup-vs-shadow check did not trip");
  }
}

}  // namespace

Result run_store_mixed(const RunArgs& args) {
  Result result;
  StoreBench bench(args.seed);
  std::vector<Instance> instances;
  Pass pass;
  Tally tally;
  if (!args.trace) {
    std::optional<Instance> warmed;
    for (int i = 0; i < kSetups; ++i) {
      const std::int64_t t0 = now_ns();
      Instance inst = bench.setup(result);
      tally.setups.push_back(seconds_between(t0, now_ns()));
      if (i + 1 == kSetups && !inst.stalled) {
        warmed = std::move(inst);
      } else if (inst.stalled) {
        instances.push_back(std::move(inst));  // the audit keeps it alive
      }
    }
    pass = bench.pass<Mode::kSampled>(args.seconds, std::move(warmed),
                                      instances, result, nullptr);
  } else {
    Tracer tracer;
    pass = bench.pass<Mode::kTraced>(args.seconds, std::nullopt, instances,
                                     result, &tracer);
    tracer.write(args.trace_dir + "/store_mixed.jsonl", result);
  }
  tally.peak_rss_mb = peak_rss_mb();
  std::uint64_t hi_checks = 0;
  for (Instance& inst : instances) {
    bench.audit(inst, result, hi_checks, tally.hi_mismatches);
  }
  run_controls(result);

  tally.warmup_stuck = bench.warmup().warmup_stuck;
  tally.warmup_violations = bench.warmup().warmup_violations;
  tally.bytes_per_object =
      static_cast<double>(Store(kDomain, kShards).memory_bytes());
  std::ostringstream details;
  details << "hi_checks=" << hi_checks << " hot_window=[" << bench.base()
          << ", " << bench.base() + kHot - 1 << "]";
  const std::uint64_t violations =
      report("store_mixed", args, pass, tally, details.str(), result);
  if (violations != 0) {
    result.fail_check(std::to_string(violations) +
                      " lookups disagreed with the owner's shadow or hit a "
                      "never-inserted key");
  }
  return result;
}

}  // namespace perfbench
