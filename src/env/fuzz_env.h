// FuzzEnv: RtEnv with seeded schedule perturbation at every Env primitive
// boundary — the real-thread forced-yield fuzzing backend.
//
// SimEnv steps the hardware atomics (rt/cells.h) at scheduler-granted
// points, but it is single-threaded by construction: cross-thread timing
// effects the step model cannot express (store buffering visible through
// the compiled code, preemption inside an algorithm's read-compute-write
// window, cache-line ping-pong reordering) are never exercised. FuzzEnv
// closes that gap from the other side: real threads run the SAME
// single-source algorithm bodies, and a per-thread seeded injector forces a
// scheduling perturbation — std::this_thread::yield() bursts or spin
// backoff — around each shared-memory primitive. On the small core counts
// CI offers, a yield at a primitive boundary is precisely what hands the
// OS-level scheduler a chance to interleave another thread into the window
// the simulator would explore as a step boundary, so seed sweeps reach
// interleavings plain stress loops rarely hit (tests/test_fuzz_rt.cpp
// demonstrates this with a positive-control broken object).
//
// Design: every FuzzEnv primitive delegates to the corresponding RtEnv
// primitive — same cell types, same atomic bodies, same eager frame-arena
// Op/Sub tasks, same execute-at-call discipline (detail::Done in env.h) —
// with YieldInjector::point() running immediately before and after the
// atomic access, all inside the primitive call itself. Algorithms instantiate unchanged; the injector is thread_local
// and costs one predictable branch when disarmed, so a disarmed FuzzEnv
// behaves exactly like RtEnv (modulo that branch).
//
// The injector is DETERMINISTIC per (seed, thread): the decision stream
// comes from util::Xoshiro256, so a failing (seed, workload) pair is
// re-runnable — though on real threads a replay is best-effort, which is
// why harnesses reproduce failures in the step model and persist them as
// ScheduleTrace literals instead (docs/TESTING.md).
#pragma once

#include <cstdint>
#include <thread>
#include <utility>

#include "env/rt_env.h"
#include "util/rng.h"

namespace hi::env {

/// How aggressively the injector perturbs each primitive boundary.
struct YieldPolicy {
  std::uint32_t permille = 300;   // perturbation probability per point, ‰
  std::uint32_t max_yields = 3;   // yield() burst length, 1..max
  std::uint32_t max_spins = 48;   // spin backoff length, 1..max
};

/// Shared release gate for stalled threads. A stalled thread is the
/// real-thread approximation of a crashed process: it parks at a primitive
/// boundary for the remainder of the measured run — but a pthread cannot
/// literally die mid-operation and still be joined, so it parks on this
/// gate and the harness releases it after the survivors finish (or after a
/// watchdog fires), letting every thread drain and join. Progress and HI
/// assertions run BEFORE release_all(), while the stalled threads are
/// indistinguishable from crashed ones.
struct StallGate {
  std::atomic<bool> release{false};
  std::atomic<int> stalled{0};  // threads currently parked at the gate

  void release_all() { release.store(true, std::memory_order_release); }
};

/// Per-thread seeded perturbation source. Harness threads arm() it with a
/// per-(iteration, thread) seed before driving operations and disarm() it
/// after; FuzzEnv primitives call point() unconditionally.
///
/// Stall injection (arm_stall): in addition to the yield/spin perturbation,
/// a thread may be armed to park on a StallGate at its `stall_after`-th
/// primitive boundary of the run — the seeded stalled-process adversary.
/// Which boundary that ordinal lands on follows the thread's own execution
/// path (retry loops included), so a seed sweep stalls threads at CAS
/// retries, between announce and install, mid-combining-scan, ...
class YieldInjector {
 public:
  static void arm(std::uint64_t seed, YieldPolicy policy = {}) {
    State& s = state();
    s.rng = util::Xoshiro256(seed);
    s.policy = policy;
    s.armed = true;
    s.points = 0;
    s.injected = 0;
    s.gate = nullptr;
    s.stall_after = 0;
    s.stall_done = false;
  }

  /// Park this thread on `gate` once it has passed `stall_after` further
  /// primitive boundaries (0 = park at the very next one). Call after
  /// arm(); cleared by arm()/disarm(). The park happens once per arm.
  static void arm_stall(StallGate* gate, std::uint64_t stall_after) {
    State& s = state();
    s.gate = gate;
    s.stall_after = s.points + stall_after;
    s.stall_done = false;
  }

  static void disarm() {
    State& s = state();
    s.armed = false;
    s.gate = nullptr;
  }

  /// Primitive boundaries seen since arm() on this thread.
  static std::uint64_t points() { return state().points; }
  /// Perturbations (yield bursts + spin backoffs) actually injected.
  static std::uint64_t injected() { return state().injected; }

  /// One perturbation point. Called by every FuzzEnv primitive immediately
  /// before and after its atomic access.
  static void point() {
    State& s = state();
    if (!s.armed) return;
    ++s.points;
    if (s.gate != nullptr && !s.stall_done && s.points > s.stall_after) {
      // Stall: park here until the harness opens the gate. From every other
      // thread's perspective this thread has crash-failed at this primitive
      // boundary; after release it resumes normally (drain-and-join phase,
      // excluded from assertions).
      s.stall_done = true;
      s.gate->stalled.fetch_add(1, std::memory_order_acq_rel);
      while (!s.gate->release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return;
    }
    if (s.rng.next_below(1000) >= s.policy.permille) return;
    ++s.injected;
    if (s.rng.chance(1, 2)) {
      const std::uint64_t bursts = 1 + s.rng.next_below(s.policy.max_yields);
      for (std::uint64_t i = 0; i < bursts; ++i) std::this_thread::yield();
    } else {
      const std::uint64_t spins = 1 + s.rng.next_below(s.policy.max_spins);
      for (std::uint64_t i = 0; i < spins; ++i) {
        // Empty asm keeps the busy-wait from being optimized away without
        // the deprecated `volatile` induction variable.
        asm volatile("");
      }
    }
  }

 private:
  struct State {
    util::Xoshiro256 rng{1};
    YieldPolicy policy;
    bool armed = false;
    std::uint64_t points = 0;
    std::uint64_t injected = 0;
    StallGate* gate = nullptr;       // non-null: stall armed for this run
    std::uint64_t stall_after = 0;   // park once points exceeds this
    bool stall_done = false;         // the one-shot park already happened
  };

  static State& state() {
    static thread_local State s;
    return s;
  }
};

/// RtEnv with YieldInjector::point() fencing every primitive. Same Ctx,
/// cell types, and task types as RtEnv, so any algo-layer body instantiates
/// over FuzzEnv unchanged and interoperates with RtEnv storage helpers.
struct FuzzEnv {
 private:
  /// Runs `make` — a thunk invoking one RtEnv primitive, which executes its
  /// atomic access eagerly and returns a Done awaiter — with the injector
  /// immediately before and after the access (delay the access / delay the
  /// next local step — together they cover both sides of every
  /// inter-primitive window, including the invoke and response edges).
  /// Everything executes synchronously inside the FuzzEnv primitive call
  /// while every argument reference is alive; only the result-carrying Done
  /// awaiter flows back through co_await (see detail::Done in env.h for why
  /// no argument capture may outlive the primitive call). Defined before
  /// the primitives: the auto return type must be deduced at their point of
  /// use.
  template <typename MakeFn>
  static auto fenced(MakeFn&& make) {
    YieldInjector::point();
    auto done = make();
    YieldInjector::point();
    return done;
  }

 public:
  using Ctx = RtEnv::Ctx;

  template <typename T>
  using Op = RtEnv::Op<T>;
  template <typename T>
  using Sub = RtEnv::Sub<T>;

  using BinArray = RtEnv::BinArray;
  using PackedBinArray = RtEnv::PackedBinArray;
  using Value = RtEnv::Value;
  using Word = RtEnv::Word;
  using CasCell = RtEnv::CasCell;
  using WordArray = RtEnv::WordArray;

  // ---- factories and observer-side peeks: no shared-memory step, no
  // perturbation — delegate verbatim ----

  static BinArray make_bin_array(Ctx ctx, const char* prefix,
                                 std::uint32_t count, std::uint32_t one_index) {
    return RtEnv::make_bin_array(ctx, prefix, count, one_index);
  }
  static BinArray make_bin_array_words(Ctx ctx, const char* prefix,
                                       std::uint32_t count,
                                       std::span<const std::uint64_t> words) {
    return RtEnv::make_bin_array_words(ctx, prefix, count, words);
  }
  static std::uint8_t peek_bit(const BinArray& array, std::uint32_t index) {
    return RtEnv::peek_bit(array, index);
  }
  static std::size_t bin_storage_bytes(const BinArray& array) {
    return RtEnv::bin_storage_bytes(array);
  }

  static PackedBinArray make_packed_bin_array(Ctx ctx, const char* prefix,
                                              std::uint32_t count,
                                              std::uint32_t one_index) {
    return RtEnv::make_packed_bin_array(ctx, prefix, count, one_index);
  }
  static PackedBinArray make_packed_bin_array_words(
      Ctx ctx, const char* prefix, std::uint32_t count,
      std::span<const std::uint64_t> words) {
    return RtEnv::make_packed_bin_array_words(ctx, prefix, count, words);
  }
  static std::uint32_t packed_bins(const PackedBinArray& array) {
    return RtEnv::packed_bins(array);
  }
  static std::uint32_t packed_words(const PackedBinArray& array) {
    return RtEnv::packed_words(array);
  }
  static std::uint64_t peek_packed_word(const PackedBinArray& array,
                                        std::uint32_t w) {
    return RtEnv::peek_packed_word(array, w);
  }
  static std::size_t packed_storage_bytes(const PackedBinArray& array) {
    return RtEnv::packed_storage_bytes(array);
  }

  static CasCell make_cas(Ctx ctx, const std::string& name, Value initial) {
    return RtEnv::make_cas(ctx, name, initial);
  }
  static Word peek_cas(const CasCell& cell) { return RtEnv::peek_cas(cell); }
  static bool cas_is_lock_free(const CasCell& cell) {
    return RtEnv::cas_is_lock_free(cell);
  }
  static void relax() noexcept { RtEnv::relax(); }
  /// Backoff shares RtEnv's process-wide policy (local computation only; no
  /// perturbation point — the injector fences shared-memory accesses, and
  /// backoff makes none).
  static void backoff(std::uint32_t attempt) noexcept {
    RtEnv::backoff(attempt);
  }

  static WordArray make_word_array(Ctx ctx, const char* prefix,
                                   std::uint32_t count, std::uint64_t initial) {
    return RtEnv::make_word_array(ctx, prefix, count, initial);
  }
  static std::uint64_t peek_word(const WordArray& array, std::uint32_t index) {
    return RtEnv::peek_word(array, index);
  }

  // ---- primitives: RtEnv's atomic bodies fenced by perturbation points ----

  static auto read_bit(BinArray& array, std::uint32_t index) {
    return fenced([&] { return RtEnv::read_bit(array, index); });
  }
  static auto write_bit(BinArray& array, std::uint32_t index,
                        std::uint8_t value) {
    return fenced([&] { return RtEnv::write_bit(array, index, value); });
  }

  static auto load_packed_word(PackedBinArray& array, std::uint32_t w) {
    return fenced([&] { return RtEnv::load_packed_word(array, w); });
  }
  static auto or_packed_word(PackedBinArray& array, std::uint32_t w,
                             std::uint64_t mask) {
    return fenced([&] { return RtEnv::or_packed_word(array, w, mask); });
  }
  static auto and_packed_word(PackedBinArray& array, std::uint32_t w,
                              std::uint64_t mask) {
    return fenced([&] { return RtEnv::and_packed_word(array, w, mask); });
  }

  static auto cas_read(CasCell& cell) {
    return fenced([&] { return RtEnv::cas_read(cell); });
  }
  static auto cas(CasCell& cell, const Word& expected, const Word& desired) {
    return fenced([&] { return RtEnv::cas(cell, expected, desired); });
  }
  static auto cas_write(CasCell& cell, const Word& desired) {
    return fenced([&] { return RtEnv::cas_write(cell, desired); });
  }

  static auto read_word(WordArray& array, std::uint32_t index) {
    return fenced([&] { return RtEnv::read_word(array, index); });
  }
  static auto write_word(WordArray& array, std::uint32_t index,
                         std::uint64_t value) {
    return fenced([&] { return RtEnv::write_word(array, index, value); });
  }
  static auto cas_word(WordArray& array, std::uint32_t index,
                       std::uint64_t expected, std::uint64_t desired) {
    return fenced(
        [&] { return RtEnv::cas_word(array, index, expected, desired); });
  }
};

static_assert(ExecutionEnv<FuzzEnv>);

}  // namespace hi::env
