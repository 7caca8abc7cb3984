// Allocation discipline of the RtEnv hot paths (docs/ENV.md "frame arena",
// docs/PERF.md "allocs_per_op").
//
// Two layers of coverage:
//   * FrameArena unit tests — bucket recycling, oversize pass-through,
//     drain, and the bookkeeping invariants the churn test leans on;
//   * steady-state contracts — after a short warmup, every rt object
//     performs EXACTLY ZERO heap allocations per operation (the probe
//     below replaces global operator new for this binary, so the counters
//     see every allocation including the arena's own slab minting), plus a
//     multi-thread churn test asserting the per-thread arenas neither leak
//     slabs nor double-park them; under TSan (this file carries the rt
//     ctest label) the same test doubles as a race check on the
//     thread-locality of the arena.
#include "util/alloc_probe.h"  // FIRST: replaces global operator new/delete

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "algo/hi_set.h"
#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/wait_free_sim.h"
#include "core/hi_register_lockfree.h"
#include "env/rt_env.h"
#include "rt/baselines_rt.h"
#include "rt/rllsc_rt.h"
#include "rt/sharded_set_rt.h"
#include "rt/universal_rt.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"

namespace hi {
namespace {

// ---- FrameArena unit tests (direct allocate/deallocate, no coroutines) ----

TEST(FrameArena, PrewarmedBucketsNeverTouchTheHeap) {
  // A fresh thread gets a fresh arena — the main thread's arena may have
  // been drained or churned by other tests (order independence).
  std::atomic<int> violations{0};
  std::thread probe([&violations] {
    env::FrameArena& arena = env::FrameArena::local();
    const auto before = arena.stats();
    // Construction parked kPrewarmDepth slabs in every prewarmed bucket,
    // so even the FIRST allocation of a prewarmed size is a reuse hit.
    const util::AllocTally tally;
    void* slab = arena.allocate(256);
    if (slab == nullptr) ++violations;
    arena.deallocate(slab, 256);
    if (tally.allocs() != 0) ++violations;
    const auto after = arena.stats();
    if (after.fresh_slabs != before.fresh_slabs) ++violations;
    if (after.reuse_hits != before.reuse_hits + 1) ++violations;
  });
  probe.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(FrameArena, RecyclesSameBucket) {
  env::FrameArena& arena = env::FrameArena::local();
  const auto before = arena.stats();

  // 2048 bytes lands beyond the prewarmed buckets: the first allocation
  // mints a fresh slab, and a same-bucket re-request must pop it back.
  void* first = arena.allocate(2048);
  ASSERT_NE(first, nullptr);
  arena.deallocate(first, 2048);
  void* second = arena.allocate(2000);  // same bucket: (1984, 2048]
  EXPECT_EQ(second, first);
  arena.deallocate(second, 2000);

  const auto after = arena.stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_EQ(after.fresh_slabs, before.fresh_slabs + 1);
}

TEST(FrameArena, DistinctBucketsDoNotAlias) {
  env::FrameArena& arena = env::FrameArena::local();
  void* small = arena.allocate(64);
  void* large = arena.allocate(1024);
  EXPECT_NE(small, large);
  arena.deallocate(small, 64);
  // A 1024-byte request must not be served from the 64-byte bucket.
  void* again = arena.allocate(1024);
  EXPECT_NE(again, small);
  arena.deallocate(large, 1024);
  arena.deallocate(again, 1024);
}

TEST(FrameArena, OversizePassesThrough) {
  env::FrameArena& arena = env::FrameArena::local();
  const auto before = arena.stats();
  constexpr std::size_t kBig = env::FrameArena::kMaxCachedBytes + 1;

  const util::AllocTally tally;
  void* big = arena.allocate(kBig);
  ASSERT_NE(big, nullptr);
  arena.deallocate(big, kBig);
  EXPECT_EQ(tally.allocs(), 1u);  // went to the heap...
  EXPECT_EQ(tally.frees(), 1u);   // ...and straight back

  const auto after = arena.stats();
  EXPECT_EQ(after.oversize, before.oversize + 1);
  EXPECT_EQ(after.cached, before.cached);  // never parked
  EXPECT_EQ(after.outstanding, before.outstanding);
}

TEST(FrameArena, DrainReleasesEveryCachedSlab) {
  env::FrameArena& arena = env::FrameArena::local();
  for (const std::size_t bytes : {96u, 320u, 1500u}) {
    void* slab = arena.allocate(bytes);
    arena.deallocate(slab, bytes);
  }
  EXPECT_GT(arena.stats().cached, 0u);
  arena.drain();
  EXPECT_EQ(arena.stats().cached, 0u);
  // Post-drain allocation mints fresh slabs again (the arena stays usable).
  void* slab = arena.allocate(96);
  ASSERT_NE(slab, nullptr);
  arena.deallocate(slab, 96);
}

// ---- Steady-state zero-allocation contracts, one per rt object ----

/// Runs `op` warmup times untimed (minting every frame slab the workload
/// needs), then returns the calling thread's heap-allocation count across
/// `ops` further calls. The contract under test: exactly zero.
template <typename Fn>
std::uint64_t steady_state_allocs(Fn op, int warmup = 256, int ops = 2048) {
  for (int i = 0; i < warmup; ++i) op(i);
  const util::AllocTally tally;
  for (int i = 0; i < ops; ++i) op(warmup + i);
  return tally.allocs();
}

TEST(RtAllocSteadyState, VidyasankarRegister) {
  algo::VidyasankarAlgPacked<env::RtEnv> reg({}, 16, 1);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              (void)reg.write(static_cast<std::uint32_t>(i % 16) + 1).get();
              (void)reg.read().get();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegister) {
  algo::LockFreeHiAlgPacked<env::RtEnv> reg({}, 16, 1);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              (void)reg.write(static_cast<std::uint32_t>(i % 16) + 1).get();
              // Solo: the first TryRead hits.
              (void)reg.read_bounded(/*max_attempts=*/4).get();
            }));
}

TEST(RtAllocSteadyState, WaitFreeHiRegister) {
  algo::WaitFreeHiAlgPacked<env::RtEnv> reg({}, 16, 1);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              (void)reg.write(static_cast<std::uint32_t>(i % 16) + 1).get();
              (void)reg.read().get();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegisterPackedLargeK) {
  // The packed large-K hot path (16-word scans + masked clears, plus the
  // scan Sub frames the word-scan library adds) must stay allocation-free:
  // the new bench rows inherit the allocs_per_op == 0 gate from this
  // contract.
  algo::LockFreeHiAlgPacked<env::RtEnv> reg({}, 1024, 1);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              (void)reg.write(static_cast<std::uint32_t>(i % 1024) + 1).get();
              (void)reg.read_bounded(/*max_attempts=*/4).get();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegisterPaddedLayout) {
  // The padded alias (kept for the layout-comparison bench rows) shares
  // the contract.
  algo::LockFreeHiAlgPadded<env::RtEnv> reg({}, 64, 1);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              (void)reg.write(static_cast<std::uint32_t>(i % 64) + 1).get();
              (void)reg.read_bounded(/*max_attempts=*/4).get();
            }));
}

TEST(RtAllocSteadyState, MaxRegister) {
  algo::HiMaxRegisterAlgPacked<env::RtEnv> reg({}, 64, 1, /*writer_pid=*/0,
                                               /*reader_pid=*/1);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              // Ramp once, then absorbed writes: both paths must be free.
              (void)reg.write_max(0, static_cast<std::uint32_t>(i % 64) + 1)
                  .get();
            }));
  algo::HiMaxRegisterAlgPacked<env::RtEnv> reader_side({}, 64, 1,
                                                       /*writer_pid=*/0,
                                                       /*reader_pid=*/0);
  EXPECT_EQ(0u, steady_state_allocs(
                    [&](int) { (void)reader_side.read_max(0).get(); }));
}

TEST(RtAllocSteadyState, HiSet) {
  algo::HiSetAlgPacked<env::RtEnv> set({}, 64, 0);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              const auto v = static_cast<std::uint32_t>(i % 64) + 1;
              (void)set.insert(v).get();
              (void)set.lookup(v).get();
              (void)set.remove(v).get();
            }));
}

TEST(RtAllocSteadyState, WaitFreeSimHiRegister) {
  // fast_limit = 1: solo attempts never fail, so every read stays on the
  // fast path. fast_limit = 0: every read announces, enqueues and helps
  // itself — the slow path's Sub chain recycles through the arena too.
  for (const std::uint32_t fast_limit : {1u, 0u}) {
    algo::WaitFreeSimHiAlgPacked<env::RtEnv> reg({}, 16, 1,
                                                 /*num_processes=*/2,
                                                 fast_limit);
    EXPECT_EQ(0u, steady_state_allocs([&](int i) {
                (void)reg.write(0, static_cast<std::uint32_t>(i % 16) + 1)
                    .get();
                (void)reg.read(1).get();
              }))
        << "fast_limit " << fast_limit;
    EXPECT_EQ(reg.slow_path_entries(),
              fast_limit == 0 ? reg.total_ops() / 2 : 0u)
        << "fast_limit " << fast_limit;
  }
}

TEST(RtAllocSteadyState, ShardedHiSet) {
  // The sharded facade forwards the shard's single coroutine frame — no
  // wrapper frame, no per-op routing state — so a large multi-word store
  // keeps the same zero-allocation contract as the one-word set. 1M keys
  // over 16 striped shards: every op crosses the facade into a multi-word
  // shard (62500 bins = 977 words each).
  rt::RtShardedHiSet store(1'000'000, 16, algo::ShardPlacement::kStriped);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              const auto v =
                  static_cast<std::uint32_t>(i * 7919 % 1'000'000) + 1;
              (void)store.insert(v);
              (void)store.lookup(v);
              (void)store.remove(v);
            }));

  // The audit path is allocation-free once the caller's vector has
  // capacity: per-shard word scans are Sub frames recycled by the arena.
  rt::RtShardedHiSet audit_store(4096, 4, algo::ShardPlacement::kBlocked);
  for (std::uint32_t k = 1; k <= 4096; k += 3) audit_store.insert(k);
  std::vector<std::uint32_t> members;
  members.reserve(4096);
  EXPECT_EQ(0u, steady_state_allocs(
                    [&](int) {
                      members.clear();
                      (void)audit_store.snapshot_members(members);
                    },
                    /*warmup=*/8, /*ops=*/64));
}

TEST(RtAllocSteadyState, Rllsc) {
  rt::RtRllsc cell(0);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              const std::uint64_t seen = cell.ll(0);
              (void)cell.vl(0);
              (void)cell.sc(0, seen + 1);
              (void)cell.rl(0);
              (void)cell.load();
              (void)cell.store(seen);
            }));
}

TEST(RtAllocSteadyState, Universal) {
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtUniversal<spec::CounterSpec> object(spec, 2);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              (void)object.apply(0, spec::CounterSpec::inc());
              (void)object.apply(0, spec::CounterSpec::read());
            }));
}

TEST(RtAllocSteadyState, LeakyUniversal) {
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtLeakyUniversal<spec::CounterSpec> object(spec, 2);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              (void)object.apply(0, spec::CounterSpec::inc());
            }));
}

// ---- Frames per operation: which entry points mint a coroutine frame ----

/// EagerTask frames minted on the calling thread while `op` runs. Every
/// frame allocation is exactly one of a bucket hit, a fresh slab or an
/// oversize pass-through, so the summed deltas count frames, warm or cold.
template <typename Fn>
std::uint64_t frames_minted(Fn op) {
  const auto frames = [] {
    const env::FrameArena::Stats s = env::FrameArena::local().stats();
    return s.reuse_hits + s.fresh_slabs + s.oversize;
  };
  const std::uint64_t before = frames();
  op();
  return frames() - before;
}

env::EagerTask<std::uint64_t> one_await_task(env::RtEnv::CasCell& cell) {
  const env::RtEnv::Word word = co_await env::RtEnv::cas_read(cell);
  co_return word.value;
}

// Positive control for the probe: one hand-written coroutine around one
// primitive is one frame.
TEST(RtAllocFrames, ProbeCountsOneHandWrittenTaskAsOneFrame) {
  env::RtEnv::CasCell cell = env::RtEnv::make_cas({}, "probe", 7);
  std::uint64_t seen = 0;
  EXPECT_EQ(1u, frames_minted([&] { seen = one_await_task(cell).get(); }));
  EXPECT_EQ(7u, seen);
}

// Solo ops by pid 0 on fresh objects at n = 3. Only the Op frame and the
// cell's looping LL/SC/RL entry points mint frames; Load, Store, VL and the
// ‖-polls return their primitive's awaitable. Wait-free inc: Op + LL (l. 6)
// + SC (l. 14) + LL (l. 6) + LL (l. 18) + SC (l. 20) + SC (l. 21) + LL
// (l. 25) + RL (l. 27) = 9, whichever cell line 8 helps. Combining inc:
// Op + LL (l. 6) + SC (batch) + RL (l. 27) = 4. Read: Op = 1. With every
// entry point a Sub coroutine the same ops minted 17, then 18 once the
// rotated priority adds the line-11 Load, / 14 / 2.
TEST(RtAllocFrames, SoloUniversalOpsMintOnlyLoopingFrames) {
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtUniversal<spec::CounterSpec> wait_free(spec, 3);
  rt::RtUniversal<spec::CounterSpec> combining(spec, 3, true, true);
  // First inc: line 8 finds pid 0's own op; second: pid 1's cell is ⊥.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(9u, frames_minted([&] {
                (void)wait_free.apply(0, spec::CounterSpec::inc());
              }))
        << "round " << round;
  }
  EXPECT_EQ(4u, frames_minted([&] {
              (void)combining.apply(0, spec::CounterSpec::inc());
            }));
  EXPECT_EQ(1u, frames_minted([&] {
              (void)wait_free.apply(0, spec::CounterSpec::read());
            }));
}

// ---- SimEnv exemption: suspending frames are heap-backed BY DESIGN ----

// docs/ENV.md "SimEnv: allocation contract": the steady-state
// allocs_per_op == 0 gate applies ONLY to RtEnv's EagerTask frames. A
// SimEnv coroutine is a sim::OpTask/sim::SubTask whose frame must survive
// arbitrarily many scheduler steps (and may be abandoned mid-operation), so
// it is an ordinary heap allocation — recycling it through the same-thread
// FrameArena free list would be unsound the moment a harness destroyed it
// from another thread or drained the arena under a live suspended frame.
// SimEnv steps the same rt/cells.h bodies RtEnv runs, so both backends live
// in one binary routinely; this test pins the exemption in both directions:
// sim operations DO allocate per op, and none of that traffic touches the
// calling thread's FrameArena books (so the arena invariants the churn test
// checks stay exact even in binaries that mix both backends).
TEST(RtAllocSimExemption, SimFramesAreHeapBackedAndBypassTheArena) {
  const spec::RegisterSpec spec(8, 1);
  sim::Memory memory;
  sim::Scheduler sched(2);
  core::LockFreeHiRegister reg(memory, spec, /*writer_pid=*/0,
                               /*reader_pid=*/1);

  for (int i = 0; i < 64; ++i) {  // warmup, mirroring the rt contracts
    (void)sim::run_solo(sched, 0, reg.write(0, (i % 8) + 1));
    (void)sim::run_solo(sched, 1, reg.read(1));
  }
  const auto arena_before = env::FrameArena::local().stats();
  const util::AllocTally tally;
  constexpr int kOps = 256;
  for (int i = 0; i < kOps; ++i) {
    (void)sim::run_solo(sched, 0, reg.write(0, (i % 8) + 1));
    (void)sim::run_solo(sched, 1, reg.read(1));
  }
  // Heap-backed: at least one allocation per operation (Op frame; reads add
  // a TryRead Sub frame).
  EXPECT_GE(tally.allocs(), static_cast<std::uint64_t>(2 * kOps));
  EXPECT_EQ(tally.allocs(), tally.frees()) << "sim frames must not leak";
  // And none of it went through the arena.
  const auto arena_after = env::FrameArena::local().stats();
  EXPECT_EQ(arena_after.outstanding, arena_before.outstanding);
  EXPECT_EQ(arena_after.fresh_slabs, arena_before.fresh_slabs);
  EXPECT_EQ(arena_after.reuse_hits, arena_before.reuse_hits);
}

// ---- Multi-thread churn: arenas neither leak nor double-free ----

// Each worker hammers shared objects (universal helping, set toggles, LL/SC
// traffic — real cross-thread contention), then checks its own arena's
// books: no live frames, every minted slab parked exactly once, drain
// empties the cache. A double-free would corrupt the intrusive free list
// (caught by the invariants or by TSan); a cross-thread frame would be a
// data race on the free list (caught by TSan — this test runs in the
// rt-labelled TSan CI job).
TEST(RtAllocChurn, MultiThreadArenaBalance) {
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtUniversal<spec::CounterSpec> universal(spec, kThreads);
  algo::HiSetAlgPacked<env::RtEnv> set({}, 64, 0);
  rt::RtRllsc cell(0);

  std::atomic<int> violations{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int pid = 0; pid < kThreads; ++pid) {
    pool.emplace_back([&, pid] {
      for (int i = 0; i < kOps; ++i) {
        (void)universal.apply(pid, spec::CounterSpec::inc());
        const auto v =
            static_cast<std::uint32_t>((pid * 16 + i % 16) % 64) + 1;
        (void)set.insert(v).get();
        (void)set.lookup(v).get();
        (void)set.remove(v).get();
        const std::uint64_t seen = cell.ll(pid);
        (void)cell.sc(pid, seen + 1);
        (void)cell.rl(pid);
      }
      auto stats = env::FrameArena::local().stats();
      if (stats.outstanding != 0) ++violations;          // leak: live frames
      if (stats.cached != stats.fresh_slabs) ++violations;  // lost/dup slab
      if (stats.reuse_hits == 0) ++violations;  // arena never engaged?
      env::FrameArena::local().drain();
      stats = env::FrameArena::local().stats();
      if (stats.cached != 0) ++violations;
    });
  }
  for (auto& worker : pool) worker.join();
  EXPECT_EQ(violations.load(), 0);
  // The shared objects are still coherent after the churn.
  std::uint64_t total = 0;
  for (int pid = 0; pid < kThreads; ++pid) {
    total = universal.apply(pid, spec::CounterSpec::read());
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace hi
