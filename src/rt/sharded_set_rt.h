// The sharded perfect-HI store on real hardware: millions of keys striped
// over N independent multi-word packed sets (algo/sharded_set.h), every
// membership operation one seq_cst atomic access to one word of one shard.
//
// Single-source: the facade body lives in algo/sharded_set.h
// (ShardedHiSet), instantiated here with RtEnv. The simulator instantiation
// of the SAME body is core::ShardedHiSet; memory_image() here matches the
// simulator's mem(C) snapshot word-for-word after identical operation
// sequences (tests/test_env_parity.cpp). Operations forward the owning
// shard's single-frame coroutine, consumed on the calling thread, so each
// thread's FrameArena recycles the one frame and steady-state
// insert/remove/lookup never touch the heap (tests/test_rt_alloc.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/sharded_set.h"
#include "algo/values.h"
#include "env/rt_env.h"

namespace hi::rt {

/// Default layout: env::PackedBins — each shard is ceil(size/64) contiguous
/// unpadded atomic words whose values ARE the shard's membership bitmap, so
/// the whole store costs ~domain/8 bytes plus one tail word per shard. The
/// placement knob (algo::ShardPlacement) picks how neighbouring keys map to
/// shards/words — see the tradeoff note in algo/sharded_set.h and the
/// BENCH_sharded.json rows in docs/PERF.md.
template <typename Bins>
class RtShardedHiSetT {
 public:
  /// `initial_words`: optional GLOBAL membership bitmap (bit k-1 = key k),
  /// scattered to the shards through the placement map — same contract as
  /// the algo-layer constructor, so parity tests can seed identical
  /// non-trivial states on both backends.
  RtShardedHiSetT(std::uint32_t domain, std::uint32_t shard_count,
                  algo::ShardPlacement placement =
                      algo::ShardPlacement::kBlocked,
                  std::span<const std::uint64_t> initial_words = {})
      : alg_(env::RtEnv::Ctx{}, domain, shard_count, placement,
             initial_words) {}

  bool insert(std::uint32_t key) { return alg_.insert(key).get(); }
  bool remove(std::uint32_t key) { return alg_.remove(key).get(); }
  bool lookup(std::uint32_t key) { return alg_.lookup(key).get(); }

  /// Full-membership audit via per-shard word scans; appends global keys to
  /// `out` (per-shard ascending — globally sorted under kBlocked). Returns
  /// the member count. Reserve `out` to keep the audit allocation-free.
  std::uint32_t snapshot_members(std::vector<std::uint32_t>& out) {
    return alg_.snapshot_members(out).get();
  }

  /// Concatenated shard bitmaps — the simulator's mem(C) layout order.
  std::vector<std::uint8_t> memory_image() const {
    return algo::memory_image(alg_);
  }

  std::uint32_t domain() const { return alg_.domain(); }
  std::uint32_t shard_count() const { return alg_.shard_count(); }
  /// Bytes of shared storage (the bench's bytes_per_object input).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::ShardedHiSet<env::RtEnv, Bins> alg_;
};

using RtShardedHiSet = RtShardedHiSetT<env::PackedBins<env::RtEnv>>;

}  // namespace hi::rt
