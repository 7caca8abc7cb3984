// Wait-free perfect-HI set over {1..t} from t binary registers (§5.1),
// written ONCE over an execution environment Env (src/env/env.h) and
// instantiated by the simulator (src/core/hi_set.h) and, on real hardware,
// directly as HiSetAlgPacked<env::RtEnv> (the packed layout: a 64-element
// set is one atomic word whose value is the membership bitmap).
//
// The set is the paper's example of an object escaping class C_t despite
// having 2^t states: its operations return only success/failure, so no
// single operation distinguishes t states, and the impossibility result
// does not apply. "There is a simple wait-free perfect HI implementation …
// we simply represent the set as an array S of length t, with S[i] = 1 if
// and only if element i is in the set, with the obvious implementation."
//
// Every operation is a single primitive, so every configuration's memory is
// exactly the membership bitmap of the current abstract state: perfect HI
// per Definition 5 (and trivially consistent with Proposition 6 — adjacent
// states differ in exactly one base object). Fully multi-writer/multi-reader
// and wait-free. Each operation spawns exactly one Op coroutine and no
// helpers; on RtEnv that single frame recycles through the per-thread frame
// arena (env/rt_env.h), so the hardware cost is one padded atomic access
// and zero steady-state heap allocations.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/values.h"
#include "env/env.h"

namespace hi::algo {

template <typename Env, typename Bins>
class HiSetAlg {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;

  /// `initial_words`: membership bitmap, bit (v-1) of the flat multi-word
  /// bitmap set <=> v initially in the set — hence the Bins::make_bits
  /// factory rather than the registers' one-hot initialization. The domain
  /// is unbounded (word v/64 is addressed directly; `util/bits.h` is the
  /// single source of the geometry).
  ///
  /// Layouts: with env::PaddedBins every element is its own padded cell
  /// (disjoint elements never share a cache line); with env::PackedBins the
  /// whole set is ceil(domain/64) words whose values ARE the membership
  /// bitmap — still one primitive per operation, still perfect HI (the
  /// memory representation is exactly the abstract state, per Definition 5;
  /// adjacent states differ in one base object, consistent with
  /// Proposition 6), but concurrent writers to elements sharing a word now
  /// contend on that word (the padded-vs-packed tradeoff, docs/PERF.md).
  /// `prefix` names the backing cells on the registering backends (the
  /// sharded facade labels each shard's array distinctly: "S0", "S1", …).
  HiSetAlg(typename Env::Ctx ctx, std::uint32_t domain,
           std::span<const std::uint64_t> initial_words,
           const char* prefix = "S")
      : domain_(domain),
        s_(Bins::make_bits(ctx, prefix, domain, initial_words)) {
    assert(domain >= 1);
  }

  /// Single-word convenience constructor (source compatibility for ≤64-bin
  /// call sites; with domain > 64 the remaining bins start 0).
  HiSetAlg(typename Env::Ctx ctx, std::uint32_t domain,
           std::uint64_t initial_bits)
      : HiSetAlg(ctx, domain,
                 std::span<const std::uint64_t>(&initial_bits, 1)) {}

  /// Insert(v): one blind set of S[v] (a fetch_or when packed).
  Op<bool> insert(std::uint32_t value) {
    assert(value >= 1 && value <= domain_);
    co_await Bins::set(s_, value);
    co_return true;
  }
  /// Remove(v): one blind clear of S[v] (a fetch_and when packed).
  Op<bool> remove(std::uint32_t value) {
    assert(value >= 1 && value <= domain_);
    co_await Bins::clear(s_, value);
    co_return true;
  }
  /// Lookup(v): one read of S[v] (a word load when packed).
  Op<bool> lookup(std::uint32_t value) {
    assert(value >= 1 && value <= domain_);
    const std::uint8_t bit = co_await Bins::read(s_, value);
    co_return bit == 1;
  }

  /// First member ≥ `from`, else 0 — Bins::scan_up forwarded without an
  /// extra coroutine frame: one word load per 64 bins when packed, one bit
  /// read per bin when padded. The building block of snapshot_members and
  /// of the sharded facade's audit scan (algo/sharded_set.h).
  typename Env::template Sub<std::uint32_t> next_member(std::uint32_t from) {
    return Bins::scan_up(s_, from);
  }

  /// Snapshot(): enumerate the members ascending via iterated word scans —
  /// one word load per 64 bins plus one reload per extra member sharing a
  /// word (packed), one bit read per bin (padded). Each load is a single
  /// primitive step, so the scan is NOT an atomic multi-word snapshot: it
  /// observes every concurrently-quiescent member and linearizes per-word.
  /// Appends to `out` (caller reserves capacity to keep rt paths
  /// allocation-free); returns the member count.
  Op<std::uint32_t> snapshot_members(std::vector<std::uint32_t>& out) {
    std::uint32_t v = co_await Bins::scan_up(s_, 1);
    while (v != 0) {
      out.push_back(v);
      if (v >= domain_) break;
      v = co_await Bins::scan_up(s_, v + 1);
    }
    co_return static_cast<std::uint32_t>(out.size());
  }

  /// Observer-side memory image (S[1..t]); never a step of the model.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 1; v <= domain_; ++v) {
      out.push_back(Bins::peek(s_, v));
    }
  }

  std::uint32_t domain() const { return domain_; }
  /// Bytes of shared storage behind S (observer-side; bench provenance).
  std::size_t memory_bytes() const { return Bins::footprint_bytes(s_); }

 private:
  std::uint32_t domain_;
  typename Bins::Array s_;
};

template <typename E>
using HiSetAlgPadded = HiSetAlg<E, env::PaddedBins<E>>;
template <typename E>
using HiSetAlgPacked = HiSetAlg<E, env::PackedBins<E>>;

}  // namespace hi::algo
