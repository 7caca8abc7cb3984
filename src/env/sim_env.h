// SimEnv: the scheduler-driven backend of the Env abstraction (see env.h
// and docs/ENV.md) — rt/cells.h bodies executed at scheduler-granted steps.
//
// Every read_bit/write_bit/cas_read/cas/cas_write/read_word/write_word/
// cas_word returns the base object's own sim::Primitive awaiter: co_await
// suspends the calling coroutine, and the primitive's body — the SAME
// seq_cst std::atomic operation (or CMPXCHG16B) on the SAME cell type that
// RtEnv executes eagerly — runs when the sim::Scheduler grants the process
// its step. One scheduler resume == one atomic operation == one step of the
// paper's §2 model. The cells are sim::BaseObjects registered in a
// sim::Memory in factory order, so object ids, pending-primitive
// introspection (the Lemma 16 adversary's observable), mem(C) snapshots and
// recorded ScheduleTraces all work over the hardware bodies: the HI
// checker, the adversaries, the exhaustive explorer and trace replay
// (verify/replay.h) model-check exactly the code RtEnv runs.
//
// Allocation contract: SimEnv coroutines are sim::OpTask/sim::SubTask —
// ordinary heap-allocated frames, NOT FrameArena-backed EagerTasks. A
// suspended frame must outlive arbitrarily many scheduler steps (and the
// scheduler may abandon it mid-operation), so the per-thread recycling
// arena rules do not apply (docs/ENV.md; tests/test_rt_alloc.cpp pins it).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "sim/base_object.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::env {

struct SimEnv {
  using Ctx = sim::Memory&;

  template <typename T>
  using Op = sim::OpTask<T>;
  template <typename T>
  using Sub = sim::SubTask<T>;

  // ---- binary registers (the §4/§5.1 base objects) ----

  using BinArray = std::vector<sim::BinaryRegister*>;

  /// Registers `count` binary registers named "<prefix>[1..count]" in the
  /// Memory (which owns them); slot v starts at bit (v-1) of the flat
  /// multi-word bitmap `words` (util::bin_test; missing trailing words read
  /// as 0). Registration order == mem(C) layout order. Construction only —
  /// never a step of the model.
  static BinArray make_bin_array(Ctx memory, const char* prefix,
                                 std::uint32_t count,
                                 std::span<const std::uint64_t> words) {
    BinArray array;
    array.reserve(count);
    for (std::uint32_t v = 1; v <= count; ++v) {
      array.push_back(&memory.make<sim::BinaryRegister>(
          std::string(prefix) + "[" + std::to_string(v) + "]",
          util::bin_test(words, v)));
    }
    return array;
  }

  /// read(A[index]) — one seq_cst atomic load at the granted step; exactly
  /// 1 primitive step (the paper's binary-register read). `index` is
  /// 1-based, matching the paper's A[v] notation.
  static auto read_bit(BinArray& array, std::uint32_t index) {
    return array[index - 1]->read();
  }
  /// write(A[index], value) — one seq_cst atomic store; exactly 1 primitive
  /// step (the only mutation primitive of Algorithms 1–4).
  static auto write_bit(BinArray& array, std::uint32_t index,
                        std::uint8_t value) {
    return array[index - 1]->write(value);
  }
  /// Observer-side peek — 0 steps, never part of an execution; feeds
  /// encode_memory()/parity checks only.
  static std::uint8_t peek_bit(const BinArray& array, std::uint32_t index) {
    return array[index - 1]->peek();
  }
  /// Modeled footprint: one snapshot word per binary register.
  static std::size_t bin_storage_bytes(const BinArray& array) {
    return array.size() * sizeof(std::uint64_t);
  }

  // ---- packed bin arrays: 64 bins per word-sized base object ----
  //
  // Each word is ONE sim::PackedWordCell (an unpadded atomic word), so a
  // word load, LOCK OR or LOCK AND is one primitive step and the explorer
  // interleaves at word granularity.
  // mem(C) encodes one 64-bit word per cell — the packed representation is
  // a pure function of the abstract bins, which is what preserves the HI
  // arguments (env/env.h, docs/ENV.md "Packed bin arrays").

  struct PackedBinArray {
    std::uint32_t bins = 0;
    std::vector<sim::PackedWordCell*> words;
  };

  /// Registers ceil(count/64) packed words named "<prefix>.w[0..]"; word w
  /// starts from `words[w]` (bit v-1 of the flat bitmap = bin v). Missing
  /// trailing words read as 0; bits beyond `count` are dropped so tail bins
  /// stay 0 (util::init_word). Construction only.
  static PackedBinArray make_packed_bin_array(
      Ctx memory, const char* prefix, std::uint32_t count,
      std::span<const std::uint64_t> words) {
    PackedBinArray array;
    array.bins = count;
    const std::uint32_t nwords = util::bin_words(count);
    array.words.reserve(nwords);
    for (std::uint32_t w = 0; w < nwords; ++w) {
      array.words.push_back(&memory.make<sim::PackedWordCell>(
          std::string(prefix) + ".w[" + std::to_string(w) + "]",
          util::init_word(words, count, w)));
    }
    return array;
  }

  static std::uint32_t packed_bins(const PackedBinArray& array) {
    return array.bins;
  }
  static std::uint32_t packed_words(const PackedBinArray& array) {
    return static_cast<std::uint32_t>(array.words.size());
  }

  /// Word load — 1 primitive step; returns 64 bins atomically.
  static auto load_packed_word(PackedBinArray& array, std::uint32_t w) {
    return array.words[w]->read();
  }
  /// fetch_or — 1 primitive step; sets every bin in `mask`.
  static auto or_packed_word(PackedBinArray& array, std::uint32_t w,
                             std::uint64_t mask) {
    return array.words[w]->fetch_or(mask);
  }
  /// fetch_and — 1 primitive step; keeps only the bins in `mask`.
  static auto and_packed_word(PackedBinArray& array, std::uint32_t w,
                              std::uint64_t mask) {
    return array.words[w]->fetch_and(mask);
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_packed_word(const PackedBinArray& array,
                                        std::uint32_t w) {
    return array.words[w]->peek();
  }
  /// Modeled footprint of the shared representation (observer-side).
  static std::size_t packed_storage_bytes(const PackedBinArray& array) {
    return array.words.size() * sizeof(std::uint64_t);
  }

  // ---- one CAS base object: the 16-byte hardware word ----

  using Value = std::uint64_t;  // the codec word (algo/universal.h)
  using Word = algo::CtxWord<Value>;
  using CasCell = sim::CasCell128*;

  /// Registers the CAS base object in the Memory. Construction only.
  static CasCell make_cas(Ctx memory, std::string name, Value initial) {
    return &memory.make<sim::CasCell128>(std::move(name), initial);
  }

  /// Read(X) — one seq_cst 16-byte atomic load; 1 primitive step (§2: CAS
  /// objects support standard reads).
  static auto cas_read(CasCell& cell) { return cell->read(); }
  /// CAS(X, expected, desired) — one CMPXCHG16B; 1 primitive step.
  /// Failure-word semantics: the result carries the word observed at the
  /// step, so a retry loop pays one primitive per attempt (no separate
  /// re-read; see docs/ENV.md).
  static auto cas(CasCell& cell, const Word& expected, const Word& desired) {
    return cell->cas(expected, desired);
  }
  /// Write(X, desired) — one seq_cst 16-byte atomic store; 1 primitive step
  /// (§2: CAS objects support writes).
  static auto cas_write(CasCell& cell, const Word& desired) {
    return cell->write(desired);
  }
  /// The CasPlan retry loop (env.h) as one SubTask: the cas_read, each CAS
  /// attempt and each poll is its own scheduler-granted step, in the
  /// sequence the plan contract fixes.
  template <typename Plan>
  static sim::SubTask<CasPlanResult<Plan, Word>> cas_retry(CasCell& cell,
                                                           Plan plan) {
    Word cur = co_await cas_read(cell);
    for (;;) {
      if (plan.settled(cur)) co_return plan.result(cur, false);
      const algo::CasResult<Word> r =
          co_await cas(cell, cur, plan.desired(cur));
      if (r.installed) co_return plan.result(cur, true);
      if constexpr (Plan::kPolls) {
        const bool bail = co_await plan.poll();
        if (bail) co_return CasPlanResult<Plan, Word>{};
      }
      cur = r.observed;
    }
  }
  /// Observer-side peek of the full CAS word — 0 steps.
  static Word peek_cas(const CasCell& cell) { return cell->peek(); }
  /// The model's CAS step is atomic by construction: the scheduler grants
  /// one primitive at a time, so the answer does not depend on whether the
  /// host's 16-byte atomics are lock-free (RtEnv reports that).
  static bool cas_is_lock_free(const CasCell&) { return true; }
  /// Local scheduling hint for spin retries — never a step, never touches
  /// shared memory. Meaningless under the sim scheduler: no-op.
  static void relax() noexcept {}

  // ---- arrays of 64-bit CAS words (per-process announce/result tables) ----

  using WordArray = std::vector<sim::WordCell*>;

  /// Registers `count` 64-bit CAS words named "<prefix>[0..count-1]"
  /// (0-based: these model per-process cells indexed by pid, not the
  /// paper's 1-based value slots). Construction only.
  static WordArray make_word_array(Ctx memory, const char* prefix,
                                   std::uint32_t count, std::uint64_t initial) {
    WordArray array;
    array.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      array.push_back(&memory.make<sim::WordCell>(
          std::string(prefix) + "[" + std::to_string(i) + "]", initial));
    }
    return array;
  }

  /// read(W[index]) — one seq_cst atomic load; 1 primitive step.
  static auto read_word(WordArray& array, std::uint32_t index) {
    return array[index]->read();
  }
  /// write(W[index], value) — one seq_cst atomic store; 1 primitive step.
  static auto write_word(WordArray& array, std::uint32_t index,
                         std::uint64_t value) {
    return array[index]->write(value);
  }
  /// CAS(W[index], expected, desired) — one LOCK CMPXCHG; 1 primitive step,
  /// failure-word semantics as for cas().
  static auto cas_word(WordArray& array, std::uint32_t index,
                       std::uint64_t expected, std::uint64_t desired) {
    return array[index]->cas(expected, desired);
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_word(const WordArray& array, std::uint32_t index) {
    return array[index]->peek();
  }
};

static_assert(ExecutionEnv<SimEnv>);

}  // namespace hi::env
