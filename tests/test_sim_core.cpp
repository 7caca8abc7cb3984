// Tests for the simulator substrate: coroutine step semantics (one primitive
// per step), base-object atomicity, memory snapshots, scheduler bookkeeping
// and pending-primitive introspection (the hook the Lemma 16 adversary uses).
// The last section pins every rt/cells.h primitive body, driven through a
// SimEnv cell at a scheduler-granted step, against hand-written plain-word
// expected values: the 16-byte failure-word CAS (value AND ctx halves), the
// 64-bit word CAS, the packed fetch_or/fetch_and, binary read/write.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "env/sim_env.h"
#include "sim/base_object.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace hi::sim {
namespace {

// A toy process: writes `value` to two registers with a read in between.
OpTask<std::uint32_t> write_two(BinaryRegister& x, BinaryRegister& y,
                                std::uint8_t value) {
  co_await x.write(value);
  const std::uint8_t seen = co_await x.read();
  co_await y.write(seen);
  co_return seen;
}

TEST(SimCore, OnePrimitivePerStep) {
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x");
  auto& y = mem.make<BinaryRegister>("y");
  Scheduler sched(1);

  OpTask<std::uint32_t> task = write_two(x, y, 1);
  sched.start(0, task);
  // Priming runs no primitive: memory untouched, a primitive is pending.
  EXPECT_EQ(x.peek(), 0);
  EXPECT_TRUE(sched.runnable(0));
  EXPECT_EQ(sched.pending_object(0), x.id());
  EXPECT_STREQ(sched.pending_kind(0), "write");

  sched.step(0);  // executes the write to x
  EXPECT_EQ(x.peek(), 1);
  EXPECT_EQ(y.peek(), 0);
  EXPECT_EQ(sched.pending_object(0), x.id());
  EXPECT_STREQ(sched.pending_kind(0), "read");

  sched.step(0);  // the read
  EXPECT_EQ(sched.pending_object(0), y.id());

  sched.step(0);  // write to y, then run to completion
  EXPECT_TRUE(sched.op_finished(0));
  EXPECT_EQ(y.peek(), 1);
  sched.finish(0);
  EXPECT_EQ(task.take_result(), 1u);
  EXPECT_EQ(sched.steps_of(0), 3u);
}

TEST(SimCore, InterleavingIsStepGranular) {
  // Two writers race on x; the loser's value is overwritten atomically.
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x");
  auto& y = mem.make<BinaryRegister>("y");
  auto& z = mem.make<BinaryRegister>("z");
  Scheduler sched(2);

  OpTask<std::uint32_t> t0 = write_two(x, y, 1);
  OpTask<std::uint32_t> t1 = write_two(x, z, 0);
  sched.start(0, t0);
  sched.start(1, t1);

  sched.step(0);  // p0: x <- 1
  sched.step(1);  // p1: x <- 0
  sched.step(0);  // p0 reads x == 0 (p1's write took effect atomically)
  sched.step(1);  // p1 reads x == 0
  sched.step(0);
  sched.step(1);
  ASSERT_TRUE(sched.op_finished(0));
  ASSERT_TRUE(sched.op_finished(1));
  sched.finish(0);
  sched.finish(1);
  EXPECT_EQ(t0.take_result(), 0u);  // p0 observed p1's overwrite
  EXPECT_EQ(y.peek(), 0);
  EXPECT_EQ(z.peek(), 0);
}

TEST(SimCore, MemorySnapshotLayoutAndEquality) {
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x", true);
  auto& c = mem.make<WordCell>("c", 7);
  auto& r = mem.make<WideRllscCell>("r", 3);
  (void)x;
  (void)c;
  (void)r;

  const MemorySnapshot snap = mem.snapshot();
  ASSERT_EQ(snap.words.size(), 5u);  // 1 + 1 + (val, 0, ctx)
  EXPECT_EQ(snap.words[0], 1u);
  EXPECT_EQ(snap.words[1], 7u);
  EXPECT_EQ(snap.words[2], 3u);
  EXPECT_EQ(snap.words[3], 0u);
  EXPECT_EQ(snap.words[4], 0u);

  const MemorySnapshot again = mem.snapshot();
  EXPECT_EQ(snap, again);
  EXPECT_EQ(snap.hash(), again.hash());
  EXPECT_EQ(snap.distance(again), 0u);
}

TEST(SimCore, SnapshotDistance) {
  MemorySnapshot a{{1, 2, 3}};
  MemorySnapshot b{{1, 9, 4}};
  EXPECT_EQ(a.distance(b), 2u);
}

OpTask<std::uint32_t> cas_loop(WordCell& cell, std::uint64_t from,
                               std::uint64_t to) {
  for (;;) {
    const algo::CasResult<std::uint64_t> r = co_await cell.cas(from, to);
    if (r.installed) break;
    from = co_await cell.read();
  }
  co_return static_cast<std::uint32_t>(to);
}

TEST(SimCore, CasAtomicity) {
  Memory mem;
  auto& cell = mem.make<WordCell>("c", 0);
  Scheduler sched(2);

  OpTask<std::uint32_t> t0 = cas_loop(cell, 0, 1);
  OpTask<std::uint32_t> t1 = cas_loop(cell, 0, 2);
  sched.start(0, t0);
  sched.start(1, t1);
  sched.step(0);  // p0's CAS(0->1) succeeds
  EXPECT_EQ(cell.peek(), 1u);
  sched.step(1);  // p1's CAS(0->2) fails
  EXPECT_EQ(cell.peek(), 1u);
  ASSERT_TRUE(sched.op_finished(0));
  sched.step(1);  // p1 re-reads 1
  sched.step(1);  // p1's CAS(1->2) succeeds
  EXPECT_EQ(cell.peek(), 2u);
  EXPECT_TRUE(sched.op_finished(1));
}

TEST(SimCore, RllscSemantics) {
  Memory mem;
  auto& cell = mem.make<WideRllscCell>("r", 10);
  Scheduler sched(2);

  // p0: LL, then SC(11). p1: LL, then SC(12) — whoever SCs second fails,
  // because a successful SC clears the whole context.
  auto prog = [&cell](std::uint64_t desired) -> OpTask<std::uint32_t> {
    co_await cell.ll();
    const bool ok = co_await cell.sc(desired);
    co_return ok ? 1u : 0u;
  };
  OpTask<std::uint32_t> t0 = prog(11);
  OpTask<std::uint32_t> t1 = prog(12);
  sched.start(0, t0);
  sched.start(1, t1);
  sched.step(0);  // p0 LL
  sched.step(1);  // p1 LL
  EXPECT_EQ(cell.peek_context(), 0b11u);
  sched.step(0);  // p0 SC succeeds, clears context
  EXPECT_EQ(cell.peek_value(), 11u);
  EXPECT_EQ(cell.peek_context(), 0u);
  sched.step(1);  // p1 SC fails
  EXPECT_EQ(cell.peek_value(), 11u);
  sched.finish(0);
  sched.finish(1);
  EXPECT_EQ(t0.take_result(), 1u);
  EXPECT_EQ(t1.take_result(), 0u);
}

TEST(SimCore, RllscReleaseAndValidate) {
  Memory mem;
  auto& cell = mem.make<WideRllscCell>("r", 5);
  Scheduler sched(1);

  auto prog = [&cell]() -> OpTask<std::uint32_t> {
    co_await cell.ll();
    const bool valid_before = co_await cell.vl();
    co_await cell.rl();
    const bool valid_after = co_await cell.vl();
    const bool sc_ok = co_await cell.sc(6);
    co_return (valid_before ? 4u : 0u) | (valid_after ? 2u : 0u) |
        (sc_ok ? 1u : 0u);
  };
  OpTask<std::uint32_t> t = prog();
  const std::uint32_t result = run_solo(sched, 0, std::move(t));
  // VL true after LL; false after RL; SC fails after RL.
  EXPECT_EQ(result, 4u);
  EXPECT_EQ(cell.peek_value(), 5u);
  EXPECT_EQ(cell.peek_context(), 0u);
}

TEST(SimCore, RllscLoadStoreDoNotNeedContext) {
  Memory mem;
  auto& cell = mem.make<WideRllscCell>("r", 5);
  Scheduler sched(2);

  auto prog = [&cell]() -> OpTask<std::uint32_t> {
    const std::uint64_t seen = co_await cell.load();
    co_await cell.store(seen + 1);
    co_return static_cast<std::uint32_t>(seen);
  };
  OpTask<std::uint32_t> t = prog();
  EXPECT_EQ(run_solo(sched, 1, std::move(t)), 5u);
  EXPECT_EQ(cell.peek_value(), 6u);
}

TEST(SimCore, StoreClearsContext) {
  Memory mem;
  auto& cell = mem.make<WideRllscCell>("r", 0);
  Scheduler sched(2);

  auto ll_only = [&cell]() -> OpTask<std::uint32_t> {
    co_return static_cast<std::uint32_t>(co_await cell.ll());
  };
  OpTask<std::uint32_t> t0 = ll_only();
  run_solo(sched, 0, std::move(t0));
  EXPECT_EQ(cell.peek_context(), 0b01u);

  auto store = [&cell]() -> OpTask<std::uint32_t> {
    co_await cell.store(9);
    co_return 0;
  };
  OpTask<std::uint32_t> t1 = store();
  run_solo(sched, 1, std::move(t1));
  EXPECT_EQ(cell.peek_context(), 0u);
  EXPECT_EQ(cell.peek_value(), 9u);
}

// A SubTask helper used by nested coroutine test.
SubTask<std::uint32_t> scan_sum(std::vector<BinaryRegister*>& regs) {
  std::uint32_t sum = 0;
  for (auto* reg : regs) sum += co_await reg->read();
  co_return sum;
}

OpTask<std::uint32_t> nested(std::vector<BinaryRegister*>& regs,
                             BinaryRegister& out) {
  const std::uint32_t first = co_await scan_sum(regs);
  const std::uint32_t second = co_await scan_sum(regs);
  co_await out.write(first == second ? 1 : 0);
  co_return first + second;
}

TEST(SimCore, NestedSubTasksChargeStepsToCaller) {
  Memory mem;
  std::vector<BinaryRegister*> regs;
  for (int i = 0; i < 3; ++i) {
    regs.push_back(&mem.make<BinaryRegister>("r" + std::to_string(i), true));
  }
  auto& out = mem.make<BinaryRegister>("out");
  Scheduler sched(1);

  OpTask<std::uint32_t> t = nested(regs, out);
  sched.start(0, t);
  std::uint64_t steps = 0;
  while (sched.runnable(0)) {
    sched.step(0);
    ++steps;
  }
  EXPECT_EQ(steps, 7u);  // 3 reads + 3 reads + 1 write
  EXPECT_EQ(sched.steps_of(0), 7u);
  sched.finish(0);
  EXPECT_EQ(t.take_result(), 6u);
  EXPECT_EQ(out.peek(), 1);
}

TEST(SimCore, AbandonMidOperation) {
  Memory mem;
  auto& x = mem.make<BinaryRegister>("x");
  auto& y = mem.make<BinaryRegister>("y");
  Scheduler sched(1);
  {
    OpTask<std::uint32_t> t = write_two(x, y, 1);
    sched.start(0, t);
    sched.step(0);  // only the first write lands
    sched.abandon(0);
  }  // OpTask destructor frees the suspended frames
  EXPECT_EQ(x.peek(), 1);
  EXPECT_EQ(y.peek(), 0);
  EXPECT_FALSE(sched.runnable(0));
}

// ---- rt/cells.h bodies through SimEnv cells ----

using env::SimEnv;
using CtxWord = algo::CtxWord<std::uint64_t>;

/// Runs one awaitable primitive as a standalone operation and returns its
/// result (one scheduler-granted step).
template <typename Awaitable>
auto step_once(Scheduler& sched, Awaitable primitive) {
  using R = decltype(primitive.await_resume());
  auto op = [](Awaitable p) -> OpTask<R> {
    const R result = co_await p;
    co_return result;
  };
  const std::uint64_t before = sched.steps_of(0);
  R result = run_solo(sched, 0, op(std::move(primitive)));
  EXPECT_EQ(sched.steps_of(0) - before, 1u) << "one primitive == one step";
  return result;
}

TEST(SimCells, Cas128FailureWordCasCarriesBothHalves) {
  Memory mem;
  Scheduler sched(1);
  SimEnv::CasCell cell = SimEnv::make_cas(mem, "X", 7);
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{7, 0, 0}));

  EXPECT_EQ(step_once(sched, SimEnv::cas_read(cell)), (CtxWord{7, 0}));

  // Success: the whole 16-byte word is replaced; observed == expected.
  const auto installed =
      step_once(sched, SimEnv::cas(cell, CtxWord{7, 0}, CtxWord{9, 0b101}));
  EXPECT_TRUE(installed.installed);
  EXPECT_EQ(installed.observed, (CtxWord{7, 0}));
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{9, 0, 0b101}));

  // Failure on the ctx half alone: value matches, ctx does not. Nothing is
  // written, and the observed word reports the current ctx.
  const auto ctx_miss =
      step_once(sched, SimEnv::cas(cell, CtxWord{9, 0b100}, CtxWord{1, 0}));
  EXPECT_FALSE(ctx_miss.installed);
  EXPECT_EQ(ctx_miss.observed, (CtxWord{9, 0b101}));

  // Failure on the value half alone.
  const auto value_miss =
      step_once(sched, SimEnv::cas(cell, CtxWord{8, 0b101}, CtxWord{1, 0}));
  EXPECT_FALSE(value_miss.installed);
  EXPECT_EQ(value_miss.observed, (CtxWord{9, 0b101}));
  EXPECT_EQ(SimEnv::peek_cas(cell), (CtxWord{9, 0b101}));

  // Success needs BOTH halves to match, a nonzero ctx included.
  const auto both =
      step_once(sched, SimEnv::cas(cell, CtxWord{9, 0b101}, CtxWord{4, 0b10}));
  EXPECT_TRUE(both.installed);
  EXPECT_EQ(both.observed, (CtxWord{9, 0b101}));
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{4, 0, 0b10}));

  // Write replaces both halves unconditionally.
  EXPECT_TRUE(step_once(sched, SimEnv::cas_write(cell, CtxWord{~0ull, 1})));
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{~0ull, 0, 1}));
  // The model step is atomic by construction, whatever the host reports.
  EXPECT_TRUE(SimEnv::cas_is_lock_free(cell));
}

TEST(SimCells, WordCasReportsTheObservedWord) {
  Memory mem;
  Scheduler sched(1);
  SimEnv::WordArray words = SimEnv::make_word_array(mem, "W", 2, 5);
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{5, 5}));

  const auto hit = step_once(sched, SimEnv::cas_word(words, 1, 5, 42));
  EXPECT_TRUE(hit.installed);
  EXPECT_EQ(hit.observed, 5u);
  const auto miss = step_once(sched, SimEnv::cas_word(words, 1, 5, 43));
  EXPECT_FALSE(miss.installed);
  EXPECT_EQ(miss.observed, 42u);
  EXPECT_EQ(step_once(sched, SimEnv::read_word(words, 1)), 42u);
  EXPECT_TRUE(step_once(sched, SimEnv::write_word(words, 0, 1ull << 63)));
  EXPECT_EQ(SimEnv::peek_word(words, 0), 1ull << 63);
  EXPECT_EQ(mem.snapshot().words,
            (std::vector<std::uint64_t>{1ull << 63, 42}));
}

TEST(SimCells, PackedFetchOrAndFetchAnd) {
  Memory mem;
  Scheduler sched(1);
  const std::uint64_t init[] = {0x00ff00ff00ff00ffull, 0x3};
  SimEnv::PackedBinArray a =
      env::PackedBins<SimEnv>::make_bits(mem, "P", 66, init);
  EXPECT_EQ(mem.snapshot().words,
            (std::vector<std::uint64_t>{0x00ff00ff00ff00ffull, 0x3}));

  EXPECT_TRUE(step_once(sched, SimEnv::or_packed_word(a, 0, 0xf0f0ull)));
  EXPECT_EQ(SimEnv::peek_packed_word(a, 0), 0x00ff00ff00fff0ffull);
  EXPECT_TRUE(
      step_once(sched, SimEnv::and_packed_word(a, 0, 0xffff0000ffffffffull)));
  EXPECT_EQ(SimEnv::peek_packed_word(a, 0), 0x00ff000000fff0ffull);
  EXPECT_TRUE(step_once(sched, SimEnv::and_packed_word(a, 1, 0x2)));
  EXPECT_EQ(step_once(sched, SimEnv::load_packed_word(a, 1)), 0x2u);
  EXPECT_EQ(mem.snapshot().words,
            (std::vector<std::uint64_t>{0x00ff000000fff0ffull, 0x2}));
}

TEST(SimCells, BinaryReadWrite) {
  Memory mem;
  Scheduler sched(1);
  SimEnv::BinArray bins = SimEnv::make_bin_array(mem, "A", 3, 2);
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_EQ(step_once(sched, SimEnv::read_bit(bins, 2)), 1u);
  EXPECT_TRUE(step_once(sched, SimEnv::write_bit(bins, 3, 1)));
  EXPECT_TRUE(step_once(sched, SimEnv::write_bit(bins, 2, 0)));
  EXPECT_EQ(step_once(sched, SimEnv::read_bit(bins, 3)), 1u);
  EXPECT_EQ(SimEnv::peek_bit(bins, 2), 0u);
  EXPECT_EQ(mem.snapshot().words, (std::vector<std::uint64_t>{0, 0, 1}));
}

}  // namespace
}  // namespace hi::sim
