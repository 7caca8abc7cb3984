// Shared base objects of the simulated asynchronous shared-memory model.
//
// Each primitive (read, write, CAS, fetch_or/fetch_and, LL, SC, VL, RL,
// Load, Store) returns an awaiter; `co_await`-ing it suspends the calling
// coroutine, and the operation is applied atomically when the scheduler
// next resumes that process — so one scheduler resume == one step of §2's
// model. The cells behind env::SimEnv hold std::atomic storage and execute
// the SAME rt/cells.h bodies RtEnv runs — seq_cst loads, stores, LOCK
// OR/AND/CMPXCHG, and CMPXCHG16B for the 16-byte CAS word: the simulator
// decides WHEN a step happens, the hardware body decides WHAT it does. The
// byte and word cells drop RtEnv's cache-line padding (rt::BinCell,
// rt::WordCell): padding is a contention concern, the scheduler runs one
// step at a time, and 64-byte-aligned cells would cost an aligned heap
// allocation per cell in every explorer re-execution. The state of
// every base object is part of mem(C) (see memory.h); local coroutine frames
// are not, matching the paper's definition of the memory representation.
#pragma once

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rt/cells.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::sim {

/// Awaiter for a single shared-memory primitive. The operation `fn` runs in
/// await_resume, i.e. at the moment the scheduler grants the process its
/// step; between suspension and resumption other processes may take
/// arbitrarily many steps.
template <typename Fn>
class [[nodiscard]] Primitive {
 public:
  Primitive(int object_id, const char* kind, Fn fn)
      : object_id_(object_id), kind_(kind), fn_(std::move(fn)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) noexcept {
    ProcessState* ps = detail::current_process();
    assert(ps != nullptr && "primitive used outside a scheduled process");
    ps->resume_point = handle;
    ps->pending = PendingPrimitive{object_id_, kind_};
  }
  auto await_resume() {
    detail::current_process()->steps += 1;
    return fn_();
  }

 private:
  int object_id_;
  const char* kind_;
  Fn fn_;
};

template <typename Fn>
Primitive(int, const char*, Fn) -> Primitive<Fn>;

/// Base class of every simulated shared object. `encode_state` appends the
/// object's full state to the memory-representation vector; the layout is
/// fixed per object type, so vector equality == configuration memory
/// equality (the relation the HI definitions compare).
class BaseObject {
 public:
  explicit BaseObject(std::string name) : name_(std::move(name)) {}
  virtual ~BaseObject() = default;
  BaseObject(const BaseObject&) = delete;
  BaseObject& operator=(const BaseObject&) = delete;

  virtual void encode_state(std::vector<std::uint64_t>& out) const = 0;
  virtual std::string describe() const = 0;

  int id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  friend class Memory;
  int id_ = -1;
  std::string name_;
};

/// Binary (Boolean) read/write register — the small base object of §4/§5.3:
/// one atomic byte, stepped through the rt/cells.h bodies.
class BinaryRegister : public BaseObject {
 public:
  explicit BinaryRegister(std::string name, bool initial = false)
      : BaseObject(std::move(name)), cell_(initial ? 1 : 0) {}

  auto read() {
    return Primitive{id(), "read", [this] { return rt::bin_read(cell_); }};
  }
  auto write(std::uint8_t value) {
    assert(value <= 1);
    return Primitive{id(), "write", [this, value] {
                       rt::bin_write(cell_, value);
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(peek());
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(peek());
  }

  std::uint8_t peek() const {  // observer-side, not a step
    return cell_.load(std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint8_t> cell_;
};

/// One 64-bit word of a packed bin array (env::PackedBins): 64 of the
/// paper's binary registers share a single word-sized base object, and the
/// three primitives — a full-word read (a free 64-bin snapshot: strictly
/// stronger than the paper's single-bit register read) and the set/clear
/// RMWs — each cost exactly ONE step. The packed layout keeps the memory
/// representation a pure function of the abstract bin contents, so the HI
/// arguments carry over; see docs/ENV.md "Packed bin arrays".
class PackedWordCell : public BaseObject {
 public:
  explicit PackedWordCell(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), cell_(initial) {}

  /// Word load — 1 step; returns all 64 bins of this word atomically.
  auto read() {
    return Primitive{id(), "read", [this] { return rt::packed_load(cell_); }};
  }
  /// Set every bin in `mask` — 1 step (one LOCK OR).
  auto fetch_or(std::uint64_t mask) {
    return Primitive{id(), "fetch_or", [this, mask] {
                       rt::packed_or(cell_, mask);
                       return true;
                     }};
  }
  /// Keep only the bins in `mask` — 1 step (one LOCK AND).
  auto fetch_and(std::uint64_t mask) {
    return Primitive{id(), "fetch_and", [this, mask] {
                       rt::packed_and(cell_, mask);
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(peek());
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(peek());
  }

  std::uint64_t peek() const {  // observer-side, not a step
    return rt::packed_load(cell_);
  }

 private:
  std::atomic<std::uint64_t> cell_;
};

/// A 64-bit CAS word supporting read and write as in §2 ("we assume that
/// the CAS object supports standard read and write operations"): the
/// per-process announce/result cells of the leaky universal baseline and
/// the wait-free-sim combinator's records and help queue. One atomic word.
class WordCell : public BaseObject {
 public:
  explicit WordCell(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), cell_(initial) {}

  auto read() {
    return Primitive{id(), "read", [this] { return rt::word_read(cell_); }};
  }
  auto write(std::uint64_t value) {
    return Primitive{id(), "write", [this, value] {
                       rt::word_write(cell_, value);
                       return true;
                     }};
  }
  /// Failure-word CAS: one LOCK CMPXCHG that also reports the word it
  /// observed, so retry loops need no separate re-read step.
  auto cas(std::uint64_t expected, std::uint64_t desired) {
    return Primitive{id(), "cas", [this, expected, desired] {
                       return rt::word_cas(cell_, expected, desired);
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(peek());
  }
  std::string describe() const override {
    return name() + "=" + std::to_string(peek());
  }

  std::uint64_t peek() const { return cell_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<std::uint64_t> cell_;
};

/// The CAS base object of Algorithm 6 (§6.3): one 16-byte atomic word
/// (rt::CasCell128) holding the packed algorithm value and the R-LLSC
/// context bitmask, exactly as Algorithm 6 stores (v, c_1, ..., c_n) in one
/// CAS word. Snapshot layout: 3 words (value, 0, ctx) — the middle word is
/// a fixed zero so the mem(C) layout matches the native R-LLSC cell below.
class CasCell128 : public BaseObject {
 public:
  explicit CasCell128(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), cell_(rt::Word128{initial, 0}) {}

  auto read() {
    return Primitive{id(), "read", [this] { return rt::cas128_read(cell_); }};
  }
  auto write(rt::CasWord desired) {
    return Primitive{id(), "write", [this, desired] {
                       rt::cas128_write(cell_, desired);
                       return true;
                     }};
  }
  /// Failure-word CAS: one CMPXCHG16B that also reports the word it
  /// observed, so Algorithm 6's retry loops need no separate re-read step.
  auto cas(rt::CasWord expected, rt::CasWord desired) {
    return Primitive{id(), "cas", [this, expected, desired] {
                       return rt::cas128_cas(cell_, expected, desired);
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    const rt::CasWord w = peek();
    out.push_back(w.value);
    out.push_back(0);
    out.push_back(w.ctx);
  }
  std::string describe() const override {
    const rt::CasWord w = peek();
    return name() + "=(" + std::to_string(w.value) +
           ",ctx=" + std::to_string(w.ctx) + ")";
  }

  rt::CasWord peek() const { return rt::cas128_read(cell_); }

 private:
  rt::CasCell128 cell_;
};

/// Native context-aware releasable LL/SC object (§6.1): each R-LLSC
/// operation is a single atomic primitive. Used to run Algorithm 5 against
/// *ideal* R-LLSC base objects, in isolation from Algorithm 6's CAS-based
/// implementation of the same object (which is then substituted in for the
/// full Theorem 32 composition). Hardware offers no such object, so this
/// cell has no rt/cells.h body: it is plain words, sim-only. Snapshot
/// layout (value, 0, ctx), the same as CasCell128.
class WideRllscCell : public BaseObject {
 public:
  explicit WideRllscCell(std::string name, std::uint64_t initial = 0)
      : BaseObject(std::move(name)), value_(initial) {}

  /// LL(O): adds the caller to the context, returns the value.
  auto ll() {
    return Primitive{id(), "LL", [this] {
                       ctx_ = util::set_bit(ctx_, self());
                       return value_;
                     }};
  }
  /// VL(O): true iff the caller is in the context.
  auto vl() {
    return Primitive{id(), "VL",
                     [this] { return util::test_bit(ctx_, self()); }};
  }
  /// SC(O, new): installs the value and clears the context iff the caller is
  /// in the context.
  auto sc(std::uint64_t desired) {
    return Primitive{id(), "SC", [this, desired] {
                       if (!util::test_bit(ctx_, self())) return false;
                       value_ = desired;
                       ctx_ = 0;
                       return true;
                     }};
  }
  /// RL(O): removes the caller from the context.
  auto rl() {
    return Primitive{id(), "RL", [this] {
                       ctx_ = util::clear_bit(ctx_, self());
                       return true;
                     }};
  }
  auto load() {
    return Primitive{id(), "Load", [this] { return value_; }};
  }
  auto store(std::uint64_t desired) {
    return Primitive{id(), "Store", [this, desired] {
                       value_ = desired;
                       ctx_ = 0;
                       return true;
                     }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(value_);
    out.push_back(0);
    out.push_back(ctx_);
  }
  std::string describe() const override {
    return name() + "=(" + std::to_string(value_) +
           ",ctx=" + std::to_string(ctx_) + ")";
  }

  std::uint64_t peek_value() const { return value_; }
  std::uint64_t peek_context() const { return ctx_; }

 private:
  static unsigned self() {
    return static_cast<unsigned>(detail::current_process()->pid);
  }

  std::uint64_t value_;
  std::uint64_t ctx_ = 0;  // bit i set <=> process i in context
};

}  // namespace hi::sim
