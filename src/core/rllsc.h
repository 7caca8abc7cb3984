// Algorithm 6: lock-free perfect-HI releasable-LL/SC object from atomic CAS
// (§6.3, Theorem 28), plus the "ideal" native R-LLSC cell behind the same
// interface, so Algorithm 5 can run over either (§6.1 vs §6.4).
//
// Single-source: the CAS-backed algorithm body lives in algo/rllsc.h
// (CasRllscAlg), templated over the execution environment and pid-explicit;
// this file is the simulator instantiation. CasRllsc adds the pid-implicit
// legacy entry points (the scheduler knows which process is executing, so
// call sites do not thread pids through). The hardware instantiation is
// rt::RtRllsc. NativeRllsc has no hardware sibling — an ideal
// context-aware LL/SC base object only exists in the model (hardware offers
// CAS, which is exactly what Algorithm 6 exists to bridge).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "algo/rllsc.h"
#include "algo/values.h"
#include "env/sim_env.h"
#include "sim/base_object.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::core {

/// Algorithm 6 over one atomic CAS base object (simulator instantiation).
class CasRllsc : public algo::CasRllscAlg<env::SimEnv> {
 public:
  using Base = algo::CasRllscAlg<env::SimEnv>;

  CasRllsc(sim::Memory& memory, std::string name, std::uint64_t initial)
      : Base(memory, std::move(name), initial) {}

  // pid-explicit interface (used by the universal construction) inherited:
  using Base::ll;
  using Base::ll_interleaved;
  using Base::rl;
  using Base::sc;
  using Base::vl;

  // pid-implicit legacy entry points: the executing process's identity is
  // read from the scheduler at invocation (the call happens inside the
  // process's own coroutine, so current_process() is exact).
  auto ll() { return Base::ll(self()); }
  template <typename Poll>
  auto ll_interleaved(Poll poll) {
    return Base::ll_interleaved(self(), std::move(poll));
  }
  auto vl() { return Base::vl(self()); }
  auto sc(std::uint64_t desired) { return Base::sc(self(), desired); }
  auto rl() { return Base::rl(self()); }

 private:
  static int self() {
    sim::ProcessState* ps = sim::detail::current_process();
    assert(ps != nullptr && "R-LLSC used outside a scheduled process");
    return ps->pid;
  }
};

/// The same interface over a native (single-primitive) R-LLSC base object.
class NativeRllsc {
 public:
  NativeRllsc(sim::Memory& memory, std::string name, std::uint64_t initial)
      : cell_(&memory.make<sim::WideRllscCell>(std::move(name), initial)) {}

  // Every entry point but the interleaved LL is one native primitive and
  // returns the cell's awaitable directly: one step, no coroutine frame.
  auto ll(int pid = -1) {
    assert_self(pid);
    return cell_->ll();
  }

  /// Native LL is wait-free, so interleaving is unnecessary for progress;
  /// one poll runs first so a ready response is still honored promptly.
  /// `poll` is a nullary callable returning an awaitable of bool. The
  /// native LL links in its one step, with no read to inspect first, so
  /// `unlinked_if` (CasRllscAlg::ll_interleaved) cannot apply: every value
  /// is linked.
  template <typename Poll, typename Unlinked = algo::LinkEvery>
  sim::SubTask<std::optional<std::uint64_t>> ll_interleaved(
      int pid, Poll poll, Unlinked /*unlinked_if*/ = {}) {
    assert_self(pid);
    const bool bail = co_await poll();
    if (bail) co_return std::nullopt;
    const std::uint64_t value = co_await cell_->ll();
    co_return value;
  }
  template <typename Poll>
  auto ll_interleaved(Poll poll) {
    return ll_interleaved(-1, std::move(poll));
  }

  auto vl(int pid = -1) {
    assert_self(pid);
    return cell_->vl();
  }
  auto sc(int pid, std::uint64_t desired) {
    assert_self(pid);
    return cell_->sc(desired);
  }
  auto sc(std::uint64_t desired) { return sc(-1, desired); }
  auto rl(int pid = -1) {
    assert_self(pid);
    return cell_->rl();
  }
  auto load() { return cell_->load(); }
  auto store(std::uint64_t desired) { return cell_->store(desired); }

  std::uint64_t peek_value() const { return cell_->peek_value(); }
  std::uint64_t peek_context() const { return cell_->peek_context(); }
  algo::CtxWord<std::uint64_t> peek_word() const {
    return {cell_->peek_value(), cell_->peek_context()};
  }
  bool is_lock_free() const { return true; }

 private:
  /// The native cell resolves the caller from the scheduler inside each
  /// primitive; an explicit pid (from the universal construction) must agree.
  static void assert_self(int pid) {
    assert(pid == -1 || pid == sim::detail::current_process()->pid);
    (void)pid;
  }

  sim::WideRllscCell* cell_;
};

}  // namespace hi::core
