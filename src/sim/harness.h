// Execution harness: drives workloads over a simulated implementation under
// a scheduling policy, records the induced history H(α), per-operation step
// counts (for the progress checks), and memory observations at the
// observation points of the three HI notions (Definitions 5, 7, 8).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "spec/spec.h"
#include "util/rng.h"
#include "verify/history.h"

namespace hi::sim {

/// One memory observation: the configuration's memory representation plus
/// the abstract state reported by the caller-supplied oracle.
struct Observation {
  std::uint64_t at_step = 0;
  std::uint64_t state = 0;
  MemorySnapshot mem;
};

/// A sim implementation of spec S: spawns the coroutine for one high-level
/// operation executed by process `pid`.
template <typename Impl, typename S>
concept SimImplementation =
    hi::spec::SequentialSpec<S> &&
    requires(Impl impl, int pid, typename S::Op op) {
      { impl.apply(pid, op) } -> std::same_as<OpTask<typename S::Resp>>;
    };

template <hi::spec::SequentialSpec S, typename Impl>
  requires SimImplementation<Impl, S>
class Runner {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  using Hist = verify::History<Op, Resp>;

  struct Options {
    std::uint64_t seed = 1;
    bool round_robin = false;
    /// Relative weight of invoking a new operation vs. granting a step, in
    /// the random policy. Lower start weight ⇒ less overlap, more
    /// (state-)quiescent points; higher ⇒ deeper concurrency.
    unsigned start_weight = 1;
    unsigned step_weight = 3;
    /// Abort the run (result.timed_out) if it exceeds this many steps —
    /// guards tests against livelock in lock-free-only algorithms.
    std::uint64_t max_steps = 5'000'000;
    /// When non-null, every scheduling event of the run is appended as a
    /// TraceStep — the deterministic re-execution recipe verify/replay.h
    /// marches a fresh system through.
    ScheduleTrace* trace = nullptr;
  };

  struct Result {
    Hist history;
    std::vector<Observation> state_quiescent;
    std::vector<Observation> quiescent;
    std::vector<std::uint64_t> op_steps;  // parallel to history entries
    std::uint64_t total_steps = 0;
    bool timed_out = false;
  };

  /// `state_oracle` reports the abstract state (encoded) of the object at a
  /// (state-)quiescent configuration, given the history recorded so far; see
  /// tests for per-implementation oracles (single-writer replay, head
  /// decoding, ...). It is only invoked at state-quiescent or quiescent
  /// configurations.
  using StateOracle = std::function<std::uint64_t(const Hist&)>;

  Runner(const S& spec, Memory& memory, Scheduler& sched, Impl& impl,
         StateOracle state_oracle)
      : spec_(spec),
        memory_(memory),
        sched_(sched),
        impl_(impl),
        state_oracle_(std::move(state_oracle)) {}

  /// Run the per-process workloads to completion under the policy.
  Result run(const std::vector<std::vector<Op>>& workload, Options opt) {
    const int n = sched_.num_processes();
    assert(static_cast<int>(workload.size()) <= n);

    Result result;
    std::vector<Slot> slots(n);
    for (int pid = 0; pid < static_cast<int>(workload.size()); ++pid) {
      slots[pid].remaining.assign(workload[pid].begin(), workload[pid].end());
    }

    util::Xoshiro256 rng(opt.seed);
    sched_.record_to(opt.trace);
    observe(result, slots);  // the initial configuration is quiescent

    int rr_cursor = 0;
    for (;;) {
      if (sched_.total_steps() > opt.max_steps) {
        result.timed_out = true;
        break;
      }
      // Enumerate enabled events.
      startable_.clear();
      steppable_.clear();
      for (int pid = 0; pid < n; ++pid) {
        if (slots[pid].task.has_value()) {
          if (sched_.runnable(pid)) steppable_.push_back(pid);
        } else if (!slots[pid].remaining.empty()) {
          startable_.push_back(pid);
        }
      }
      if (startable_.empty() && steppable_.empty()) break;  // all done

      int pid;
      bool do_start;
      if (opt.round_robin) {
        pid = -1;
        for (int probe = 0; probe < n; ++probe) {
          const int cand = (rr_cursor + probe) % n;
          if (slots[cand].task.has_value() ? sched_.runnable(cand)
                                           : !slots[cand].remaining.empty()) {
            pid = cand;
            break;
          }
        }
        assert(pid >= 0);
        rr_cursor = (pid + 1) % n;
        do_start = !slots[pid].task.has_value();
      } else {
        const std::uint64_t start_total =
            static_cast<std::uint64_t>(startable_.size()) * opt.start_weight;
        const std::uint64_t step_total =
            static_cast<std::uint64_t>(steppable_.size()) * opt.step_weight;
        const std::uint64_t pick = rng.next_below(start_total + step_total);
        if (pick < start_total) {
          pid = startable_[pick / opt.start_weight];
          do_start = true;
        } else {
          pid = steppable_[(pick - start_total) / opt.step_weight];
          do_start = false;
        }
      }

      if (do_start) {
        invoke_next(slots[pid], pid, result);
      } else {
        const std::uint64_t before = sched_.steps_of(pid);
        sched_.step(pid);
        slots[pid].steps += sched_.steps_of(pid) - before;
      }
      reap(slots[pid], pid, result);
      observe(result, slots);
    }
    sched_.record_to(nullptr);
    result.total_steps = sched_.total_steps();
    return result;
  }

 private:
  struct Slot {
    std::deque<Op> remaining;
    std::optional<OpTask<Resp>> task;
    std::size_t history_index = 0;
    std::uint64_t steps = 0;
    bool state_changing = false;
  };

  void invoke_next(Slot& slot, int pid, Result& result) {
    assert(!slot.task.has_value() && !slot.remaining.empty());
    Op op = slot.remaining.front();
    slot.remaining.pop_front();
    slot.history_index = result.history.invoke(pid, op);
    slot.state_changing = !spec_.is_read_only(op);
    slot.steps = 0;
    slot.task.emplace(impl_.apply(pid, op));
    sched_.start(pid, *slot.task);
  }

  void reap(Slot& slot, int pid, Result& result) {
    if (!slot.task.has_value() || !sched_.op_finished(pid)) return;
    result.history.respond(slot.history_index, slot.task->take_result());
    result.op_steps.resize(result.history.size(), 0);
    result.op_steps[slot.history_index] = slot.steps;
    sched_.finish(pid);
    slot.task.reset();
  }

  void observe(Result& result, const std::vector<Slot>& slots) {
    bool any_pending = false;
    bool state_changing_pending = false;
    for (const Slot& slot : slots) {
      if (slot.task.has_value()) {
        any_pending = true;
        state_changing_pending |= slot.state_changing;
      }
    }
    if (state_changing_pending) return;  // not even state-quiescent
    Observation obs;
    obs.at_step = sched_.total_steps();
    obs.state = state_oracle_(result.history);
    obs.mem = memory_.snapshot();
    if (!any_pending) result.quiescent.push_back(obs);
    result.state_quiescent.push_back(std::move(obs));
  }

  const S& spec_;
  Memory& memory_;
  Scheduler& sched_;
  Impl& impl_;
  StateOracle state_oracle_;
  std::vector<int> startable_;
  std::vector<int> steppable_;
};

/// Run a single operation solo (no other process takes steps) and return its
/// result — used to build canonical maps from sequential executions and for
/// end-of-run probes.
template <typename T>
T run_solo(Scheduler& sched, int pid, OpTask<T> task) {
  sched.start(pid, task);
  while (sched.runnable(pid)) sched.step(pid);
  assert(sched.op_finished(pid));
  sched.finish(pid);
  return task.take_result();
}

}  // namespace hi::sim
