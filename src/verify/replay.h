// Schedule replay: re-execute a recorded schedule (sim/trace.h) on one
// system and check it retraces the recording.
//
// replay_trace() marches a core-style implementation through the trace's
// (pid, start | step | crash) events on a fresh scheduler. Before every
// granted step it checks that the pending primitive (base-object id + kind)
// matches the trace annotation, so a persisted ScheduleTrace literal is a
// trustworthy regression artifact: if an algorithm's step sequence ever
// changes, the literal is rejected at the first deviating step instead of
// silently replaying a different interleaving. SimEnv steps the rt/cells.h
// atomics, so every recorded interleaving — a random Runner run, an
// explorer Decision path, an adversary starvation schedule, a shrunk crash
// counterexample — re-executes over the same std::atomic operations RtEnv
// runs.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "spec/spec.h"

namespace hi::verify {

/// Outcome of a replay. On a rejected trace, `message` names the first
/// event that could not be replayed as recorded.
struct ReplayReport {
  bool ok = true;
  std::size_t at = 0;  // index into trace.steps of the first rejected event
  std::string message;
  std::uint64_t steps_executed = 0;
  std::uint64_t responses = 0;  // operations that completed
};

/// A scheduler plus a core-style implementation (`apply(pid, op) ->
/// sim::OpTask<Resp>`), fed a fixed per-process operation sequence in
/// invocation order. Pending operations
/// left by a truncated trace (adversary schedules end mid-read) are
/// abandoned at destruction.
template <spec::SequentialSpec S, typename Impl>
class TraceSide {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;

  TraceSide(sim::Scheduler& sched, Impl& impl,
            const std::vector<std::vector<Op>>& workload)
      : sched_(sched),
        impl_(impl),
        workload_(workload),
        tasks_(sched.num_processes()),
        next_op_(sched.num_processes(), 0) {}

  TraceSide(const TraceSide&) = delete;
  TraceSide& operator=(const TraceSide&) = delete;

  ~TraceSide() {
    for (int pid = 0; pid < static_cast<int>(tasks_.size()); ++pid) {
      if (tasks_[pid].has_value()) {
        sched_.abandon(pid);
        tasks_[pid].reset();
      }
    }
  }

  bool can_start(int pid) const {
    return !tasks_[pid].has_value() &&
           pid < static_cast<int>(workload_.size()) &&
           next_op_[pid] < workload_[pid].size();
  }
  void start(int pid) {
    assert(can_start(pid));
    const Op op = workload_[pid][next_op_[pid]++];
    tasks_[pid].emplace(impl_.apply(pid, op));
    sched_.start(pid, *tasks_[pid]);
  }

  bool busy(int pid) const { return tasks_[pid].has_value(); }
  bool runnable(int pid) const { return sched_.runnable(pid); }
  bool crashed(int pid) const { return sched_.crashed(pid); }
  /// Crash-fail the pid (trace kind "crash"). Its pending operation — if
  /// any — stays pending forever; the frame is freed by the destructor's
  /// abandon-and-reset sweep like any other torn-down operation.
  void crash(int pid) { sched_.crash(pid); }
  int pending_object(int pid) const { return sched_.pending_object(pid); }
  const char* pending_kind(int pid) const { return sched_.pending_kind(pid); }
  void step(int pid) { sched_.step(pid); }

  /// If pid's operation just completed, acknowledge it and return the
  /// response; nullopt otherwise.
  std::optional<Resp> reap(int pid) {
    if (!tasks_[pid].has_value() || !sched_.op_finished(pid)) {
      return std::nullopt;
    }
    Resp response = tasks_[pid]->take_result();
    sched_.finish(pid);
    tasks_[pid].reset();
    return response;
  }

 private:
  sim::Scheduler& sched_;
  Impl& impl_;
  const std::vector<std::vector<Op>>& workload_;
  std::vector<std::optional<sim::OpTask<Resp>>> tasks_;
  std::vector<std::size_t> next_op_;
};

/// Replay `trace` over `impl` on `sched`. `workload` is the per-process
/// operation sequence in invocation order — trace start events consume it
/// per pid. Crash events halt the pid; its pending operation (if any) never
/// responds and the march continues over the survivors.
template <spec::SequentialSpec S, typename Impl>
ReplayReport replay_trace(
    const S& /*spec*/, sim::Scheduler& sched, Impl& impl,
    const std::vector<std::vector<typename S::Op>>& workload,
    const sim::ScheduleTrace& trace) {
  ReplayReport report;
  TraceSide<S, Impl> side(sched, impl, workload);

  const auto fail = [&report](std::size_t at, std::string message) {
    report.ok = false;
    report.at = at;
    std::ostringstream out;
    out << "at trace step " << at << ": " << message;
    report.message = out.str();
  };

  const int num_processes = sched.num_processes();
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    const sim::TraceStep& event = trace.steps[i];
    // A corrupted trace (hand-persisted literals invite typos) must be
    // rejected cleanly, never indexed with.
    if (event.pid < 0 || event.pid >= num_processes) {
      fail(i, "trace names pid " + std::to_string(event.pid) + " but the "
              "system has " + std::to_string(num_processes) + " processes");
      return report;
    }
    if (event.is_crash()) {
      if (side.crashed(event.pid)) {
        fail(i, "trace crashes an already-crashed pid");
        return report;
      }
      side.crash(event.pid);
    } else if (event.start) {
      if (!side.can_start(event.pid)) {
        fail(i, "trace invokes an operation the workload does not provide");
        return report;
      }
      side.start(event.pid);
    } else {
      if (!side.busy(event.pid) || !side.runnable(event.pid)) {
        fail(i, "no runnable operation for the traced step");
        return report;
      }
      // The re-execution must retrace the recorded annotation exactly.
      const int obj = side.pending_object(event.pid);
      const std::string_view kind = side.pending_kind(event.pid);
      if (event.object >= 0 && (obj != event.object || kind != event.kind)) {
        std::ostringstream out;
        out << "re-execution deviates from the recorded trace: pending ("
            << obj << ", " << kind << ") vs recorded (" << event.object
            << ", " << event.kind << ")";
        fail(i, out.str());
        return report;
      }
      side.step(event.pid);
      ++report.steps_executed;
    }
    if (side.reap(event.pid).has_value()) ++report.responses;
  }
  return report;
}

/// Implementation wrapper that logs every invoked operation per pid while
/// forwarding to the wrapped implementation — how a workload is captured
/// from runs whose operations are chosen dynamically (the impossibility
/// adversaries), so the recorded schedule can be replayed from a fixed
/// per-process op sequence.
template <spec::SequentialSpec S, typename Impl>
class RecordingImpl {
 public:
  RecordingImpl(Impl& inner, std::vector<std::vector<typename S::Op>>& log)
      : inner_(inner), log_(log) {}

  sim::OpTask<typename S::Resp> apply(int pid, typename S::Op op) {
    log_[static_cast<std::size_t>(pid)].push_back(op);
    return inner_.apply(pid, op);
  }

 private:
  Impl& inner_;
  std::vector<std::vector<typename S::Op>>& log_;
};

}  // namespace hi::verify
