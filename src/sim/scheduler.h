// The step scheduler of the simulated asynchronous system.
//
// The scheduler owns the process table. At most one high-level operation is
// active per process at a time (as in the paper's model, where a process
// invokes operations sequentially). Starting an operation "primes" its
// coroutine — runs the purely-local prefix up to the first shared-memory
// primitive — so the invariant holds that a runnable process always has a
// pending primitive, and step(pid) executes exactly one primitive followed
// by local computation. This also lets adversaries inspect *which base
// object* a process will access next before granting it a step (Lemma 16
// needs exactly this power).
//
// Optional trace recording (record_to): every start()/step() appends one
// TraceStep — (pid, start) for invocations, (pid, object, kind) for
// primitive steps — yielding a ScheduleTrace that re-executes the
// interleaving deterministically (verify/replay.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/task.h"
#include "sim/trace.h"

namespace hi::sim {

class Scheduler {
 public:
  explicit Scheduler(int num_processes) : processes_(num_processes) {
    for (int pid = 0; pid < num_processes; ++pid) processes_[pid].pid = pid;
  }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_processes() const { return static_cast<int>(processes_.size()); }

  const ProcessState& process(int pid) const { return processes_.at(pid); }

  /// Begin an operation for process `pid`. The task must outlive the
  /// operation (the harness keeps it). Runs local computation up to the
  /// first primitive; consumes no step.
  template <typename T>
  void start(int pid, OpTask<T>& task) {
    ProcessState& ps = processes_.at(pid);
    assert(!ps.active && "process already has a pending operation");
    assert(!ps.crashed && "start on a crashed process");
    assert(task.valid());
    if (trace_ != nullptr) trace_->steps.push_back({pid, /*start=*/true});
    task.bind(&ps);
    ps.active = true;
    ps.done = false;
    ps.resume_point = task.handle();
    ps.pending = {};
    resume(ps);
  }

  bool runnable(int pid) const { return processes_.at(pid).runnable(); }

  /// True once the active operation's coroutine has run to completion; the
  /// harness then takes the result and calls finish().
  bool op_finished(int pid) const {
    const ProcessState& ps = processes_.at(pid);
    return ps.active && ps.done;
  }

  /// Acknowledge completion (the response event of the high-level operation).
  void finish(int pid) {
    ProcessState& ps = processes_.at(pid);
    assert(ps.active && ps.done);
    ps.active = false;
  }

  /// Abandon a pending operation mid-flight (torn-down executions, e.g. the
  /// adversary constructions end with the reader still pending). The caller
  /// destroys the OpTask, which frees the suspended frames.
  void abandon(int pid) {
    ProcessState& ps = processes_.at(pid);
    ps.active = false;
    ps.done = true;
    ps.resume_point = nullptr;
    ps.pending = {};
  }

  /// Crash-fail process `pid`: it permanently halts at its current primitive
  /// boundary and never takes another step (§2's crash failures — the event
  /// the wait-freedom and state-quiescent-HI claims quantify over). Unlike
  /// abandon(), a crash is a *scheduling decision*: it is recorded in the
  /// trace (kind "crash"), the pending operation stays pending forever (its
  /// invocation remains in the history with no response — the
  /// linearizability checker already treats such ops as may-or-may-not take
  /// effect), and start()/step() on the pid are rejected from here on. The
  /// suspended coroutine frame is freed when the owning OpTask is destroyed.
  /// Crashing an idle process is allowed and only forbids future starts.
  void crash(int pid) {
    ProcessState& ps = processes_.at(pid);
    assert(!ps.crashed && "process already crashed");
    if (trace_ != nullptr) trace_->steps.push_back(TraceStep::crash(pid));
    ps.crashed = true;
    ps.resume_point = nullptr;
    ps.pending = {};
  }

  bool crashed(int pid) const { return processes_.at(pid).crashed; }

  /// Pids that have not crashed — the survivors a crash audit drives to
  /// quiescence.
  std::vector<int> surviving_processes() const {
    std::vector<int> pids;
    for (const ProcessState& ps : processes_) {
      if (!ps.crashed) pids.push_back(ps.pid);
    }
    return pids;
  }

  /// Execute one step of process `pid`: its pending primitive plus the local
  /// computation up to the next primitive or completion.
  void step(int pid) {
    ProcessState& ps = processes_.at(pid);
    assert(ps.runnable() && "step on a non-runnable process");
    if (trace_ != nullptr) {
      // Annotate with the primitive about to execute (pending is set at
      // suspension, consumed by this resume).
      trace_->steps.push_back(
          {pid, /*start=*/false, ps.pending.object_id, ps.pending.kind});
    }
    resume(ps);
    ++total_steps_;
  }

  /// Append every subsequent start()/step() event to `trace` (nullptr stops
  /// recording). Observer-side: recording never alters scheduling.
  void record_to(ScheduleTrace* trace) { trace_ = trace; }

  /// The base object process `pid` will access on its next step (-1 if not
  /// runnable). Observer-side introspection; consumes nothing.
  int pending_object(int pid) const {
    const ProcessState& ps = processes_.at(pid);
    return ps.runnable() ? ps.pending.object_id : -1;
  }
  const char* pending_kind(int pid) const {
    const ProcessState& ps = processes_.at(pid);
    return ps.runnable() ? ps.pending.kind : "";
  }

  std::uint64_t total_steps() const { return total_steps_; }
  std::uint64_t steps_of(int pid) const { return processes_.at(pid).steps; }

  std::vector<int> runnable_processes() const {
    std::vector<int> pids;
    for (const ProcessState& ps : processes_) {
      if (ps.runnable()) pids.push_back(ps.pid);
    }
    return pids;
  }

 private:
  void resume(ProcessState& ps) {
    ProcessState* saved = detail::current_process();
    detail::current_process() = &ps;
    const std::coroutine_handle<> frame = ps.resume_point;
    ps.resume_point = nullptr;
    frame.resume();
    detail::current_process() = saved;
  }

  std::vector<ProcessState> processes_;
  std::uint64_t total_steps_ = 0;
  ScheduleTrace* trace_ = nullptr;
};

}  // namespace hi::sim
