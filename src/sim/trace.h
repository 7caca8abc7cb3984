// Schedule traces: a recorded sequence of scheduling events, precise enough
// to re-execute an interleaving deterministically.
//
// A trace is the persisted form of an interleaving: the simulator (or the
// exhaustive explorer, or the impossibility adversaries) records the exact
// sequence of (invoke next op of p) / (grant one step to p) events it
// scheduled, annotated with the base object and primitive kind each step
// executed; verify/replay.h then marches a fresh system through the
// identical sequence — over the rt/cells.h std::atomic bodies SimEnv steps
// — cross-checking every annotation. A deviation pinpoints the first step
// at which the algorithm no longer retraces the recording.
//
// Traces are recorded via Scheduler::record_to (every start()/step() lands
// one TraceStep), from Runner runs (Options.trace), or from explorer
// Decision paths (Explorer::trace_of); pretty() renders a trace as a C++
// initializer list so a failing schedule can be persisted verbatim as a
// regression test.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hi::sim {

/// One scheduling event. `start == true`: the process invokes its next
/// high-level operation (consumes no step; the coroutine is primed up to its
/// first primitive). `start == false`: the process executes exactly one
/// primitive step; `object`/`kind` record WHICH primitive was pending when
/// the step was granted (the Lemma 16 adversary's observable), and
/// verify/replay.h cross-checks both against the re-executing system.
///
/// A third event kind rides on the step shape: `kind == "crash"` (with
/// `object == -1`) records a crash failure — the adversary permanently
/// halts the process at this point in the schedule; it consumes no step and
/// the process never appears in the trace again. Encoding crashes as an
/// annotated step keeps every persisted trace literal valid and lets
/// crashed schedules record, replay, shrink and pretty-print through the
/// existing machinery unchanged.
struct TraceStep {
  int pid = -1;
  bool start = false;
  int object = -1;        // step events: base-object id (-1 = unannotated)
  const char* kind = "";  // step events: primitive kind ("read", "cas", ...)

  static constexpr const char* kCrashKind = "crash";

  /// Crash event for `pid` (the adversary's halt decision, Scheduler::crash).
  static TraceStep crash(int pid) {
    return {pid, /*start=*/false, /*object=*/-1, kCrashKind};
  }

  bool is_crash() const {
    return !start && std::string_view(kind) == kCrashKind;
  }

  friend bool operator==(const TraceStep& a, const TraceStep& b) {
    return a.pid == b.pid && a.start == b.start && a.object == b.object &&
           std::string_view(a.kind) == std::string_view(b.kind);
  }
};

/// A recorded schedule: the deterministic re-execution recipe for one
/// interleaving. Given the same per-process operation sequences, replaying
/// the steps in order reproduces the execution exactly.
struct ScheduleTrace {
  std::vector<TraceStep> steps;

  std::size_t size() const { return steps.size(); }
  bool empty() const { return steps.empty(); }
  void clear() { steps.clear(); }

  friend bool operator==(const ScheduleTrace&, const ScheduleTrace&) = default;

  /// Renders the trace as a C++ initializer list (valid TraceStep aggregate
  /// syntax), so a failing fuzzer/explorer schedule can be pasted into a
  /// regression test verbatim. Example output:
  ///
  ///   {{
  ///     {0, true}, {0, false, 0, "write"}, {1, true},
  ///     {1, false, 0, "read"},
  ///   }}
  std::string pretty(std::size_t per_line = 4) const {
    if (steps.empty()) return "{{}}";
    std::ostringstream out;
    out << "{{\n  ";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const TraceStep& s = steps[i];
      if (s.start) {
        out << "{" << s.pid << ", true}";
      } else {
        out << "{" << s.pid << ", false, " << s.object << ", \"" << s.kind
            << "\"}";
      }
      if (i + 1 < steps.size()) {
        out << ",";
        out << ((i + 1) % per_line == 0 ? "\n  " : " ");
      }
    }
    out << ",\n}}";
    return out.str();
  }
};

}  // namespace hi::sim
