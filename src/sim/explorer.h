// Exhaustive schedule exploration: bounded model checking over ALL
// interleavings of a small workload — naively, or with dynamic
// partial-order reduction (DPOR).
//
// The randomized Runner samples the schedule space; this explorer enumerates
// it. A schedule is the sequence of scheduling decisions (invoke the next
// operation of process p / grant one step to process p). The simulator is
// deterministic given that sequence, so depth-first enumeration with
// re-execution visits every reachable execution of the workload exactly
// once, up to the given depth/width caps. Coroutine frames cannot be forked,
// so branching nodes re-execute their decision prefix — but straight-line
// suffixes (exactly one candidate decision) step the live replay
// incrementally, keeping a non-branching execution O(n) instead of O(n²).
//
// DPOR (ExploreMode::kDpor) prunes provably-equivalent interleavings using
// the per-decision (base object, kind) access annotations the scheduler
// already records into ScheduleTrace. Two executed decisions of different
// processes are DEPENDENT iff
//   * one completed an operation (emitted a response) and the other invoked
//     one — swapping them would flip a real-time precedence edge, which
//     linearizability checking must see both ways; or
//   * they touch the same base object and at least one is not a "read".
// Everything else commutes: swapping an adjacent independent pair yields
// the same memory, the same responses, and the same precedence relation, so
// only one order is explored. Classic backtrack sets (Flanagan–Godefroid
// style, with the conservative "add at every earlier dependent event"
// variant — extra backtrack points cost executions, never soundness) plus
// sleep sets do the pruning; a sleeping process's unexecuted next decision
// has an unknown completion flag, so it is conservatively treated as
// completing (waking it when in doubt is sound, merely less reduction).
// ExploreStats::executions_pruned counts sleep-set-blocked walks; the
// unreduced total for a reduction-ratio assertion is obtained by re-running
// the same workload under ExploreMode::kNaive (tests/test_explorer_dpor.cpp
// asserts both the ratio and history-set equality).
//
// Crash enumeration (ExploreLimits::max_crashes > 0): the adversary may
// also CRASH a mid-operation process instead of granting its step —
// Scheduler::crash permanently halts it, its operation stays pending
// forever, and the walk completes when the survivors drain. This enumerates
// every ≤ k-crash configuration of the workload (crash position × crashed
// pid), which is what the wait-freedom and crash-point-HI audits quantify
// over (verify/crash_audit.h). Crash decisions occupy their own mask slots
// (pid + 32 — so ≤ 32 processes with crashes on) and are conservatively
// dependent on every other event under DPOR.
//
// At every visited configuration the caller's observer runs (memory
// snapshots for the HI checker at the appropriate observation points); every
// *complete* execution's history is handed to the caller for linearizability
// checking. Tests use this to verify Algorithms 2, 4, 6 and the perfect-HI
// set over every interleaving of small op mixes — the strongest evidence
// this repository produces short of the paper's proofs. NOTE: under DPOR
// the observer sees one representative configuration sequence per
// equivalence class, not every configuration of every interleaving — HI
// canonical-map checks that need full coverage should keep kNaive.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "spec/spec.h"
#include "verify/history.h"

namespace hi::sim {

/// One scheduling decision. `crash == true` is the adversary's fault
/// decision: permanently halt `pid` at its current primitive boundary
/// (Scheduler::crash); it consumes no step and the pid is never schedulable
/// again. Existing two-field aggregate literals keep their meaning (crash
/// defaults to false).
struct Decision {
  int pid = -1;
  bool start = false;  // true: invoke next op; false: grant one step
  bool crash = false;  // true: crash-fail the process (start is ignored)

  friend bool operator==(const Decision&, const Decision&) = default;
};

enum class ExploreMode : std::uint8_t {
  kNaive,  // enumerate every interleaving (full configuration coverage)
  kDpor,   // skip interleavings equivalent under the dependence relation
};

struct ExploreStats {
  std::uint64_t executions_complete = 0;
  std::uint64_t executions_truncated = 0;  // hit max_depth
  std::uint64_t executions_pruned = 0;     // DPOR: sleep-set-blocked walks
  std::uint64_t configurations = 0;
  bool exhausted = true;  // false if max_executions cap was hit
};

struct ExploreLimits {
  std::size_t max_depth = 64;
  std::uint64_t max_executions = 2'000'000;
  ExploreMode mode = ExploreMode::kNaive;
  /// Enumerate crash configurations with at most this many crash failures
  /// per execution (0 = crash-free exploration, the default). A crash is
  /// enabled for any mid-operation process; each one multiplies the
  /// branching factor, so keep workloads small when k > 0. Under kDpor a
  /// crash decision is conservatively dependent on every other event (the
  /// issue-level relation "a crash depends on every later step of the
  /// crashed pid" plus the enabledness edges a halt induces) — sound, with
  /// reduction still applied to the crash-free segments.
  std::uint32_t max_crashes = 0;
};

/// A freshly constructed system under test. The factory must produce an
/// identical initial system every time (determinism is what makes
/// re-execution sound).
template <typename S, typename System>
concept ExplorableSystem = spec::SequentialSpec<S> && requires(System sys) {
  { sys.scheduler() } -> std::same_as<Scheduler&>;
  { sys.memory() } -> std::same_as<Memory&>;
  {
    sys.apply(0, std::declval<typename S::Op>())
  } -> std::same_as<OpTask<typename S::Resp>>;
};

template <spec::SequentialSpec S, typename System>
class Explorer {
 public:
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  using Hist = verify::History<Op, Resp>;
  using Factory = std::function<std::unique_ptr<System>()>;
  /// Observer invoked at every configuration of every (re-)execution along
  /// fresh branches: (system, history-so-far, pending op count,
  /// state-changing pending count).
  using Observer = std::function<void(System&, const Hist&, int, int)>;
  /// Invoked once per complete execution with its full history.
  using OnComplete = std::function<void(System&, const Hist&)>;

  Explorer(const S& spec, Factory factory,
           std::vector<std::vector<Op>> workload)
      : spec_(spec), factory_(std::move(factory)), workload_(std::move(workload)) {}

  ExploreStats explore(const ExploreLimits& limits, Observer observer,
                       OnComplete on_complete) {
    stats_ = ExploreStats{};
    limits_ = limits;
    observer_ = std::move(observer);
    on_complete_ = std::move(on_complete);
    prefix_.clear();
    nodes_.clear();
    dfs();
    return stats_;
  }

  /// The decision path of the execution currently being visited — valid
  /// inside observer/on_complete callbacks. Capture a copy there to persist
  /// a counterexample schedule; feed it to trace_of() for replay.
  const std::vector<Decision>& current_prefix() const { return prefix_; }

  /// Re-execute `decisions` on a fresh system with trace recording enabled,
  /// yielding the (pid, kind, object)-annotated ScheduleTrace that
  /// verify/replay.h re-executes. Decisions must be consistent with
  /// this explorer's workload (e.g. a prefix captured via current_prefix()).
  ScheduleTrace trace_of(const std::vector<Decision>& decisions) {
    ScheduleTrace trace;
    Replay r = fresh_replay();
    r.system->scheduler().record_to(&trace);
    for (const Decision& d : decisions) apply_decision(r, d);
    r.system->scheduler().record_to(nullptr);
    return trace;
  }

  /// Tolerantly execute an arbitrary decision sequence on a fresh system.
  /// Returns the induced history, or nullopt if some decision was not
  /// enabled at its position — shrinkers (verify/shrink.h) probe candidate
  /// subsequences this way, and most candidates are simply invalid. Runs no
  /// observer and does not touch exploration state.
  std::optional<Hist> try_execute(const std::vector<Decision>& decisions) {
    Replay r = fresh_replay();
    const int n = r.system->scheduler().num_processes();
    for (const Decision& d : decisions) {
      if (d.pid < 0 || d.pid >= n) return std::nullopt;
      if (d.crash) {
        // Valid exactly where a step would be: a mid-operation, un-crashed
        // process. (Shrinking does not consult max_crashes — a candidate
        // subsequence of a valid crash schedule never has more crashes.)
        if (!r.tasks[d.pid].has_value() ||
            !r.system->scheduler().runnable(d.pid)) {
          return std::nullopt;
        }
      } else if (d.start) {
        if (r.tasks[d.pid].has_value()) return std::nullopt;
        if (d.pid >= static_cast<int>(workload_.size()) ||
            r.next_op[d.pid] >= workload_[d.pid].size()) {
          return std::nullopt;
        }
      } else {
        if (!r.tasks[d.pid].has_value() ||
            !r.system->scheduler().runnable(d.pid)) {
          return std::nullopt;
        }
      }
      apply_decision(r, d);
    }
    return std::move(r.history);
  }

 private:
  struct Replay {
    std::unique_ptr<System> system;
    std::vector<std::optional<OpTask<Resp>>> tasks;
    std::vector<std::size_t> next_op;
    std::vector<std::size_t> hist_index;
    std::vector<bool> state_changing;
    Hist history;
    int pending = 0;
    int state_changing_pending = 0;
    std::uint32_t crashes_used = 0;
  };

  /// One enabled decision plus the (object, kind) annotation of the
  /// primitive it would execute (steps only; starts run no shared access
  /// while priming, so they carry no annotation).
  struct EnabledEvent {
    Decision d;
    int object = -1;
    const char* kind = "";
  };

  /// Exploration-stack entry: the state BEFORE prefix_[i] plus the executed
  /// decision's annotation. Process sets are pid bitmasks (the scheduler
  /// caps processes at 64; replay() asserts it).
  struct Node {
    std::vector<EnabledEvent> enabled;
    std::uint64_t enabled_mask = 0;
    std::uint64_t backtrack = 0;  // pids still to explore from here (DPOR)
    std::uint64_t done = 0;       // pids already explored from here
    std::uint64_t sleep = 0;      // pids whose exploration here is redundant
    EnabledEvent taken;           // the decision executed from this node
    bool completed = false;       // executing `taken` emitted a response
  };

  static constexpr std::uint64_t bit(int pid) { return std::uint64_t{1} << pid; }

  /// Mask slot of a decision. Start/step decisions of pid p use bit p; the
  /// crash decision of pid p uses bit p + 32, so "step p" and "crash p" are
  /// distinct alternatives in the enabled/backtrack/sleep/done sets (a pid
  /// has at most one non-crash decision enabled at a time, so non-crash
  /// events still share one slot). Caps processes at 32 when crash
  /// enumeration is on (replay() asserts).
  static constexpr int slot(const Decision& d) {
    return d.crash ? d.pid + 32 : d.pid;
  }
  static constexpr std::uint64_t event_bit(const EnabledEvent& e) {
    return bit(slot(e.d));
  }

  static bool read_only_kind(const char* kind) {
    return std::string_view(kind) == "read";
  }

  /// The DPOR dependence relation over executed decisions (see header
  /// comment). `a_resp` / `b_resp`: the decision completed an operation.
  /// Crash decisions are conservatively dependent on everything: a crash
  /// disables every later event of its pid (the issue-level dependence) and
  /// changes which helping paths other processes take, so no commutation is
  /// assumed — extra interleavings cost executions, never soundness.
  static bool dependent(const EnabledEvent& a, bool a_resp,
                        const EnabledEvent& b, bool b_resp) {
    if (a.d.crash || b.d.crash) return true;
    if (a.d.pid == b.d.pid) return true;  // program order
    if ((a_resp && b.d.start) || (b_resp && a.d.start)) return true;
    return a.object >= 0 && a.object == b.object &&
           !(read_only_kind(a.kind) && read_only_kind(b.kind));
  }

  /// A freshly constructed system with empty per-process bookkeeping — the
  /// starting state of every (re-)execution.
  Replay fresh_replay() {
    Replay r;
    r.system = factory_();
    const int n = r.system->scheduler().num_processes();
    r.tasks.resize(n);
    r.next_op.assign(n, 0);
    r.hist_index.assign(n, 0);
    r.state_changing.assign(n, false);
    return r;
  }

  /// Re-execute the current prefix; returns the replayed state.
  /// `observe_from` marks how many trailing decisions are new (never
  /// observed before), so observations are not double-counted across
  /// re-executions. `last_completed` (optional) receives whether the final
  /// decision completed an operation.
  Replay replay(std::size_t observe_from, bool* last_completed = nullptr) {
    Replay r = fresh_replay();
    assert(r.system->scheduler().num_processes() <=
               (limits_.max_crashes > 0 ? 32 : 64) &&
           "exploration event sets are 64-bit masks (crash decisions use "
           "the upper 32 slots)");
    for (std::size_t i = 0; i < prefix_.size(); ++i) {
      const bool completed = apply_decision(r, prefix_[i]);
      if (last_completed != nullptr && i + 1 == prefix_.size()) {
        *last_completed = completed;
      }
      if (i >= observe_from && observer_) {
        ++stats_.configurations;
        observer_(*r.system, r.history, r.pending, r.state_changing_pending);
      }
    }
    return r;
  }

  /// Returns true iff the decision completed an operation (start decisions
  /// can too: a zero-primitive op such as an absorbed WriteMax responds at
  /// its invoking event).
  bool apply_decision(Replay& r, const Decision& d) {
    Scheduler& sched = r.system->scheduler();
    if (d.crash) {
      // Fault decision: the pid halts forever. Its pending operation stays
      // invoked-without-response in the history (the linearizability
      // checker already lets such ops take effect or not); the suspended
      // frame is freed when r.tasks[d.pid] is destroyed with the Replay.
      sched.crash(d.pid);
      ++r.crashes_used;
      return false;
    }
    if (d.start) {
      assert(!r.tasks[d.pid].has_value());
      const Op op = workload_[d.pid][r.next_op[d.pid]++];
      r.hist_index[d.pid] = r.history.invoke(d.pid, op);
      r.state_changing[d.pid] = !spec_.is_read_only(op);
      r.tasks[d.pid].emplace(r.system->apply(d.pid, op));
      sched.start(d.pid, *r.tasks[d.pid]);
      ++r.pending;
      if (r.state_changing[d.pid]) ++r.state_changing_pending;
    } else {
      sched.step(d.pid);
    }
    if (r.tasks[d.pid].has_value() && sched.op_finished(d.pid)) {
      r.history.respond(r.hist_index[d.pid], r.tasks[d.pid]->take_result());
      sched.finish(d.pid);
      r.tasks[d.pid].reset();
      --r.pending;
      if (r.state_changing[d.pid]) {
        --r.state_changing_pending;
        r.state_changing[d.pid] = false;
      }
      return true;
    }
    return false;
  }

  std::vector<EnabledEvent> enabled_events(const Replay& r) const {
    std::vector<EnabledEvent> events;
    const Scheduler& sched = r.system->scheduler();
    const int n = sched.num_processes();
    const bool crash_budget = r.crashes_used < limits_.max_crashes;
    for (int pid = 0; pid < n; ++pid) {
      if (r.tasks[pid].has_value()) {
        if (sched.runnable(pid)) {
          events.push_back({{pid, false}, sched.pending_object(pid),
                            sched.pending_kind(pid)});
          // The adversary may crash any mid-operation process at its
          // current primitive boundary instead of granting the step.
          // (Crashing an idle process only deletes the tail of its
          // workload — a strictly smaller crash-free workload, so it is
          // not enumerated separately.)
          if (crash_budget) {
            events.push_back(
                {{pid, false, /*crash=*/true}, -1, TraceStep::kCrashKind});
          }
        }
      } else if (pid < static_cast<int>(workload_.size()) &&
                 r.next_op[pid] < workload_[pid].size()) {
        events.push_back({{pid, true}, -1, ""});
      }
    }
    return events;
  }

  void add_backtrack(Node& node, int event_slot) {
    if (node.enabled_mask & bit(event_slot)) {
      node.backtrack |= bit(event_slot);
    } else {
      node.backtrack |= node.enabled_mask;
    }
  }

  /// Race detection for the executed event at depth k: every earlier
  /// dependent event of another process marks a backtrack point (the
  /// conservative no-happens-before-filter variant; see header comment).
  /// Same-pid pairs are skipped as program-ordered (never co-enabled) —
  /// EXCEPT when the later event is a crash: "crash p" is co-enabled with
  /// every step of p it follows, and crashing p earlier is a genuinely
  /// different configuration that must get its own branch.
  void race_detect(std::size_t k) {
    const EnabledEvent taken = nodes_[k].taken;
    const bool completed = nodes_[k].completed;
    for (std::size_t j = 0; j < k; ++j) {
      Node& nj = nodes_[j];
      if (nj.taken.d.pid == taken.d.pid && !taken.d.crash) continue;
      if (!dependent(nj.taken, nj.completed, taken, completed)) continue;
      add_backtrack(nj, slot(taken.d));
    }
  }

  /// Race detection for a leaf's UNEXECUTED pending decisions (truncated or
  /// sleep-blocked walks end with work outstanding): their completion flag
  /// is unknown, so assume they would complete.
  void race_detect_pending(const Node& leaf, std::size_t depth) {
    for (const EnabledEvent& e : leaf.enabled) {
      for (std::size_t j = 0; j < depth; ++j) {
        Node& nj = nodes_[j];
        if (nj.taken.d.pid == e.d.pid && !e.d.crash) continue;
        if (!dependent(e, /*a_resp=*/true, nj.taken, nj.completed)) continue;
        add_backtrack(nj, slot(e.d));
      }
    }
  }

  /// Sleep set for the node at `depth`: parent sleepers whose (unexecuted,
  /// hence conservatively completing) next decision is independent of the
  /// decision the parent executed stay asleep.
  std::uint64_t child_sleep(std::size_t depth) const {
    if (depth == 0) return 0;
    const Node& parent = nodes_[depth - 1];
    std::uint64_t sleep = 0;
    std::uint64_t candidates = parent.sleep & ~event_bit(parent.taken);
    for (const EnabledEvent& q : parent.enabled) {
      if (!(candidates & event_bit(q))) continue;
      if (!dependent(q, /*a_resp=*/true, parent.taken, parent.completed)) {
        sleep |= event_bit(q);
      }
    }
    return sleep;
  }

  void observe(const Replay& r) {
    ++stats_.configurations;
    if (observer_) {
      observer_(*r.system, r.history, r.pending, r.state_changing_pending);
    }
  }

  void dfs() {
    if (!stats_.exhausted) return;
    if (stats_.executions_complete + stats_.executions_truncated +
            stats_.executions_pruned >=
        limits_.max_executions) {
      stats_.exhausted = false;
      return;
    }
    const bool dpor = limits_.mode == ExploreMode::kDpor;
    const std::size_t base = prefix_.size();
    bool last_completed = false;
    Replay r = replay(base == 0 ? 0 : base - 1, &last_completed);
    if (dpor && base > 0) {
      nodes_[base - 1].completed = last_completed;
      race_detect(base - 1);
    }

    // Straight-line tail: while exactly one candidate decision exists, step
    // the live replay instead of recursing (each recursion re-executes the
    // whole prefix; a chain of forced moves must not).
    for (;;) {
      Node node;
      node.enabled = enabled_events(r);
      for (const EnabledEvent& e : node.enabled) {
        node.enabled_mask |= event_bit(e);
      }
      if (node.enabled.empty()) {
        ++stats_.executions_complete;
        if (on_complete_) on_complete_(*r.system, r.history);
        unwind_to(base);
        return;
      }
      if (prefix_.size() >= limits_.max_depth) {
        ++stats_.executions_truncated;
        if (dpor) race_detect_pending(node, prefix_.size());
        unwind_to(base);
        return;
      }
      node.sleep = dpor ? child_sleep(prefix_.size()) : 0;
      const std::uint64_t candidates = node.enabled_mask & ~node.sleep;
      if (candidates == 0) {
        // Every enabled decision is asleep: any walk from here repeats an
        // execution already explored (up to equivalence). Count and stop.
        ++stats_.executions_pruned;
        race_detect_pending(node, prefix_.size());
        unwind_to(base);
        return;
      }
      if ((candidates & (candidates - 1)) != 0) {
        nodes_.push_back(std::move(node));
        break;  // branching node: handled recursively below
      }
      // Exactly one candidate: backtrack additions here can only name the
      // chosen pid (done) or sleeping pids (redundant by the sleep-set
      // argument), so this node never needs revisiting.
      EnabledEvent chosen{};
      for (const EnabledEvent& e : node.enabled) {
        if (candidates & event_bit(e)) {
          chosen = e;
          break;
        }
      }
      node.backtrack = candidates;
      node.done = candidates;
      node.taken = chosen;
      nodes_.push_back(std::move(node));
      prefix_.push_back(chosen.d);
      nodes_.back().completed = apply_decision(r, chosen.d);
      observe(r);
      if (dpor) race_detect(prefix_.size() - 1);
    }

    // Branching node: free the live replay (children re-execute), then
    // explore candidates — under DPOR only backtracked ones, and race
    // detection inside a child's subtree may add more for later rounds.
    r = Replay{};
    const std::size_t depth = prefix_.size();
    {
      Node& node = nodes_[depth];
      if (dpor) {
        for (const EnabledEvent& e : node.enabled) {
          if (!(node.sleep & event_bit(e))) {
            node.backtrack |= event_bit(e);
            break;
          }
        }
        // Crash decisions are dependent on EVERY event, so a persistent set
        // containing anything must contain every enabled crash decision.
        // Race detection alone would never schedule them: it only adds
        // events that some walk executed, and no initial walk takes a crash.
        for (const EnabledEvent& e : node.enabled) {
          if (e.d.crash) node.backtrack |= event_bit(e);
        }
      } else {
        node.backtrack = node.enabled_mask;
      }
    }
    for (;;) {
      // Re-index every round: children push into nodes_, invalidating
      // references, and grow this node's backtrack set via race detection.
      const std::uint64_t avail =
          nodes_[depth].backtrack & ~nodes_[depth].done & ~nodes_[depth].sleep;
      if (avail == 0) break;
      EnabledEvent chosen{};
      for (const EnabledEvent& e : nodes_[depth].enabled) {
        if (avail & event_bit(e)) {
          chosen = e;
          break;
        }
      }
      nodes_[depth].done |= event_bit(chosen);
      nodes_[depth].taken = chosen;  // child fills .completed after replay
      prefix_.push_back(chosen.d);
      dfs();
      prefix_.pop_back();
      if (!stats_.exhausted) {
        unwind_to(base);
        return;
      }
      // Explored: later siblings may skip it until a dependent event wakes
      // it (sleep-set pruning).
      nodes_[depth].sleep |= event_bit(chosen);
    }
    unwind_to(base);
  }

  /// Pop everything this dfs() call pushed — including the straight-line
  /// chain tail, which extends prefix_ without a matching sibling-loop pop.
  void unwind_to(std::size_t base) {
    nodes_.resize(base);
    prefix_.resize(base);
  }

  const S& spec_;
  Factory factory_;
  std::vector<std::vector<Op>> workload_;
  ExploreLimits limits_;
  Observer observer_;
  OnComplete on_complete_;
  std::vector<Decision> prefix_;
  std::vector<Node> nodes_;
  ExploreStats stats_;
};

}  // namespace hi::sim
