// Strawman "state-quiescent HI queue with Peek" from binary registers — the
// candidate that Theorem 20 (§5.4 / Appendix C) dooms — simulator
// instantiation.
//
// Single-source: the algorithm body lives in algo/strawman_queue.h
// (StrawmanQueueAlg), templated over the execution environment; this file
// pins the environment to SimEnv, preserving the seed interface (spec-driven
// apply plus pid-checked peek/enqueue/dequeue). SimEnv steps the rt/cells.h
// atomics, so the Theorem 20 starvation schedules, persisted as
// ScheduleTrace literals, are hardware-atomics regression tests.
#pragma once

#include <cassert>

#include "algo/strawman_queue.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/queue_spec.h"

namespace hi::baseline {

/// Spec-driven harness wrapper over the scheduler-driven backend.
class StrawmanQueue {
 public:
  using Op = spec::QueueSpec::Op;
  using Resp = spec::QueueSpec::Resp;

  StrawmanQueue(sim::Memory& memory, const spec::QueueSpec& spec,
                int changer_pid, int reader_pid)
      : alg_(memory, spec.domain(), spec.capacity()),
        changer_pid_(changer_pid),
        reader_pid_(reader_pid) {}

  sim::OpTask<Resp> apply(int pid, Op op) {
    switch (op.kind) {
      case spec::QueueSpec::Kind::kPeek: return peek(pid);
      case spec::QueueSpec::Kind::kEnqueue: return enqueue(pid, op.value);
      case spec::QueueSpec::Kind::kDequeue: return dequeue(pid);
    }
    return peek(pid);  // unreachable
  }

  /// Peek: retry-scan F for the one-hot front bit. Lock-free only.
  sim::OpTask<Resp> peek(int pid) {
    assert(pid == reader_pid_);
    (void)pid;
    return alg_.peek();
  }

  sim::OpTask<Resp> enqueue(int pid, std::uint8_t value) {
    assert(pid == changer_pid_);
    (void)pid;
    return alg_.enqueue(value);
  }

  sim::OpTask<Resp> dequeue(int pid) {
    assert(pid == changer_pid_);
    (void)pid;
    return alg_.dequeue();
  }

 private:
  algo::StrawmanQueueAlg<env::SimEnv> alg_;
  int changer_pid_;
  int reader_pid_;
};

}  // namespace hi::baseline
