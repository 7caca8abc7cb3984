// Wait-free-simulated Alg 2/3 register: the Kogan–Petrank-style combinator
// (algo/wait_free_sim.h) applied to the lock-free state-quiescent-HI
// register, behind the SWSR spec/pid harness interface.
//
// Unlike SwsrRegister, this harness FORWARDS the pid into the algorithm:
// the combinator's operation records, contention-failure streaks and
// helped-completion accounting are all per-process, so the algorithm needs
// to know who is running. Like the other spec harnesses it runs on the
// scheduler-driven backend (env::SimEnv).
#pragma once

#include <cassert>
#include <cstdint>

#include "algo/wait_free_sim.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/register_spec.h"

namespace hi::core {

/// Spec-driven harness over the wait-free-simulated register. The fixed
/// pids pin the paper's p_w / p_r roles; the combinator itself is sized for
/// both processes (records + help queue entries for each).
template <typename Bins>
class WaitFreeSimRegisterT {
 public:
  using Op = spec::RegisterSpec::Op;
  using Resp = spec::RegisterSpec::Resp;
  using Alg = algo::WaitFreeSimHiAlg<env::SimEnv, Bins>;

  WaitFreeSimRegisterT(sim::Memory& memory, const spec::RegisterSpec& spec,
                       int writer_pid, int reader_pid,
                       std::uint32_t fast_limit = 1)
      : alg_(memory, spec.num_values(), spec.initial_state(),
             /*num_processes=*/(writer_pid > reader_pid ? writer_pid
                                                        : reader_pid) +
                 1,
             fast_limit),
        writer_pid_(writer_pid),
        reader_pid_(reader_pid) {}

  sim::OpTask<Resp> apply(int pid, Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read(pid);
    return write(pid, op.value);
  }

  sim::OpTask<Resp> read(int pid) {
    assert(pid == reader_pid_);
    return alg_.read(pid);
  }

  sim::OpTask<Resp> write(int pid, std::uint32_t value) {
    assert(pid == writer_pid_);
    return alg_.write(pid, value);
  }

  Alg& alg() { return alg_; }
  const Alg& alg() const { return alg_; }
  int writer_pid() const { return writer_pid_; }
  int reader_pid() const { return reader_pid_; }

 private:
  Alg alg_;
  int writer_pid_;
  int reader_pid_;
};

/// Padded-per-bit inner layout: the paper-exact Alg 2/3 primitive sequence
/// under the combinator — what the step-exact and explorer tests drive.
using WaitFreeSimHiRegister =
    WaitFreeSimRegisterT<env::PaddedBins<env::SimEnv>>;

/// Packed inner layout (64 bins per word).
using PackedWaitFreeSimHiRegister =
    WaitFreeSimRegisterT<env::PackedBins<env::SimEnv>>;

}  // namespace hi::core
