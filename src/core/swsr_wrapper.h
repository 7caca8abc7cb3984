// The SWSR spec/pid harness wrapper, shared by every §4-style register
// algorithm: ONE wrapper body carries operations as sim::OpTask over the
// scheduler-driven backend (env::SimEnv) for every core/* register.
#pragma once

#include <cassert>
#include <cstdint>

#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/register_spec.h"

namespace hi::core {

/// Spec-driven harness interface over any SWSR register algorithm
/// `Alg<env::SimEnv>` exposing read()/write(v) (Algorithms 1, 2/3 and 4).
/// The pids fixed at construction pin the two roles (the paper's p_w and
/// p_r); the asserts document the single-writer single-reader restriction.
template <template <typename> class Alg>
class SwsrRegister {
 public:
  using Op = spec::RegisterSpec::Op;
  using Resp = spec::RegisterSpec::Resp;

  SwsrRegister(sim::Memory& memory, const spec::RegisterSpec& spec,
               int writer_pid, int reader_pid)
      : alg_(memory, spec.num_values(), spec.initial_state()),
        writer_pid_(writer_pid),
        reader_pid_(reader_pid) {}

  sim::OpTask<Resp> apply(int pid, Op op) {
    if (op.kind == spec::RegisterSpec::Kind::kRead) return read(pid);
    return write(pid, op.value);
  }

  sim::OpTask<Resp> read(int pid) {
    assert(pid == reader_pid_);
    (void)pid;
    return alg_.read();
  }

  sim::OpTask<Resp> write(int pid, std::uint32_t value) {
    assert(pid == writer_pid_);
    (void)pid;
    return alg_.write(value);
  }

  int writer_pid() const { return writer_pid_; }
  int reader_pid() const { return reader_pid_; }

 private:
  Alg<env::SimEnv> alg_;
  int writer_pid_;
  int reader_pid_;
};

}  // namespace hi::core
