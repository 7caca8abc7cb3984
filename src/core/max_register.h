// Wait-free state-quiescent-HI max register from binary registers (§5.1) —
// simulator instantiation.
//
// Single-source: the algorithm body lives in algo/max_register.h
// (HiMaxRegisterAlg), templated over the execution environment; this file
// pins the environment to SimEnv, preserving the seed interface (the spec
// supplies K and the initial maximum; reads and writes are pid-checked
// SWSR). On hardware the SAME body runs as
// algo::HiMaxRegisterAlgPacked<env::RtEnv>.
#pragma once

#include "algo/max_register.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/max_register_spec.h"

namespace hi::core {

/// Spec-driven harness wrapper over the scheduler-driven backend.
/// `Bins` selects the bin-array layout (padded-per-bit default preserves
/// the paper's primitive sequence; env::PackedBins packs 64 bins per word).
template <typename Bins = env::PaddedBins<env::SimEnv>>
class BasicHiMaxRegister : public algo::HiMaxRegisterAlg<env::SimEnv, Bins> {
 public:
  using Base = algo::HiMaxRegisterAlg<env::SimEnv, Bins>;
  using Op = spec::MaxRegisterSpec::Op;
  using Resp = spec::MaxRegisterSpec::Resp;

  BasicHiMaxRegister(sim::Memory& memory, const spec::MaxRegisterSpec& spec,
                     int writer_pid, int reader_pid)
      : Base(memory, spec.num_values(), spec.initial_state(), writer_pid,
             reader_pid) {}

  sim::OpTask<Resp> apply(int pid, Op op) {
    if (op.kind == spec::MaxRegisterSpec::Kind::kReadMax) {
      return this->read_max(pid);
    }
    return this->write_max(pid, op.value);
  }
};

using HiMaxRegister = BasicHiMaxRegister<>;
using PackedHiMaxRegister = BasicHiMaxRegister<env::PackedBins<env::SimEnv>>;

}  // namespace hi::core
