// Wait-free perfect-HI set over {1..t} from t binary registers (§5.1) —
// simulator instantiation.
//
// Single-source: the algorithm body lives in algo/hi_set.h (HiSetAlg),
// templated over the execution environment; this file pins the environment
// to SimEnv, preserving the seed interface (the spec supplies the domain and
// the initial membership bitmap). On hardware the SAME body runs as
// algo::HiSetAlgPacked<env::RtEnv>.
#pragma once

#include "algo/hi_set.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/set_spec.h"

namespace hi::core {

/// Spec-driven harness wrapper over the scheduler-driven backend.
/// `Bins` selects the bin-array layout (padded-per-bit default preserves
/// the paper's per-element cells; env::PackedBins makes the whole set one
/// word whose value is the membership bitmap).
template <typename Bins = env::PaddedBins<env::SimEnv>>
class BasicHiSet : public algo::HiSetAlg<env::SimEnv, Bins> {
 public:
  using Base = algo::HiSetAlg<env::SimEnv, Bins>;
  using Op = spec::SetSpec::Op;
  using Resp = spec::SetSpec::Resp;

  BasicHiSet(sim::Memory& memory, const spec::SetSpec& spec)
      : Base(memory, spec.domain(), spec.initial_state()) {}

  sim::OpTask<Resp> apply(int pid, Op op) {
    (void)pid;  // fully symmetric: any process may invoke anything
    switch (op.kind) {
      case spec::SetSpec::Kind::kInsert: return this->insert(op.value);
      case spec::SetSpec::Kind::kRemove: return this->remove(op.value);
      case spec::SetSpec::Kind::kLookup: return this->lookup(op.value);
    }
    return this->lookup(op.value);  // unreachable
  }
};

using HiSet = BasicHiSet<>;
using PackedHiSet = BasicHiSet<env::PackedBins<env::SimEnv>>;

}  // namespace hi::core
