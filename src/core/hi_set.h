// Wait-free perfect-HI set over {1..t} from t binary registers (§5.1) —
// simulator instantiation.
//
// Single-source: the algorithm body lives in algo/hi_set.h (HiSetAlg),
// templated over the execution environment; this file pins the environment
// to SimEnv, preserving the seed interface (the spec supplies the domain and
// the initial membership bitmap). The hardware instantiation of the SAME
// body is rt::RtHiSet.
#pragma once

#include "algo/hi_set.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/set_spec.h"

namespace hi::core {

/// Spec-driven harness wrapper over the scheduler-driven backend
/// (Env = SimEnv; the aliases below pin it).
/// `Bins` selects the bin-array layout (padded-per-bit default preserves
/// the paper's per-element cells; env::PackedBins makes the whole set one
/// word whose value is the membership bitmap).
template <typename Env, typename Bins = env::PaddedBins<Env>>
class BasicHiSet : public algo::HiSetAlg<Env, Bins> {
 public:
  using Base = algo::HiSetAlg<Env, Bins>;
  using Op = spec::SetSpec::Op;
  using Resp = spec::SetSpec::Resp;

  BasicHiSet(typename Env::Ctx ctx, const spec::SetSpec& spec)
      : Base(ctx, spec.domain(), spec.initial_state()) {}

  typename Env::template Op<Resp> apply(int pid, Op op) {
    (void)pid;  // fully symmetric: any process may invoke anything
    switch (op.kind) {
      case spec::SetSpec::Kind::kInsert: return this->insert(op.value);
      case spec::SetSpec::Kind::kRemove: return this->remove(op.value);
      case spec::SetSpec::Kind::kLookup: return this->lookup(op.value);
    }
    return this->lookup(op.value);  // unreachable
  }
};

using HiSet = BasicHiSet<env::SimEnv>;
using PackedHiSet = BasicHiSet<env::SimEnv, env::PackedBins<env::SimEnv>>;

}  // namespace hi::core
