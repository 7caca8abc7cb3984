// Sharded perfect-HI set (algo/sharded_set.h) — simulator instantiation.
//
// Single-source: the facade body lives in algo/sharded_set.h
// (ShardedHiSet), templated over the execution environment; this file pins
// the environment to SimEnv, preserving the spec-driven harness interface
// so the explorer and the Runner drive the sharded store exactly like the
// single-shard core::HiSet. The hardware instantiation of the SAME body is
// rt::RtShardedHiSet.
#pragma once

#include <cstdint>

#include "algo/sharded_set.h"
#include "env/sim_env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "spec/set_spec.h"

namespace hi::core {

/// Spec-driven harness wrapper over the scheduler-driven backend.
/// The spec supplies the domain and the initial membership bitmap (one
/// word — spec domains are ≤ 64); shard count and placement are harness
/// parameters, letting the same spec check every sharding configuration.
template <typename Bins = env::PackedBins<env::SimEnv>>
class BasicShardedHiSet : public algo::ShardedHiSet<env::SimEnv, Bins> {
 public:
  using Base = algo::ShardedHiSet<env::SimEnv, Bins>;
  using Op = spec::SetSpec::Op;
  using Resp = spec::SetSpec::Resp;

  BasicShardedHiSet(sim::Memory& memory, const spec::SetSpec& spec,
                    std::uint32_t shard_count,
                    algo::ShardPlacement placement =
                        algo::ShardPlacement::kBlocked)
      : Base(memory, spec.domain(), shard_count, placement,
             spec.initial_state()) {}

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

using ShardedHiSet = BasicShardedHiSet<>;

}  // namespace hi::core
