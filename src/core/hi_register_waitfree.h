// Algorithm 4: wait-free quiescent-HI SWSR K-valued register from binary
// registers (§4, Theorem 12).
//
// Single-source: the algorithm body lives in algo/registers.h
// (WaitFreeHiAlg); this file is the simulator instantiation behind the SWSR
// spec/pid harness interface. On hardware the same body runs as
// algo::WaitFreeHiAlgPacked<env::RtEnv>. See algo/registers.h for the
// commentary (reader announces via flag[1]; the writer helps through array
// B; both erase their footprints — quiescent HI but not state-quiescent HI,
// the Table 1 separation).
#pragma once

#include "algo/registers.h"
#include "core/swsr_wrapper.h"

namespace hi::core {

/// Padded-per-bit layout: the paper's exact primitive sequence (one binary
/// register per step) — what the step-count tests, adversaries and persisted
/// schedule traces drive.
using WaitFreeHiRegister = SwsrRegister<algo::WaitFreeHiAlgPadded>;

/// Packed layout: 64 bins per word-sized base object, scans one word load
/// per 64 bins (env::PackedBins; docs/ENV.md "Packed bin arrays").
using PackedWaitFreeHiRegister = SwsrRegister<algo::WaitFreeHiAlgPacked>;

}  // namespace hi::core
