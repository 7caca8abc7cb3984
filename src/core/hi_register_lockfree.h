// Algorithms 2 + 3: lock-free state-quiescent-HI SWSR K-valued register from
// binary registers (§4, Theorem 9).
//
// Single-source: the algorithm body lives in algo/registers.h
// (LockFreeHiAlg); this file is the simulator instantiation behind the SWSR
// spec/pid harness interface. On hardware the same body runs as
// algo::LockFreeHiAlgPacked<env::RtEnv>. See algo/registers.h for the
// line-by-line paper commentary (upward clearing buys can(v) = e_v at
// state-quiescence; the reader pays with lock-freedom only — the Theorem 17
// adversary starves it, see src/adversary/reader_adversary.h and test E7).
#pragma once

#include "algo/registers.h"
#include "core/swsr_wrapper.h"

namespace hi::core {

/// Padded-per-bit layout: the paper's exact primitive sequence (one binary
/// register per step) — what the step-count tests, adversaries and persisted
/// schedule traces drive.
using LockFreeHiRegister = SwsrRegister<algo::LockFreeHiAlgPadded>;

/// Packed layout: 64 bins per word-sized base object, scans one word load
/// per 64 bins (env::PackedBins; docs/ENV.md "Packed bin arrays").
using PackedLockFreeHiRegister = SwsrRegister<algo::LockFreeHiAlgPacked>;

}  // namespace hi::core
