// Algorithm 1: Vidyasankar's wait-free SWSR K-valued register from binary
// registers [46], reproduced as the paper's motivating *non*-HI example (§4).
//
// Single-source: the algorithm body lives in algo/registers.h
// (VidyasankarAlg), templated over the execution environment; this file is
// the simulator instantiation, keeping the SWSR spec/pid harness interface
// the sim tests and adversaries drive. On hardware the same body runs as
// algo::VidyasankarAlgPacked<env::RtEnv>. The memory leak that the HI
// checker rejects (Write(2);Write(1) leaves [1,1,0] where Write(1) leaves
// [1,0,0]) is a property of the single definition and now shows up
// identically in both environments.
#pragma once

#include "algo/registers.h"
#include "core/swsr_wrapper.h"

namespace hi::core {

/// Padded-per-bit layout: the paper's exact primitive sequence (one binary
/// register per step) — what the step-count tests, adversaries and persisted
/// schedule traces drive.
using VidyasankarRegister = SwsrRegister<algo::VidyasankarAlgPadded>;

/// Packed layout: 64 bins per word-sized base object, scans one word load
/// per 64 bins (env::PackedBins; docs/ENV.md "Packed bin arrays").
using PackedVidyasankarRegister = SwsrRegister<algo::VidyasankarAlgPacked>;

}  // namespace hi::core
