// Value types shared by the algorithm layer and every execution environment.
//
// The single-source algorithms (src/algo) are templated over an execution
// environment Env (src/env). The R-LLSC family manipulates values of type
// Env::Value — on every backend a packed 64-bit codec word (the DESIGN
// substitution: states ≤ 32 bits so one CMPXCHG16B covers value plus
// context). CtxWord pairs a value with the R-LLSC context bitmask; it is the
// environment-neutral view of one CAS base-object state.
#pragma once

#include <cstdint>
#include <vector>

namespace hi::algo {

/// One CAS base-object state as the algorithms see it: an algorithm-level
/// value plus the context bitmask (bit i set <=> process i in context).
template <typename V>
struct CtxWord {
  V value{};
  std::uint64_t ctx = 0;

  friend bool operator==(const CtxWord&, const CtxWord&) = default;
};

/// Result of a failure-word CAS (Env::cas / Env::cas_word): `installed` says
/// whether the swap was applied; `observed` is the word the cell held
/// immediately before the CAS executed (== expected iff installed). Retry
/// loops feed `observed` straight into the next attempt's expectation, so a
/// failed retry costs ONE primitive instead of a CAS followed by a re-read —
/// compare_exchange writes the current word back into `expected` on
/// failure, and the simulator runs that same body as one "cas" step.
template <typename W>
struct CasResult {
  bool installed = false;
  W observed{};

  friend bool operator==(const CasResult&, const CasResult&) = default;
};

/// Observer-side memory image of an algorithm body: the bytes its
/// encode_memory() appends (one per bin, then any 8-byte LE words), never a
/// step of the model. On RtEnv these are the abstract bins in every layout,
/// so they match the simulator's image after identical operation sequences
/// (tests/test_env_parity.cpp).
template <typename Obj>
std::vector<std::uint8_t> memory_image(const Obj& obj) {
  std::vector<std::uint8_t> image;
  obj.encode_memory(image);
  return image;
}

}  // namespace hi::algo
