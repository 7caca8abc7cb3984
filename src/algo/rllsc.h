// Algorithm 6: lock-free perfect-HI releasable-LL/SC object from atomic CAS
// (§6.3, Theorem 28), written ONCE over an execution environment Env and
// instantiated by the simulator (src/core/rllsc.h) and by real hardware
// (src/rt/rllsc_rt.h, over a 16-byte CMPXCHG16B word).
//
// The R-LLSC state (val, context) is stored in a *single* CAS word; memory
// is therefore exactly the encoding of the abstract state — no auxiliary
// information exists — which is why the implementation is perfect HI.
// LL, SC and RL are CAS retry loops and hence only lock-free; VL, Load and
// Store are single primitives. The retry loops use the environment's
// failure-word CAS (Env::cas returns the word it observed), so a failed
// retry costs ONE 16-byte atomic on hardware — not a CAS plus a re-read —
// and one simulator step; the sim step-exact tests pin this sequence. The
// interleaved-LL entry point realizes Algorithm 5's `‖` construction:
// between successive CAS attempts of a (possibly blocking) LL, one step of
// the caller-provided right-hand-side poll runs, and a true poll abandons
// the LL (leaving at most a context trace, which the caller's RL erases —
// line 18R.2).
//
// Process identities are explicit small integers (0..63) supplied by the
// caller, exactly as the paper's p_i; the simulator wrapper recovers them
// from the scheduler so existing call sites stay pid-implicit.
//
// Frame discipline: no entry point is a coroutine. LL, the interleaved LL,
// SC and RL are each ONE env::CasPlan (when to stop without a CAS, the word
// to install, what to return, the optional poll) handed to the
// environment's loop driver Env::cas_retry (env/env.h, docs/ENV.md): on
// SimEnv that is one SubTask stepping the plan's sequence, on RtEnv and
// FuzzEnv a plain loop returning a Done awaiter — no frame. VL, Load and
// Store are one primitive each and return its awaitable, mapped by
// env::detail::MapAwait where needed.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "algo/values.h"
#include "env/env.h"
#include "util/bits.h"

namespace hi::algo {

/// The default `unlinked_if` of ll_interleaved: every value gets linked.
struct LinkEvery {
  template <typename V>
  bool operator()(const V&) const {
    return false;
  }
};

template <typename Env>
class CasRllscAlg {
 public:
  using V = typename Env::Value;
  using Word = typename Env::Word;

  CasRllscAlg(typename Env::Ctx ctx, std::string name, V initial)
      : cell_(Env::make_cas(ctx, std::move(name), initial)) {}

  /// LL(O) — lines 1–6: CAS-install the caller's context bit, retrying on
  /// interference. Lock-free; may run forever under contention. A failed CAS
  /// reports the word it observed, which becomes the next attempt's
  /// expectation — one primitive per retry, no separate re-read.
  auto ll(int pid) {
    return Env::cas_retry(
        cell_, env::CasPlan{[](const Word&) { return false; }, link(pid),
                            [](const Word& cur, bool) { return cur.value; }});
  }

  /// LL with Algorithm 5's `‖` right-hand side: after every failed CAS
  /// attempt run one poll; a true poll abandons the LL and yields nullopt.
  /// `poll` is a nullary callable returning an awaitable of bool. The next
  /// attempt reuses the failed CAS's observed word (any write racing with
  /// the poll just fails that CAS, which re-observes). A value satisfying
  /// `unlinked_if` — seen by the first Read or by a failed CAS — is returned
  /// as it stands, without a CAS and without linking: a read, for values
  /// the caller will never SC or VL against (Algorithm 5's combining
  /// records, docs/PAPER_MAP.md "Combining deviation").
  template <typename Poll, typename Unlinked = LinkEvery>
  auto ll_interleaved(int pid, Poll poll, Unlinked unlinked_if = {}) {
    return Env::cas_retry(
        cell_, env::CasPlan{
                   [unlinked_if](const Word& cur) {
                     return unlinked_if(cur.value);
                   },
                   link(pid),
                   [](const Word& cur, bool) {
                     return std::optional<V>{cur.value};
                   },
                   std::move(poll)});
  }

  /// VL(O) — lines 12–13: one Read, the caller's bit tested locally.
  auto vl(int pid) {
    return env::detail::MapAwait{
        Env::cas_read(cell_),
        [pid](const Word& cur) { return util::test_bit(cur.ctx, bit(pid)); }};
  }

  /// SC(O, new) — lines 7–11: succeeds iff the caller is still linked.
  /// Failed CAS attempts feed their observed word into the re-check.
  auto sc(int pid, V desired) {
    return Env::cas_retry(
        cell_, env::CasPlan{unlinked(pid),
                            [desired](const Word&) { return Word{desired, 0}; },
                            [](const Word&, bool installed) {
                              return installed;
                            }});
  }

  /// RL(O) — lines 14–20: removes the caller from the context; always true.
  auto rl(int pid) {
    return Env::cas_retry(
        cell_, env::CasPlan{unlinked(pid),
                            [pid](Word cur) {
                              cur.ctx = util::clear_bit(cur.ctx, bit(pid));
                              return cur;
                            },
                            [](const Word&, bool) { return true; }});
  }

  /// Load(O) — lines 21–22.
  auto load() {
    return env::detail::MapAwait{Env::cas_read(cell_),
                                 [](const Word& cur) { return cur.value; }};
  }

  /// Store(O, new) — lines 23–24: unconditional, resets the context.
  auto store(V desired) { return Env::cas_write(cell_, Word{desired, 0}); }

  // Observer-side introspection (not steps): abstract state of the R-LLSC
  // object, which for this implementation is literally the memory word.
  V peek_value() const { return Env::peek_cas(cell_).value; }
  std::uint64_t peek_context() const { return Env::peek_cas(cell_).ctx; }
  Word peek_word() const { return Env::peek_cas(cell_); }

  /// Bytes of shared storage (one CAS cell; observer-side, the bench's
  /// bytes_per_object input).
  std::size_t memory_bytes() const { return sizeof(typename Env::CasCell); }

  bool is_lock_free() const { return Env::cas_is_lock_free(cell_); }

 private:
  static unsigned bit(int pid) { return static_cast<unsigned>(pid); }
  /// The word with the caller's context bit set (LL's install).
  static auto link(int pid) {
    return [pid](Word cur) {
      cur.ctx = util::set_bit(cur.ctx, bit(pid));
      return cur;
    };
  }
  /// SC and RL stop without a CAS once the caller's bit is gone.
  static auto unlinked(int pid) {
    return [pid](const Word& cur) { return !util::test_bit(cur.ctx, bit(pid)); };
  }

  typename Env::CasCell cell_;
};

}  // namespace hi::algo
