// 16-byte atomic word for the real-hardware implementations (src/rt).
//
// The paper's universal construction needs a CAS base object with
// O(s + 2^n) states: the full abstract state plus n context bits, updated in
// one indivisible compare-and-swap. On x86-64 this maps onto CMPXCHG16B.
// The word is stored as one 16-byte-aligned unsigned __int128 and driven by
// compiler builtins rather than std::atomic, because GCC sends every
// 16-byte __atomic_* operation out of line to libatomic:
//
//   * compare_exchange — __sync_val_compare_and_swap, which GCC and Clang
//     inline as `lock cmpxchg16b` under -mcx16;
//   * store            — a CAS loop seeded by a load (libatomic's store is
//     vmovdqa + mfence);
//   * load             — __atomic_load_n: libatomic's vmovdqa path on AVX
//     hosts (a plain 16-byte load, atomic on those CPUs), CMPXCHG16B
//     otherwise. Either is atomic with respect to the inline CAS.
//
// The layout gives 64 bits of packed algorithm value and 64 context bits, so
// n ≤ 64 processes and abstract states must encode into 32 bits — the
// substitution documented in DESIGN.md. A build without CMPXCHG16B (no
// __GCC_HAVE_SYNC_COMPARE_AND_SWAP_16) falls back to libatomic's lock table:
// still correct, no longer lock-free, and is_lock_free() says so.
#pragma once

#include <cstdint>

namespace hi::rt {

struct Word128 {
  std::uint64_t value = 0;  // packed algorithm payload
  std::uint64_t ctx = 0;    // context bitmask / second payload word

  friend bool operator==(const Word128&, const Word128&) = default;
};

static_assert(sizeof(Word128) == 16);

class Atomic128 {
 public:
  Atomic128() = default;
  explicit Atomic128(Word128 initial) : word_(pack(initial)) {}

  Word128 load() const {
    return unpack(__atomic_load_n(&word_, __ATOMIC_SEQ_CST));
  }
  /// Unconditional store as a CAS loop: each failed CMPXCHG16B returns the
  /// current word, which seeds the next attempt.
  void store(Word128 desired) {
    const Raw want = pack(desired);
    Raw cur = __atomic_load_n(&word_, __ATOMIC_SEQ_CST);
    for (;;) {
      const Raw seen = cas(cur, want);
      if (seen == cur) return;
      cur = seen;
    }
  }
  /// Strong CAS; on failure `expected` receives the current word.
  bool compare_exchange(Word128& expected, Word128 desired) {
    const Raw want = pack(expected);
    const Raw seen = cas(want, pack(desired));
    if (seen == want) return true;
    expected = unpack(seen);
    return false;
  }

  /// True when CAS and store compile to inline CMPXCHG16B.
  bool is_lock_free() const {
#if defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
    return true;
#else
    return __atomic_is_lock_free(sizeof(word_), &word_);
#endif
  }

 private:
  using Raw = unsigned __int128;

  static Raw pack(Word128 w) {
    return (static_cast<Raw>(w.ctx) << 64) | w.value;
  }
  static Word128 unpack(Raw r) {
    return Word128{static_cast<std::uint64_t>(r),
                   static_cast<std::uint64_t>(r >> 64)};
  }

  /// One CMPXCHG16B (full barrier); returns the word it observed.
  Raw cas(Raw expected, Raw desired) {
#if defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
    return __sync_val_compare_and_swap(&word_, expected, desired);
#else
    __atomic_compare_exchange_n(&word_, &expected, desired, false,
                                __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
    return expected;
#endif
  }

  alignas(16) Raw word_ = 0;
};

}  // namespace hi::rt
