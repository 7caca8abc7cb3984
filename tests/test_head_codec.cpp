// Word64HeadCodec — the single head/announce packing shared by every
// backend (docs/ENV.md "Word64HeadCodec contract"). Three layers of
// coverage:
//   * round-trip over a lattice of (state, rsp, pid, has-response) points,
//     plus the combining record and the ⊥ conventions;
//   * a sim mem(C) snapshot of a universal object carries the raw codec
//     words, in the 3-word (value, 0, ctx) CAS-cell layout;
//   * PINNED bit layout: moving any field is a cross-backend
//     snapshot-format break, so the exact bit positions are regression
//     constants here, not derived from the codec itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/universal.h"
#include "core/universal.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/counter_spec.h"

namespace hi {
namespace {

using algo::HeadResp;
using algo::HeadView;
using algo::Word64HeadCodec;
using Codec = Word64HeadCodec;

const std::vector<std::uint64_t>& state_lattice() {
  static const std::vector<std::uint64_t> states = {
      0, 1, 12, 0xff, 0x1234, 0xffffff, 0x7fffffff, 0xffffffffull};
  return states;
}

const std::vector<std::uint32_t>& rsp_lattice() {
  static const std::vector<std::uint32_t> rsps = {0, 1, 0x20, 0xffff,
                                                  0x7fffff, 0xffffff};
  return rsps;
}

TEST(HeadCodec, BottomConventions) {
  // ⊥ is the all-zero word on both the announce and head sides: a freshly
  // zeroed cell decodes as mode A, state 0, no pid.
  EXPECT_EQ(Codec::bottom(), 0u);
  EXPECT_TRUE(Codec::is_bottom(0));
  EXPECT_FALSE(Codec::is_op(0));
  EXPECT_FALSE(Codec::is_resp(0));
  const HeadView zero = Codec::decode_head(0);
  EXPECT_EQ(zero.state, 0u);
  EXPECT_FALSE(zero.has_response);
  EXPECT_FALSE(zero.combining);
  EXPECT_EQ(zero.pid, -1);
}

TEST(HeadCodec, AnnounceRoundTrip) {
  for (std::uint32_t payload : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    const std::uint64_t op = Codec::announce_op(payload);
    EXPECT_TRUE(Codec::is_op(op));
    EXPECT_FALSE(Codec::is_resp(op));
    EXPECT_FALSE(Codec::is_bottom(op));
    EXPECT_EQ(Codec::payload(op), payload);

    const std::uint64_t resp = Codec::announce_resp(payload);
    EXPECT_TRUE(Codec::is_resp(resp));
    EXPECT_FALSE(Codec::is_op(resp));
    EXPECT_FALSE(Codec::is_bottom(resp));
    EXPECT_EQ(Codec::payload(resp), payload);

    EXPECT_NE(op, resp) << "op and resp tags must differ";
  }
}

TEST(HeadCodec, HeadRoundTripLattice) {
  for (std::uint64_t state : state_lattice()) {
    // Mode A: just the state.
    const std::uint64_t a = Codec::make_head(state, std::nullopt);
    const HeadView va = Codec::decode_head(a);
    EXPECT_EQ(va.state, state);
    EXPECT_FALSE(va.has_response);
    EXPECT_FALSE(va.combining);
    EXPECT_EQ(va.pid, -1);

    // Mode B: every (rsp, pid) corner.
    for (std::uint32_t rsp : rsp_lattice()) {
      for (int pid : {0, 1, 5, 31, 63}) {
        const std::uint64_t b = Codec::make_head(state, HeadResp{rsp, pid});
        const HeadView vb = Codec::decode_head(b);
        EXPECT_EQ(vb.state, state);
        EXPECT_TRUE(vb.has_response);
        EXPECT_FALSE(vb.combining);
        EXPECT_EQ(vb.rsp, rsp);
        EXPECT_EQ(vb.pid, pid);
      }
    }

    // Combining record: state + winner pid, bit 63, never bit 62.
    for (int pid : {0, 3, 63}) {
      const std::uint64_t c = Codec::make_combining_head(state, pid);
      const HeadView vc = Codec::decode_head(c);
      EXPECT_EQ(vc.state, state);
      EXPECT_FALSE(vc.has_response);
      EXPECT_TRUE(vc.combining);
      EXPECT_EQ(vc.pid, pid);
    }
  }
}

TEST(HeadCodec, PinnedBitLayout) {
  // Regression constants: the exact field positions. A failure here means
  // the snapshot format changed — sim/rt snapshots would no longer be
  // comparable against committed images.
  EXPECT_EQ(Codec::announce_op(0xabcd1234u), 0x1'abcd1234ull);
  EXPECT_EQ(Codec::announce_resp(0xabcd1234u), 0x2'abcd1234ull);
  EXPECT_EQ(Codec::make_head(0x89abcdefull, std::nullopt), 0x89abcdefull);
  // state 0x89abcdef | rsp 0x123456 << 32 | pid 0x2a << 56 | bit 62.
  EXPECT_EQ(Codec::make_head(0x89abcdefull, HeadResp{0x123456, 0x2a}),
            (std::uint64_t{1} << 62) | (std::uint64_t{0x2a} << 56) |
                (std::uint64_t{0x123456} << 32) | 0x89abcdefull);
  // state | pid << 56 | bit 63, no rsp bits.
  EXPECT_EQ(Codec::make_combining_head(0x89abcdefull, 0x2a),
            (std::uint64_t{1} << 63) | (std::uint64_t{0x2a} << 56) |
                0x89abcdefull);
  EXPECT_EQ(Codec::kHasBit, std::uint64_t{1} << 62);
  EXPECT_EQ(Codec::kCombineBit, std::uint64_t{1} << 63);
  EXPECT_EQ(Codec::kStateMask, 0xffffffffull);
  EXPECT_EQ(Codec::kRspMask, 0xffffffull);
  EXPECT_EQ(Codec::kRspShift, 32);
  EXPECT_EQ(Codec::kPidShift, 56);
}

TEST(HeadCodec, SimSnapshotCarriesTheRawCodecWord) {
  // Env::Value is the codec word on every backend, and the sim CAS cell
  // snapshots as (value, 0, ctx): a sim mem(C) of a universal object is the
  // codec words verbatim, so it compares word-for-word with the rt image.
  const spec::CounterSpec spec(1u << 20, 10);
  sim::Memory memory;
  sim::Scheduler sched(2);
  core::Universal<spec::CounterSpec, core::CasRllsc> object(memory, spec, 2);
  (void)sim::run_solo(sched, 1, object.apply(1, spec::CounterSpec::inc()));
  (void)sim::run_solo(sched, 1, object.apply(1, spec::CounterSpec::inc()));

  const std::uint64_t head =
      Codec::make_head(spec.encode_state(12), std::nullopt);
  EXPECT_EQ(memory.snapshot().words,
            (std::vector<std::uint64_t>{head, 0, 0,                  // head
                                        Codec::bottom(), 0, 0,       // a[0]
                                        Codec::bottom(), 0, 0}));    // a[1]
}

}  // namespace
}  // namespace hi
