// Real-hardware (std::atomic, real threads) tests for the rt library:
// RtRllsc (Algorithm 6), RtUniversal (Algorithm 5 / Theorem 32 composition),
// and the baselines. These complement the simulator tests: the simulator
// gives step-exact model checking, the rt tests give coverage under genuine
// hardware interleavings, plus linearizability checking of timestamped
// histories (conservative event ordering, hence sound).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "rt/atomic128.h"
#include "rt/baselines_rt.h"
#include "rt/rllsc_rt.h"
#include "rt/universal_rt.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/linearizability.h"

namespace hi {
namespace {

using spec::CounterSpec;
using spec::RegisterSpec;
using spec::SetSpec;

TEST(RtRllsc, SingleThreadSemantics) {
  rt::RtRllsc cell(5);
  EXPECT_EQ(cell.ll(0), 5u);
  EXPECT_TRUE(cell.vl(0));
  EXPECT_FALSE(cell.vl(1));
  EXPECT_TRUE(cell.sc(0, 9));
  EXPECT_FALSE(cell.sc(0, 7)) << "SC without fresh LL must fail";
  EXPECT_EQ(cell.load(), 9u);
  EXPECT_EQ(cell.ll(1), 9u);
  EXPECT_TRUE(cell.rl(1));
  EXPECT_FALSE(cell.sc(1, 3));
  EXPECT_TRUE(cell.store(2));
  EXPECT_EQ(cell.load(), 2u);
  EXPECT_EQ(cell.snapshot().ctx, 0u);
}

TEST(RtRllsc, ConcurrentScsAreExclusivePerLink) {
  // Two threads race LL;SC on the same cell. Every successful SC installs a
  // unique token, so #successes == #distinct installed values observed.
  rt::RtRllsc cell(0);
  constexpr int kRounds = 20000;
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> token{1};

  auto worker = [&](int pid) {
    for (int i = 0; i < kRounds; ++i) {
      (void)cell.ll(pid);
      const std::uint64_t mine = token.fetch_add(1);
      if (cell.sc(pid, mine)) successes.fetch_add(1);
    }
  };
  std::thread t0(worker, 0), t1(worker, 1);
  t0.join();
  t1.join();

  EXPECT_GE(successes.load(), 1u);
  EXPECT_LE(successes.load(), 2u * kRounds);
  EXPECT_EQ(cell.snapshot().ctx, 0u)
      << "context must be empty once no LL is pending un-SC'd";
}

TEST(RtRllsc, InterleavedLlRetryExpectsTheWordItLastSaw) {
  // Each LL retry must expect exactly the word its failed CAS observed.
  // GCC 12 once built the retry's expected word from the observation
  // before (see rt::cas128_cas). The poll stages an ABA that exposes
  // that: after the first failure (caused by a toggling peer) it parks the
  // peer and stores 100. It then stores 7, which may be the word the first
  // CAS saw. A retry expecting the stale 7 would install 100 over it.
  rt::RtRllsc cell(7);
  std::atomic<bool> toggle{false};
  std::atomic<bool> idle{true};
  std::atomic<bool> quit{false};
  std::thread peer([&] {
    while (!quit.load()) {
      if (!toggle.load()) continue;
      idle.store(false);
      while (toggle.load()) {
        cell.store(7);
        cell.store(8);
      }
      idle.store(true);
    }
  });

  int staged = 0;
  for (int round = 0; round < 20000 && staged < 200; ++round) {
    cell.store(7);
    int polls = 0;
    toggle.store(true);
    while (idle.load()) {
    }
    const std::optional<std::uint64_t> got = cell.ll_interleaved(1, [&] {
      if (++polls == 1) {
        toggle.store(false);
        while (!idle.load()) {
        }
        cell.store(100);
      } else if (polls == 2) {
        cell.store(7);
      }
      return false;
    });
    toggle.store(false);
    while (!idle.load()) {
    }
    ASSERT_TRUE(got.has_value());
    if (polls > 0) {
      // The peer was parked from the first poll on, so the LL linked the
      // 7 stored by the second poll and nothing has written since.
      const rt::Word128 now = cell.snapshot();
      EXPECT_EQ(*got, 7u) << "round " << round;
      EXPECT_EQ(now.value, 7u) << "round " << round;
      EXPECT_EQ(now.ctx, std::uint64_t{1} << 1) << "round " << round;
      ++staged;
    }
    cell.rl(1);
  }
  quit.store(true);
  peer.join();
  EXPECT_GT(staged, 0) << "the peer never made the first CAS fail";
}

TEST(RtRllsc, InterleavedLlReturnsAnUnlinkedWordAFailedCasObserved) {
  // ll_interleaved's unlinked_if applies to the word a failed CAS observed,
  // not only to the first Read. Staged solo: at its first call (on the
  // Read's 5) the predicate overwrites the cell with 99, so the CAS fails
  // and observes 99; after one poll the predicate, now seeing 99, ends the
  // LL without a second CAS and without linking.
  algo::CasRllscAlg<env::RtEnv> cell({}, "X", 5);
  int checks = 0;
  const auto stores_then_unlinks_99 = [&](std::uint64_t value) {
    if (checks++ == 0) (void)cell.store(99).await_resume();
    return value == 99;
  };
  int polls = 0;
  const auto poll = [&] {
    ++polls;
    return env::detail::ready(false);
  };
  const std::optional<std::uint64_t> got =
      cell.ll_interleaved(0, poll, stores_then_unlinks_99).get();
  EXPECT_EQ(got, std::optional<std::uint64_t>{99});
  EXPECT_EQ(checks, 2);
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(cell.peek_word(), (algo::CtxWord<std::uint64_t>{99, 0}));
}

TEST(RtUniversal, LockFreedomReport) {
  const CounterSpec spec(1u << 24, 0);
  rt::RtUniversal<CounterSpec> object(spec, 4);
  rt::RtRllsc cell(0);
#if defined(__x86_64__)
  // The build adds -mcx16 on x86-64, so the 16-byte CAS must be inline
  // CMPXCHG16B; false here means the word fell back to libatomic's lock
  // table and the rt objects are no longer lock-free.
  EXPECT_TRUE(rt::Atomic128{}.is_lock_free());
  EXPECT_TRUE(cell.is_lock_free());
  EXPECT_TRUE(object.is_lock_free());
#else
  // Elsewhere the answer is the platform's; the algorithms stay correct.
  EXPECT_EQ(object.is_lock_free(), rt::Atomic128{}.is_lock_free());
  EXPECT_EQ(cell.is_lock_free(), rt::Atomic128{}.is_lock_free());
#endif
}

TEST(RtAtomic128, ConcurrentCasNeverTears) {
  // Three threads CAS-increment both halves of one word together, so every
  // consistent 16-byte read has value == ctx. A torn load (a half from
  // each side of some CAS) or a torn failure word breaks the equality; a
  // lost update shows in the final count.
  rt::Atomic128 word(rt::Word128{0, 0});
  constexpr int kThreads = 3;
  constexpr std::uint64_t kIncsEach = 50000;
  std::atomic<std::uint64_t> torn{0};

  auto worker = [&] {
    std::uint64_t done = 0;
    while (done < kIncsEach) {
      rt::Word128 cur = word.load();
      if (cur.value != cur.ctx) torn.fetch_add(1);
      const rt::Word128 next{cur.value + 1, cur.ctx + 1};
      if (word.compare_exchange(cur, next)) {
        ++done;
      } else if (cur.value != cur.ctx) {
        torn.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  EXPECT_EQ(torn.load(), 0u);
  const rt::Word128 last = word.load();
  EXPECT_EQ(last.value, kThreads * kIncsEach);
  EXPECT_EQ(last.ctx, kThreads * kIncsEach);
}

TEST(RtUniversal, CounterSumsExactlyUnderContention) {
  const CounterSpec spec(1u << 24, 0);
  for (int threads : {2, 4, 8}) {
    rt::RtUniversal<CounterSpec> object(spec, threads);
    constexpr int kOpsEach = 4000;
    std::vector<std::thread> pool;
    std::vector<std::vector<std::uint32_t>> responses(threads);
    for (int pid = 0; pid < threads; ++pid) {
      pool.emplace_back([&, pid] {
        responses[pid].reserve(kOpsEach);
        for (int i = 0; i < kOpsEach; ++i) {
          responses[pid].push_back(object.apply(pid, CounterSpec::inc()));
        }
      });
    }
    for (auto& t : pool) t.join();

    // Final value: every inc applied exactly once.
    EXPECT_EQ(object.head_state_encoded(),
              static_cast<std::uint64_t>(threads) * kOpsEach);
    // Fetch-and-inc responses are globally distinct.
    std::set<std::uint32_t> all;
    for (const auto& r : responses) all.insert(r.begin(), r.end());
    EXPECT_EQ(all.size(), static_cast<std::size_t>(threads) * kOpsEach);
  }
}

// The combine-mode twin: each batch's winner stores its own cell to ⊥ and
// returns without re-reading it, and losers read a combining record without
// linking it. Every inc must still apply exactly once and answer once, and
// quiescent memory must carry no announce or context residue.
TEST(RtUniversal, CounterCombiningSumsExactlyUnderContention) {
  const CounterSpec spec(1u << 24, 0);
  for (int threads : {2, 4, 8}) {
    rt::RtUniversal<CounterSpec> object(spec, threads, /*clear_contexts=*/true,
                                        /*combine=*/true);
    constexpr int kOpsEach = 4000;
    std::vector<std::thread> pool;
    std::vector<std::vector<std::uint32_t>> responses(threads);
    for (int pid = 0; pid < threads; ++pid) {
      pool.emplace_back([&, pid] {
        responses[pid].reserve(kOpsEach);
        for (int i = 0; i < kOpsEach; ++i) {
          responses[pid].push_back(object.apply(pid, CounterSpec::inc()));
        }
      });
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(object.head_state_encoded(),
              static_cast<std::uint64_t>(threads) * kOpsEach)
        << threads << " threads";
    std::set<std::uint32_t> all;
    for (const auto& r : responses) all.insert(r.begin(), r.end());
    EXPECT_EQ(all.size(), static_cast<std::size_t>(threads) * kOpsEach)
        << threads << " threads";
    EXPECT_EQ(object.context_union(), 0u) << threads << " threads";
    EXPECT_FALSE(object.head_has_response());
    for (int pid = 0; pid < threads; ++pid) {
      EXPECT_TRUE(object.announce_is_bottom(pid))
          << "announce[" << pid << "] at " << threads << " threads";
    }
  }
}

TEST(RtUniversal, QuiescentMemoryIsCanonical) {
  // Theorem 32 at quiescence on hardware: announce ≡ ⊥, contexts empty,
  // head carries no response — and two completely different executions
  // reaching the same state have byte-identical memory images.
  const CounterSpec spec(1u << 24, 0);

  auto run = [&](int threads, int ops_each) {
    rt::RtUniversal<CounterSpec> object(spec, 8);  // fixed layout: 8 slots
    std::vector<std::thread> pool;
    for (int pid = 0; pid < threads; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < ops_each; ++i) {
          (void)object.apply(pid, CounterSpec::inc());
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(object.context_union(), 0u);
    EXPECT_FALSE(object.head_has_response());
    for (int pid = 0; pid < 8; ++pid) {
      EXPECT_TRUE(object.announce_is_bottom(pid));
    }
    return object.memory_image();
  };

  const auto img_a = run(2, 6000);   // 12000 incs by 2 threads
  const auto img_b = run(8, 1500);   // 12000 incs by 8 threads
  const auto img_c = run(4, 3000);   // 12000 incs by 4 threads
  EXPECT_EQ(img_a, img_b);
  EXPECT_EQ(img_b, img_c);
}

TEST(RtUniversal, TimestampedHistoryLinearizes) {
  const RegisterSpec spec(8, 3);
  const int threads = 4;
  rt::RtUniversal<RegisterSpec> object(spec, threads);

  std::atomic<std::uint64_t> clock{0};
  struct Record {
    RegisterSpec::Op op;
    std::uint32_t resp;
    std::uint64_t invoked, responded;
  };
  std::vector<std::vector<Record>> logs(threads);

  std::vector<std::thread> pool;
  for (int pid = 0; pid < threads; ++pid) {
    pool.emplace_back([&, pid] {
      util::Xoshiro256 rng(pid + 1);
      for (int i = 0; i < 50; ++i) {
        Record rec;
        rec.op = rng.chance(1, 2)
                     ? RegisterSpec::read()
                     : RegisterSpec::write(
                           static_cast<std::uint32_t>(rng.next_in(1, 8)));
        rec.invoked = clock.fetch_add(1);
        rec.resp = object.apply(pid, rec.op);
        rec.responded = clock.fetch_add(1);
        logs[pid].push_back(rec);
      }
    });
  }
  for (auto& t : pool) t.join();

  verify::History<RegisterSpec::Op, RegisterSpec::Resp> history;
  // Rebuild with global timestamps: insert all events sorted by time.
  struct Ev {
    std::uint64_t time;
    int pid;
    std::size_t idx;
    bool invoke;
  };
  std::vector<Ev> events;
  for (int pid = 0; pid < threads; ++pid) {
    for (std::size_t i = 0; i < logs[pid].size(); ++i) {
      events.push_back({logs[pid][i].invoked, pid, i, true});
      events.push_back({logs[pid][i].responded, pid, i, false});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Ev& a, const Ev& b) { return a.time < b.time; });
  std::vector<std::vector<std::size_t>> hist_index(threads);
  for (int pid = 0; pid < threads; ++pid) hist_index[pid].resize(50);
  for (const Ev& ev : events) {
    if (ev.invoke) {
      hist_index[ev.pid][ev.idx] =
          history.invoke(ev.pid, logs[ev.pid][ev.idx].op);
    } else {
      history.respond(hist_index[ev.pid][ev.idx], logs[ev.pid][ev.idx].resp);
    }
  }

  const auto final_state = spec.decode_state(object.head_state_encoded());
  const auto lin =
      verify::LinearizabilityChecker<RegisterSpec>(spec).check(history,
                                                               final_state);
  EXPECT_TRUE(lin.ok());
}

TEST(RtUniversal, SetMembershipConsistent) {
  const SetSpec spec(16);
  const int threads = 4;
  rt::RtUniversal<SetSpec> object(spec, threads);
  std::vector<std::thread> pool;
  // Thread pid owns elements where v % threads == pid: inserts then removes
  // half of them; final membership is exactly the kept half of each range.
  for (int pid = 0; pid < threads; ++pid) {
    pool.emplace_back([&, pid] {
      for (std::uint32_t v = 1; v <= 16; ++v) {
        if (v % threads != static_cast<std::uint32_t>(pid)) continue;
        (void)object.apply(pid, SetSpec::insert(v));
        if (v % 2 == 0) (void)object.apply(pid, SetSpec::remove(v));
      }
    });
  }
  for (auto& t : pool) t.join();
  std::uint64_t expected = 0;
  for (std::uint32_t v = 1; v <= 16; ++v) {
    if (v % 2 == 1) expected |= std::uint64_t{1} << (v - 1);
  }
  EXPECT_EQ(object.head_state_encoded(), expected);
}

TEST(RtBaselines, LockAndCasLoopCountersSum) {
  const CounterSpec spec(1u << 24, 0);
  {
    rt::RtLockObject<CounterSpec> object(spec);
    std::vector<std::thread> pool;
    for (int pid = 0; pid < 4; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < 5000; ++i) (void)object.apply(pid, CounterSpec::inc());
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(object.apply(0, CounterSpec::read()), 20000u);
  }
  {
    rt::RtCasLoopObject<CounterSpec> object(spec);
    std::vector<std::thread> pool;
    for (int pid = 0; pid < 4; ++pid) {
      pool.emplace_back([&, pid] {
        for (int i = 0; i < 5000; ++i) (void)object.apply(pid, CounterSpec::inc());
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(object.apply(0, CounterSpec::read()), 20000u);
  }
}

TEST(RtBaselines, LeakyUniversalCountsOpsAndSums) {
  const CounterSpec spec(1u << 24, 0);
  const int threads = 4;
  rt::RtLeakyUniversal<CounterSpec> object(spec, threads);
  constexpr int kOpsEach = 3000;
  std::vector<std::thread> pool;
  std::vector<std::vector<std::uint32_t>> responses(threads);
  for (int pid = 0; pid < threads; ++pid) {
    pool.emplace_back([&, pid] {
      for (int i = 0; i < kOpsEach; ++i) {
        responses[pid].push_back(object.apply(pid, CounterSpec::inc()));
      }
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(object.head_state_encoded(),
            static_cast<std::uint64_t>(threads) * kOpsEach);
  std::set<std::uint32_t> all;
  for (const auto& r : responses) all.insert(r.begin(), r.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(threads) * kOpsEach);
  // The leak, quantified: the version counter reveals the operation count.
  EXPECT_EQ(object.version(), static_cast<std::uint64_t>(threads) * kOpsEach);
}

}  // namespace
}  // namespace hi
