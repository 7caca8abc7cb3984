// Real-thread forced-yield schedule fuzzing (env/fuzz_env.h): every rt
// object plus the sharded store runs its FuzzEnv instantiation on real
// threads under seeded yield/backoff injection at each Env primitive
// boundary, with linearizability checked on the recorded history and — for
// the history-independent objects — the quiescent memory image compared
// against a solo replay of the linearization witness (HI: the final image
// must be a function of the abstract state alone, so the witness replay
// must land on the SAME image).
//
// Witness pinning: overlapping state-changing operations can admit several
// valid linearizations with DIFFERENT final abstract states (insert(v) ‖
// remove(v) both orders), and the checker returns an arbitrary one — so each
// suite runs a solo AUDIT phase after the threads join (final reads /
// full-domain lookups, recorded into the same history). Audit operations
// follow everything in real time, so every valid linearization of the
// extended history must end in the audited state: the witness's final state
// is then exactly the state the object actually reached, and the image
// comparison is sound.
//
// The pipeline's positive control is the deliberately broken counter
// (tests/fuzz_common.h): the fuzzer must CATCH its lost update on real
// threads within the default iteration budget, the explorer must REPRODUCE
// it in the step model, verify/shrink.h must SHRINK the failing schedule,
// and the result is printed as a paste-ready ScheduleTrace literal (and
// persisted under $HI_TRACE_DUMP_DIR for the nightly soak's artifacts).
//
// Iteration budget: HI_RT_FUZZ_ITERS (default 20 per object — the CI smoke
// bound; the nightly workflow raises it). Every failure message carries the
// iteration's seed, which fully determines the op scripts and the per-thread
// injection streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "algo/hi_set.h"
#include "algo/leaky_universal.h"
#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/sharded_set.h"
#include "algo/universal.h"
#include "algo/wait_free_sim.h"
#include "env/fuzz_env.h"
#include "fuzz_common.h"
#include "sim/explorer.h"
#include "sim/trace.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/register_spec.h"
#include "spec/rllsc_spec.h"
#include "spec/set_spec.h"
#include "util/rng.h"
#include "verify/linearizability.h"
#include "verify/shrink.h"

namespace hi {
namespace {

using env::FuzzEnv;
using FuzzPacked = env::PackedBins<FuzzEnv>;

constexpr int kDefaultIters = 20;

/// One object family under the fuzzer: `iters` iterations, each with a
/// fresh object, per-(seed, pid) deterministic op scripts, barrier-released
/// armed threads, a solo audit phase pinning the final abstract state (see
/// file comment), then a linearizability check over the extended history
/// and a caller-supplied final check (witness replay, invariants). `policy`
/// tunes the injection aggressiveness (default: the gentle CI policy).
template <typename S, typename ScriptGen, typename MakeObject, typename RunOp,
          typename Audit, typename FinalCheck>
void fuzz_object_suite(const char* name, const S& spec, int num_threads,
                       std::uint64_t seed0, ScriptGen&& script_gen,
                       MakeObject&& make_object, RunOp&& run_op, Audit&& audit,
                       FinalCheck&& final_check,
                       env::YieldPolicy policy = env::YieldPolicy{}) {
  using Op = typename S::Op;
  using Resp = typename S::Resp;
  const int iters = testing::rt_fuzz_iters(kDefaultIters);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(seed0, static_cast<std::uint64_t>(iter));
    auto object = make_object();
    std::vector<std::vector<Op>> scripts(
        static_cast<std::size_t>(num_threads));
    for (int pid = 0; pid < num_threads; ++pid) {
      util::Xoshiro256 rng(
          util::hash_combine(seed, 0x5c21 + static_cast<std::uint64_t>(pid)));
      scripts[static_cast<std::size_t>(pid)] = script_gen(pid, rng);
    }
    testing::RtHistoryRecorder<Op, Resp> recorder(num_threads);
    testing::run_fuzz_threads(num_threads, seed, policy,
                              [&](int pid) {
                                for (const Op& op :
                                     scripts[static_cast<std::size_t>(pid)]) {
                                  recorder.run(pid, op, [&] {
                                    return run_op(*object, pid, op);
                                  });
                                }
                              });
    // Injector disarmed on this thread: the audit runs solo and unperturbed.
    audit(*object, recorder);
    const auto history = recorder.build();
    ASSERT_EQ(history.num_pending(), 0u);
    const verify::LinResult lin = verify::check_linearizable(spec, history);
    ASSERT_TRUE(lin.ok())
        << name << ": non-linearizable real-thread history at seed " << seed;
    final_check(*object, history, lin.witness, seed);
  }
}

/// The abstract state a linearization witness ends in (spec fold).
template <typename S, typename Hist>
typename S::State witness_final_state(const S& spec, const Hist& hist,
                                      const std::vector<std::size_t>& witness) {
  typename S::State state = spec.initial_state();
  for (const std::size_t idx : witness) {
    state = spec.apply(state, hist.entries()[idx].op).first;
  }
  return state;
}

// --------------------------------------------------------- positive control

TEST(FuzzRt, PositiveControl_BrokenCounterCaughtReproducedShrunk) {
  const testing::NaiveCounterSpec spec;

  // 1. CATCH on real threads: two threads race two incs each; the injector
  // yields inside the read-then-write window, so the lost update surfaces
  // well within the default budget. Aggressive policy: the control should
  // fire fast even on a loaded single-core CI runner.
  const env::YieldPolicy aggressive{/*permille=*/700, /*max_yields=*/4,
                                    /*max_spins=*/64};
  const int iters = testing::rt_fuzz_iters(kDefaultIters) + 30;
  std::optional<std::uint64_t> caught_seed;
  for (int iter = 0; iter < iters && !caught_seed.has_value(); ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xb20c, static_cast<std::uint64_t>(iter));
    testing::BrokenCounterAlg<FuzzEnv> counter{FuzzEnv::Ctx{}};
    testing::RtHistoryRecorder<testing::NaiveCounterSpec::Op,
                               testing::NaiveCounterSpec::Resp>
        recorder(2);
    testing::run_fuzz_threads(2, seed, aggressive, [&](int pid) {
      for (int i = 0; i < 6; ++i) {
        recorder.run(pid, testing::NaiveCounterSpec::inc(),
                     [&] { return counter.inc().get(); });
      }
    });
    if (!verify::check_linearizable(spec, recorder.build()).ok()) {
      caught_seed = seed;
    }
  }
  EXPECT_TRUE(caught_seed.has_value())
      << "the yield fuzzer failed to catch the seeded lost update in "
      << iters << " iterations — the positive control is broken";

  // 2. REPRODUCE in the step model: the same single-source body under
  // SimEnv, exhaustively explored until a non-linearizable complete
  // execution appears.
  sim::Explorer<testing::NaiveCounterSpec, testing::BrokenCounterSystem>
      explorer(
          spec,
          [] { return std::make_unique<testing::BrokenCounterSystem>(2); },
          {{testing::NaiveCounterSpec::inc(), testing::NaiveCounterSpec::inc()},
           {testing::NaiveCounterSpec::inc(),
            testing::NaiveCounterSpec::inc()}});
  std::optional<std::vector<sim::Decision>> failing;
  (void)explorer.explore(
      {.max_depth = 32, .max_executions = 100'000}, nullptr,
      [&](testing::BrokenCounterSystem&, const auto& hist) {
        if (!failing.has_value() &&
            !verify::check_linearizable(spec, hist).ok()) {
          failing = explorer.current_prefix();
        }
      });
  ASSERT_TRUE(failing.has_value())
      << "the step model cannot reproduce the lost update";

  // 3. SHRINK: greedy window removal over try_execute; the failure must
  // survive (complete history, still non-linearizable).
  const auto still_fails = [&](const auto& hist) {
    return hist.num_pending() == 0 &&
           !verify::check_linearizable(spec, hist).ok();
  };
  const std::vector<sim::Decision> shrunk = verify::shrink_schedule(
      *failing,
      [&](const std::vector<sim::Decision>& candidate) {
        return explorer.try_execute(candidate);
      },
      still_fails);
  EXPECT_LT(shrunk.size(), failing->size())
      << "shrinking removed nothing from a 12-decision schedule whose "
         "minimal counterexample is 6 decisions";
  const auto shrunk_hist = explorer.try_execute(shrunk);
  ASSERT_TRUE(shrunk_hist.has_value());
  EXPECT_TRUE(still_fails(*shrunk_hist));

  // 4. PERSIST: the paste-ready ScheduleTrace literal (sim/trace.h).
  const sim::ScheduleTrace trace = explorer.trace_of(shrunk);
  const std::string literal = trace.pretty();
  std::cout << "shrunk broken-counter ScheduleTrace ("
            << (caught_seed ? *caught_seed : 0) << " caught it on threads):\n"
            << literal << std::endl;
  EXPECT_FALSE(literal.empty());
  testing::dump_failing_trace("broken_counter_shrunk", literal);
}

// --------------------------------------------------------- SWSR registers

std::vector<spec::RegisterSpec::Op> writer_script(std::uint32_t k, int ops,
                                                  util::Xoshiro256& rng) {
  std::vector<spec::RegisterSpec::Op> script;
  for (int i = 0; i < ops; ++i) {
    script.push_back(spec::RegisterSpec::write(
        static_cast<std::uint32_t>(rng.next_in(1, k))));
  }
  return script;
}

TEST(FuzzRt, VidyasankarRegister_Linearizable) {
  // Algorithm 1: linearizable but NOT HI — history check only.
  const std::uint32_t k = 6;
  const spec::RegisterSpec spec(k, 1);
  using Alg = algo::VidyasankarAlg<FuzzEnv, FuzzPacked>;
  fuzz_object_suite(
      "vidyasankar", spec, 2, 0xa101,
      [&](int pid, util::Xoshiro256& rng) {
        if (pid == 0) return writer_script(k, 5, rng);
        return std::vector<spec::RegisterSpec::Op>(4,
                                                   spec::RegisterSpec::read());
      },
      [&] { return std::make_unique<Alg>(FuzzEnv::Ctx{}, k, 1); },
      [](Alg& reg, int, const spec::RegisterSpec::Op& op) -> std::uint32_t {
        if (op.kind == spec::RegisterSpec::Kind::kWrite) {
          (void)reg.write(op.value).get();
          return 0;  // the spec's Write response
        }
        return reg.read().get();
      },
      [](Alg&, auto&) {},  // no final check, so nothing to pin
      [](Alg&, const auto&, const auto&, std::uint64_t) {});
}

TEST(FuzzRt, LockFreeHiRegister_LinearizableAndQuiescentCanonical) {
  const std::uint32_t k = 6;
  const spec::RegisterSpec spec(k, 1);
  using Alg = algo::LockFreeHiAlg<FuzzEnv, FuzzPacked>;
  fuzz_object_suite(
      "lockfree-register", spec, 2, 0xa102,
      [&](int pid, util::Xoshiro256& rng) {
        if (pid == 0) return writer_script(k, 5, rng);
        return std::vector<spec::RegisterSpec::Op>(4,
                                                   spec::RegisterSpec::read());
      },
      [&] { return std::make_unique<Alg>(FuzzEnv::Ctx{}, k, 1); },
      [](Alg& reg, int, const spec::RegisterSpec::Op& op) -> std::uint32_t {
        if (op.kind == spec::RegisterSpec::Kind::kWrite) {
          (void)reg.write(op.value).get();
          return 0;
        }
        // Packed K ≤ 64: a TryRead is a full-array word snapshot, so it
        // always succeeds — the bound never binds.
        return reg.read_bounded(1'000'000).get().value();
      },
      [](Alg& reg, auto& recorder) {
        recorder.run(1, spec::RegisterSpec::read(), [&] {
          return reg.read_bounded(1'000'000).get().value();
        });
      },
      [&](Alg& reg, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        Alg replayed(FuzzEnv::Ctx{}, k, 1);
        for (const std::size_t idx : witness) {
          const auto& e = hist.entries()[idx];
          if (e.op.kind == spec::RegisterSpec::Kind::kWrite) {
            (void)replayed.write(e.op.value).get();
          } else {
            (void)replayed.read_bounded(1).get();
          }
        }
        EXPECT_EQ(algo::memory_image(reg), algo::memory_image(replayed))
            << "state-quiescent HI image diverges from witness replay at seed "
            << seed;
      });
}

TEST(FuzzRt, WaitFreeHiRegister_LinearizableAndQuiescentCanonical) {
  const std::uint32_t k = 6;
  const spec::RegisterSpec spec(k, 1);
  using Alg = algo::WaitFreeHiAlg<FuzzEnv, FuzzPacked>;
  fuzz_object_suite(
      "waitfree-register", spec, 2, 0xa103,
      [&](int pid, util::Xoshiro256& rng) {
        if (pid == 0) return writer_script(k, 5, rng);
        return std::vector<spec::RegisterSpec::Op>(4,
                                                   spec::RegisterSpec::read());
      },
      [&] { return std::make_unique<Alg>(FuzzEnv::Ctx{}, k, 1); },
      [](Alg& reg, int, const spec::RegisterSpec::Op& op) -> std::uint32_t {
        if (op.kind == spec::RegisterSpec::Kind::kWrite) {
          (void)reg.write(op.value).get();
          return 0;
        }
        return reg.read().get();
      },
      [](Alg& reg, auto& recorder) {
        recorder.run(1, spec::RegisterSpec::read(),
                     [&] { return reg.read().get(); });
      },
      [&](Alg& reg, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        Alg replayed(FuzzEnv::Ctx{}, k, 1);
        for (const std::size_t idx : witness) {
          const auto& e = hist.entries()[idx];
          if (e.op.kind == spec::RegisterSpec::Kind::kWrite) {
            (void)replayed.write(e.op.value).get();
          } else {
            (void)replayed.read().get();
          }
        }
        EXPECT_EQ(algo::memory_image(reg), algo::memory_image(replayed))
            << "quiescent HI image diverges from witness replay at seed "
            << seed;
      });
}

TEST(FuzzRt, WaitFreeSimHiRegister_AggressiveYieldsAuditPinnedInnerImage) {
  // The wait-free simulation combinator (algo/wait_free_sim.h) on real
  // threads under the AGGRESSIVE injection policy (the positive control's
  // knobs — fuzz_object_suite's default policy is too gentle to force the
  // slow path reliably): writer pid 0 runs direct writes, reader pids 1/2
  // run helped reads. Yields inside the fast-path scan push reads onto the
  // announce/enqueue/help slow path; yields between a retirer's two CASes
  // exercise the stale-head repair; concurrent helpers race the record CAS.
  //
  // Post-checks: the extended (audit-including) history linearizes, and the
  // INNER image equals the audit-pinned unit vector e_state — Alg 2's
  // canonical-bins property survives under the combinator. The FULL image
  // is deliberately not compared against a witness replay: the combinator
  // is not state-quiescent HI (Thm 17) — its records and queue counters
  // depend on how many reads were helped, which varies per schedule.
  const std::uint32_t k = 6;
  const int num_threads = 3;
  const spec::RegisterSpec spec(k, 1);
  const env::YieldPolicy aggressive{/*permille=*/700, /*max_yields=*/4,
                                    /*max_spins=*/64};
  using Alg = algo::WaitFreeSimHiAlg<FuzzEnv, FuzzPacked>;
  const int iters = testing::rt_fuzz_iters(kDefaultIters);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xa10a, static_cast<std::uint64_t>(iter));
    Alg reg(FuzzEnv::Ctx{}, k, 1, /*num_processes=*/num_threads,
            /*fast_limit=*/1);
    std::vector<std::vector<spec::RegisterSpec::Op>> scripts(num_threads);
    for (int pid = 0; pid < num_threads; ++pid) {
      util::Xoshiro256 rng(
          util::hash_combine(seed, 0x5c21 + static_cast<std::uint64_t>(pid)));
      scripts[static_cast<std::size_t>(pid)] =
          pid == 0 ? writer_script(k, 5, rng)
                   : std::vector<spec::RegisterSpec::Op>(
                         4, spec::RegisterSpec::read());
    }
    testing::RtHistoryRecorder<spec::RegisterSpec::Op, spec::RegisterSpec::Resp>
        recorder(num_threads);
    testing::run_fuzz_threads(num_threads, seed, aggressive, [&](int pid) {
      for (const spec::RegisterSpec::Op& op :
           scripts[static_cast<std::size_t>(pid)]) {
        recorder.run(pid, op, [&]() -> std::uint32_t {
          if (op.kind == spec::RegisterSpec::Kind::kWrite) {
            (void)reg.write(pid, op.value).get();
            return 0;
          }
          return reg.read(pid).get();
        });
      }
    });
    // Audit (threads joined, injector disarmed here): one solo read follows
    // everything in real time, pinning the final abstract state.
    std::uint32_t audited = 0;
    recorder.run(1, spec::RegisterSpec::read(), [&] {
      audited = reg.read(1).get();
      return audited;
    });
    const auto history = recorder.build();
    ASSERT_EQ(history.num_pending(), 0u);
    ASSERT_TRUE(verify::check_linearizable(spec, history).ok())
        << "wait-free-sim: non-linearizable real-thread history at seed "
        << seed;
    ASSERT_GE(audited, 1u);
    std::vector<std::uint8_t> expected(k, 0);
    expected[audited - 1] = 1;
    std::vector<std::uint8_t> inner;
    reg.encode_inner_memory(inner);
    EXPECT_EQ(inner, expected)
        << "inner bins diverge from the audit-pinned unit vector at seed "
        << seed;
    // Stats sanity: every op counted once; only reads can enter the slow
    // path, and each slow entry completes exactly once (owner or helper).
    EXPECT_EQ(reg.total_ops(), 14u);  // 5 writes + 8 reads + 1 audit read
    EXPECT_LE(reg.slow_path_entries(), 9u);
    EXPECT_LE(reg.helped_completions(), reg.slow_path_entries());
  }
}

TEST(FuzzRt, MaxRegister_LinearizableAndQuiescentCanonical) {
  const std::uint32_t k = 6;
  const spec::MaxRegisterSpec spec(k, 1);
  using Alg = algo::HiMaxRegisterAlg<FuzzEnv, FuzzPacked>;
  const auto make = [&] {
    return std::make_unique<Alg>(FuzzEnv::Ctx{}, k, 1, /*writer_pid=*/0,
                                 /*reader_pid=*/1);
  };
  fuzz_object_suite(
      "max-register", spec, 2, 0xa104,
      [&](int pid, util::Xoshiro256& rng) {
        std::vector<spec::MaxRegisterSpec::Op> script;
        for (int i = 0; i < (pid == 0 ? 5 : 4); ++i) {
          script.push_back(pid == 0
                               ? spec::MaxRegisterSpec::write_max(
                                     static_cast<std::uint32_t>(
                                         rng.next_in(1, k)))
                               : spec::MaxRegisterSpec::read_max());
        }
        return script;
      },
      make,
      [](Alg& reg, int pid, const spec::MaxRegisterSpec::Op& op)
          -> std::uint32_t {
        if (op.kind == spec::MaxRegisterSpec::Kind::kWriteMax) {
          (void)reg.write_max(pid, op.value).get();
          return 0;
        }
        return reg.read_max(pid).get();
      },
      [](Alg& reg, auto& recorder) {
        recorder.run(1, spec::MaxRegisterSpec::read_max(),
                     [&] { return reg.read_max(1).get(); });
      },
      [&](Alg& reg, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        auto replayed = make();
        for (const std::size_t idx : witness) {
          const auto& e = hist.entries()[idx];
          if (e.op.kind == spec::MaxRegisterSpec::Kind::kWriteMax) {
            (void)replayed->write_max(0, e.op.value).get();
          } else {
            (void)replayed->read_max(1).get();
          }
        }
        EXPECT_EQ(algo::memory_image(reg), algo::memory_image(*replayed))
            << "max-register HI image diverges from witness replay at seed "
            << seed;
      });
}

// ------------------------------------------------------------- MRMW sets

std::vector<spec::SetSpec::Op> set_script(std::uint32_t domain, int ops,
                                          util::Xoshiro256& rng) {
  std::vector<spec::SetSpec::Op> script;
  for (int i = 0; i < ops; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
    switch (rng.next_below(3)) {
      case 0: script.push_back(spec::SetSpec::insert(v)); break;
      case 1: script.push_back(spec::SetSpec::remove(v)); break;
      default: script.push_back(spec::SetSpec::lookup(v)); break;
    }
  }
  return script;
}

bool run_set_op(auto& set, const spec::SetSpec::Op& op) {
  switch (op.kind) {
    case spec::SetSpec::Kind::kInsert: return set.insert(op.value).get();
    case spec::SetSpec::Kind::kRemove: return set.remove(op.value).get();
    default: return set.lookup(op.value).get();
  }
}

TEST(FuzzRt, HiSet_LinearizableAndPerfectHI) {
  const std::uint32_t domain = 10;
  const spec::SetSpec spec(domain);
  using Alg = algo::HiSetAlg<FuzzEnv, FuzzPacked>;
  fuzz_object_suite(
      "hi-set", spec, 3, 0xa105,
      [&](int, util::Xoshiro256& rng) { return set_script(domain, 6, rng); },
      [&] {
        return std::make_unique<Alg>(FuzzEnv::Ctx{}, domain,
                                     spec.initial_state());
      },
      [](Alg& set, int, const spec::SetSpec::Op& op) {
        return run_set_op(set, op);
      },
      [&](Alg& set, auto& recorder) {
        // Full-domain lookup sweep: pins every bit of the final abstract set.
        for (std::uint32_t v = 1; v <= domain; ++v) {
          recorder.run(0, spec::SetSpec::lookup(v),
                       [&] { return set.lookup(v).get(); });
        }
      },
      [&](Alg& set, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        Alg replayed(FuzzEnv::Ctx{}, domain, spec.initial_state());
        for (const std::size_t idx : witness) {
          (void)run_set_op(replayed, hist.entries()[idx].op);
        }
        EXPECT_EQ(algo::memory_image(set), algo::memory_image(replayed))
            << "perfect-HI set image diverges from witness replay at seed "
            << seed;
      });
}

TEST(FuzzRt, ShardedHiSet_LinearizableAndPerfectHI) {
  const std::uint32_t domain = 12;
  const spec::SetSpec spec(domain);
  using Alg = algo::ShardedHiSet<FuzzEnv, FuzzPacked>;
  const auto make = [&] {
    return std::make_unique<Alg>(FuzzEnv::Ctx{}, domain, /*shard_count=*/4,
                                 algo::ShardPlacement::kStriped,
                                 std::span<const std::uint64_t>{});
  };
  fuzz_object_suite(
      "sharded-hi-set", spec, 3, 0xa106,
      [&](int, util::Xoshiro256& rng) { return set_script(domain, 6, rng); },
      make,
      [](Alg& set, int, const spec::SetSpec::Op& op) {
        return run_set_op(set, op);
      },
      [&](Alg& set, auto& recorder) {
        for (std::uint32_t v = 1; v <= domain; ++v) {
          recorder.run(0, spec::SetSpec::lookup(v),
                       [&] { return set.lookup(v).get(); });
        }
      },
      [&](Alg& set, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        auto replayed = make();
        for (const std::size_t idx : witness) {
          (void)run_set_op(*replayed, hist.entries()[idx].op);
        }
        EXPECT_EQ(algo::memory_image(set), algo::memory_image(*replayed))
            << "sharded-store image diverges from witness replay at seed "
            << seed;
      });
}

// ----------------------------------------------------------------- R-LLSC

TEST(FuzzRt, CasRllsc_LinearizableAndContextClean) {
  const int n = 3;
  const spec::RllscSpec spec(16, n);
  using Alg = algo::CasRllscAlg<FuzzEnv>;
  fuzz_object_suite(
      "cas-rllsc", spec, n, 0xa107,
      [&](int pid, util::Xoshiro256& rng) {
        std::vector<spec::RllscSpec::Op> script;
        for (int i = 0; i < 5; ++i) {
          const auto arg = static_cast<std::uint16_t>(rng.next_below(16));
          switch (rng.next_below(6)) {
            case 0: script.push_back(spec::RllscSpec::ll(pid)); break;
            case 1: script.push_back(spec::RllscSpec::vl(pid)); break;
            case 2: script.push_back(spec::RllscSpec::sc(pid, arg)); break;
            case 3: script.push_back(spec::RllscSpec::rl(pid)); break;
            case 4: script.push_back(spec::RllscSpec::load(pid)); break;
            default: script.push_back(spec::RllscSpec::store(pid, arg)); break;
          }
        }
        // End released: every workload closes its context bit so the final
        // snapshot must show ctx == 0 (perfect HI of the cell).
        script.push_back(spec::RllscSpec::rl(pid));
        return script;
      },
      [&] { return std::make_unique<Alg>(FuzzEnv::Ctx{}, "X", 0); },
      [](Alg& cell, int pid, const spec::RllscSpec::Op& op)
          -> spec::RllscSpec::Resp {
        switch (op.kind) {
          case spec::RllscSpec::Kind::kLL:
            return {static_cast<std::uint32_t>(cell.ll(pid).get()), true};
          case spec::RllscSpec::Kind::kVL:
            return {0, cell.vl(pid).await_resume()};
          case spec::RllscSpec::Kind::kSC:
            return {0, cell.sc(pid, op.arg).get()};
          case spec::RllscSpec::Kind::kRL:
            return {0, cell.rl(pid).get()};
          case spec::RllscSpec::Kind::kLoad:
            return {static_cast<std::uint32_t>(cell.load().await_resume()),
                    true};
          default:
            return {0, cell.store(op.arg).await_resume()};
        }
      },
      [](Alg& cell, auto& recorder) {
        recorder.run(0, spec::RllscSpec::load(0), [&] {
          return spec::RllscSpec::Resp{
              static_cast<std::uint32_t>(cell.load().await_resume()), true};
        });
      },
      [&](Alg& cell, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        const auto final_state = witness_final_state(spec, hist, witness);
        const auto word = cell.peek_word();
        EXPECT_EQ(word.value, final_state.val)
            << "cell value diverges from the witness's final state at seed "
            << seed;
        EXPECT_EQ(word.ctx, 0u)
            << "context bits leaked past the closing RLs at seed " << seed;
        EXPECT_EQ(final_state.ctx, 0u);
      });
}

// ------------------------------------------------------ universal objects

std::vector<spec::CounterSpec::Op> counter_script(int ops,
                                                  util::Xoshiro256& rng) {
  std::vector<spec::CounterSpec::Op> script;
  for (int i = 0; i < ops; ++i) {
    switch (rng.next_below(4)) {
      case 0: script.push_back(spec::CounterSpec::read()); break;
      case 1: script.push_back(spec::CounterSpec::dec()); break;
      default: script.push_back(spec::CounterSpec::inc()); break;
    }
  }
  return script;
}

TEST(FuzzRt, UniversalCounter_LinearizableAndQuiescentCanonical) {
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  fuzz_object_suite(
      "universal-counter", spec, n, 0xa108,
      [&](int, util::Xoshiro256& rng) { return counter_script(5, rng); },
      [&] { return std::make_unique<Alg>(FuzzEnv::Ctx{}, spec, n); },
      [](Alg& obj, int pid, const spec::CounterSpec::Op& op) {
        return obj.apply(pid, op).get();
      },
      [](Alg& obj, auto& recorder) {
        recorder.run(0, spec::CounterSpec::read(),
                     [&] { return obj.apply(0, spec::CounterSpec::read()).get(); });
      },
      [&](Alg& obj, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        // Quiescent canonical memory: head = encoded abstract state with no
        // response, all announces ⊥, no context bits — i.e. nothing about
        // WHICH ops ran survives beyond the abstract state.
        const auto final_state = witness_final_state(spec, hist, witness);
        EXPECT_EQ(obj.head_state_encoded(), spec.encode_state(final_state))
            << "head diverges from the witness's final state at seed " << seed;
        EXPECT_FALSE(obj.head_has_response()) << "seed " << seed;
        EXPECT_EQ(obj.context_union(), 0u) << "seed " << seed;
        for (int pid = 0; pid < n; ++pid) {
          EXPECT_TRUE(obj.announce_is_bottom(pid))
              << "announce[" << pid << "] leaked at seed " << seed;
        }
      });
}

TEST(FuzzRt, UniversalCombineCounter_AggressiveYieldsLinearizableAndQuiescentCanonical) {
  // Flat-combining mode on real threads under the AGGRESSIVE injection
  // policy (the positive control's knobs): yields inside the winner's
  // announce scan park it mid-combining-phase, forcing peers through the
  // foreign-combining-record spin (Env::relax) and piling announcements up
  // for the next batch. Post-checks are the same audit-pinned
  // quiescent-image contract as plain mode — the combining record, the
  // helped responses, and the batch bookkeeping must all be gone at rest,
  // leaving the canonical head/⊥/ctx-free image — plus batch-counter
  // sanity: every update is combined into exactly one installed batch.
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  const env::YieldPolicy aggressive{/*permille=*/700, /*max_yields=*/4,
                                    /*max_spins=*/64};
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  fuzz_object_suite(
      "universal-combine-counter", spec, n, 0xa10b,
      [&](int, util::Xoshiro256& rng) { return counter_script(5, rng); },
      [&] {
        return std::make_unique<Alg>(FuzzEnv::Ctx{}, spec, n,
                                     /*clear_contexts=*/true,
                                     /*combine=*/true);
      },
      [](Alg& obj, int pid, const spec::CounterSpec::Op& op) {
        return obj.apply(pid, op).get();
      },
      [](Alg& obj, auto& recorder) {
        recorder.run(0, spec::CounterSpec::read(),
                     [&] { return obj.apply(0, spec::CounterSpec::read()).get(); });
      },
      [&](Alg& obj, const auto& hist, const std::vector<std::size_t>& witness,
          std::uint64_t seed) {
        const auto final_state = witness_final_state(spec, hist, witness);
        EXPECT_EQ(obj.head_state_encoded(), spec.encode_state(final_state))
            << "head diverges from the witness's final state at seed " << seed;
        EXPECT_FALSE(obj.head_has_response()) << "seed " << seed;
        EXPECT_EQ(obj.context_union(), 0u) << "seed " << seed;
        for (int pid = 0; pid < n; ++pid) {
          EXPECT_TRUE(obj.announce_is_bottom(pid))
              << "announce[" << pid << "] leaked at seed " << seed;
        }
        // Batch accounting: every non-read-only op in the history was
        // applied in exactly one installed batch; batches never exceed ops.
        std::uint64_t updates = 0;
        for (const auto& e : hist.entries()) {
          if (e.op.kind != spec::CounterSpec::Kind::kRead) ++updates;
        }
        EXPECT_EQ(obj.ops_combined(), updates) << "seed " << seed;
        EXPECT_LE(obj.batches_installed(), obj.ops_combined())
            << "seed " << seed;
        if (updates > 0) {
          EXPECT_GE(obj.batches_installed(), 1u) << "seed " << seed;
        }
      },
      aggressive);
}

TEST(FuzzRt, LeakyUniversalCounter_Linearizable) {
  // The baseline leaks history on purpose (version counter, result table) —
  // linearizability is its only contract under concurrency.
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::LeakyUniversalAlg<FuzzEnv, spec::CounterSpec>;
  fuzz_object_suite(
      "leaky-universal", spec, n, 0xa109,
      [&](int, util::Xoshiro256& rng) { return counter_script(5, rng); },
      [&] { return std::make_unique<Alg>(FuzzEnv::Ctx{}, spec, n); },
      [](Alg& obj, int pid, const spec::CounterSpec::Op& op) {
        return obj.apply(pid, op).get();
      },
      [](Alg&, auto&) {},  // lin-only: no image to pin
      [](Alg&, const auto&, const auto&, std::uint64_t) {});
}

// ------------------------------------------------- stalled-process rows
//
// The rt half of the crash model (docs/FAULTS.md): a thread parked forever
// at a primitive boundary (env::YieldInjector::arm_stall) is
// indistinguishable from a crashed one to every survivor. The progress
// watchdog in run_stall_threads converts "survivors stopped completing
// operations" into a failing test. The recorder only logs an op once its
// body returns, so a parked op is invisible to the history — these rows
// check object-level invariants at quiescence (inc-only scripts make the
// counter accounting exact) instead of linearizability.

TEST(StallRt, PositiveControl_SpinLockWatchdogCatchesStalledLockHolder) {
  // The lock-based counter under a stalled thread: whenever the stall point
  // lands inside the critical section (3 of the 4 boundaries of an inc),
  // the survivors spin on the dead thread's lock forever and the watchdog
  // must fire. Short explicit deadline: every firing iteration waits it out.
  bool fired = false;
  int engaged = 0;
  for (int iter = 0; iter < 8 && !fired; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc301, static_cast<std::uint64_t>(iter));
    testing::SpinLockCounterAlg<FuzzEnv> counter{FuzzEnv::Ctx{}};
    std::atomic<std::uint64_t> progress{0};
    const auto result = testing::run_stall_threads(
        /*num_threads=*/3, /*num_stalled=*/1, seed, env::YieldPolicy{},
        /*stall_window=*/4, progress,
        [&](int) {
          for (int i = 0; i < 2; ++i) {
            (void)counter.inc().get();
            progress.fetch_add(1, std::memory_order_release);
          }
        },
        [] {}, /*deadline_ms=*/400);
    fired = result.watchdog_fired;
    engaged += result.stalled_engaged;
  }
  EXPECT_TRUE(fired)
      << "no stall point ever wedged the lock-based counter — the progress "
         "watchdog's positive control is broken";
  EXPECT_GT(engaged, 0);
}

TEST(StallRt, UniversalCounter_SurvivorsCompleteWithStalledThread) {
  // Plain universal construction, one of three threads parked mid-inc: the
  // survivors must keep completing (lock-freedom does not depend on the
  // parked thread), and the quiescent counter accounts for every completed
  // inc plus AT MOST one helped parked inc.
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  const int iters = testing::rt_fuzz_iters(5);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc302, static_cast<std::uint64_t>(iter));
    Alg obj(FuzzEnv::Ctx{}, spec, n);
    std::atomic<std::uint64_t> progress{0};
    std::array<std::atomic<std::uint64_t>, 3> completed{};
    const auto result = testing::run_stall_threads(
        n, /*num_stalled=*/1, seed, env::YieldPolicy{},
        /*stall_window=*/8, progress,
        [&](int pid) {
          for (int i = 0; i < 5; ++i) {
            (void)obj.apply(pid, spec::CounterSpec::inc()).get();
            progress.fetch_add(1, std::memory_order_release);
            completed[static_cast<std::size_t>(pid)].fetch_add(
                1, std::memory_order_release);
          }
        },
        [&] {
          // Quiescence window: survivors done, the stalled thread still
          // parked — exactly the image a crash would have left.
          const std::uint64_t done =
              completed[0].load() + completed[1].load() + completed[2].load();
          const std::uint64_t head = obj.head_state_encoded();
          EXPECT_GE(head, 10 + done) << "seed " << seed;
          EXPECT_LE(head, 10 + done + 1)
              << "seed " << seed
              << ": more than the one parked inc unaccounted for";
        });
    if (result.watchdog_fired) {
      std::ostringstream note;
      note << "universal-counter stall row wedged at seed " << seed
           << " (stalled_engaged=" << result.stalled_engaged << ")";
      testing::dump_failing_trace("stall_universal_watchdog", note.str());
    }
    ASSERT_FALSE(result.watchdog_fired)
        << "survivors of the lock-free universal construction stopped "
           "completing with one thread parked, seed "
        << seed;
  }
}

TEST(StallRt, WaitFreeSim_WriterUnaffectedByStalledSlowPathReader) {
  // Wait-free simulation combinator with fast_limit = 0 (every read
  // announces + enqueues): thread 0 is a reader and gets parked somewhere
  // in its announce/enqueue/help window. The writer and the other reader
  // must finish regardless, and the quiescent inner image is the unit
  // vector of the final write — the parked read leaves no trace in the
  // bins, wherever it stopped.
  const std::uint32_t k = 6;
  const spec::RegisterSpec spec(k, 1);
  using Alg = algo::WaitFreeSimHiAlg<FuzzEnv, FuzzPacked>;
  const int iters = testing::rt_fuzz_iters(5);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc303, static_cast<std::uint64_t>(iter));
    Alg reg(FuzzEnv::Ctx{}, k, 1, /*num_processes=*/3, /*fast_limit=*/0);
    std::atomic<std::uint64_t> progress{0};
    const auto result = testing::run_stall_threads(
        /*num_threads=*/3, /*num_stalled=*/1, seed, env::YieldPolicy{},
        /*stall_window=*/12, progress,
        [&](int pid) {
          if (pid == 1) {
            for (std::uint32_t v = 2; v <= 6; ++v) {
              (void)reg.write(1, v).get();
              progress.fetch_add(1, std::memory_order_release);
            }
          } else {
            for (int i = 0; i < 4; ++i) {
              const std::uint32_t seen = reg.read(pid).get();
              EXPECT_GE(seen, 1u);
              EXPECT_LE(seen, 6u);
              progress.fetch_add(1, std::memory_order_release);
            }
          }
        },
        [&] {
          std::vector<std::uint8_t> expected(k, 0);
          expected[6 - 1] = 1;  // the writer's last completed write
          std::vector<std::uint8_t> inner;
          reg.encode_inner_memory(inner);
          EXPECT_EQ(inner, expected)
              << "parked slow-path reader left residue in the inner bins at "
                 "seed "
              << seed;
        });
    if (result.watchdog_fired) {
      std::ostringstream note;
      note << "wait-free-sim stall row wedged at seed " << seed
           << " (stalled_engaged=" << result.stalled_engaged << ")";
      testing::dump_failing_trace("stall_wfs_watchdog", note.str());
    }
    ASSERT_FALSE(result.watchdog_fired)
        << "wait-free survivors stopped completing with a parked reader, "
           "seed "
        << seed;
  }
}

TEST(StallRt, CombiningUniversal_StalledCombinerDocumentedBlockingWindow) {
  // Flat-combining mode, one thread parked: when the park lands while that
  // thread holds the combining record, survivors legitimately spin on it —
  // the documented blocking window (docs/FAULTS.md), the rt analogue of
  // CrashAudit.CombiningUniversalWinnerCrashedMidBatchBlocks. Outside that
  // window survivors must finish with exact counter accounting. The row
  // asserts both outcomes occur nowhere they shouldn't: a non-fired run
  // must balance the books, and across the seed sweep at least one run
  // must complete (the blocking window is a window, not the whole op).
  const int n = 3;
  const spec::CounterSpec spec(1u << 20, 10);
  using Alg = algo::UniversalAlg<FuzzEnv, spec::CounterSpec,
                                 algo::CasRllscAlg<FuzzEnv>>;
  int completed_runs = 0;
  const int iters = std::max(4, testing::rt_fuzz_iters(5));
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed =
        util::hash_combine(0xc304, static_cast<std::uint64_t>(iter));
    Alg obj(FuzzEnv::Ctx{}, spec, n, /*clear_contexts=*/true,
            /*combine=*/true);
    std::atomic<std::uint64_t> progress{0};
    std::array<std::atomic<std::uint64_t>, 3> completed{};
    const auto result = testing::run_stall_threads(
        n, /*num_stalled=*/1, seed, env::YieldPolicy{},
        /*stall_window=*/10, progress,
        [&](int pid) {
          for (int i = 0; i < 5; ++i) {
            (void)obj.apply(pid, spec::CounterSpec::inc()).get();
            progress.fetch_add(1, std::memory_order_release);
            completed[static_cast<std::size_t>(pid)].fetch_add(
                1, std::memory_order_release);
          }
        },
        [&] {
          const std::uint64_t done =
              completed[0].load() + completed[1].load() + completed[2].load();
          const std::uint64_t head = obj.head_state_encoded();
          EXPECT_GE(head, 10 + done) << "seed " << seed;
          EXPECT_LE(head, 10 + done + 1) << "seed " << seed;
        },
        /*deadline_ms=*/2'000);
    if (!result.watchdog_fired) ++completed_runs;
  }
  EXPECT_GT(completed_runs, 0)
      << "every stall point blocked the combining universal — the blocking "
         "window should be the combining-record hold, not the entire op";
}

}  // namespace
}  // namespace hi
