#include "nbclos/analysis/parallel.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

PatternRouterFactory dmodk_factory(const FoldedClos& ft) {
  return [&ft](std::uint64_t) -> PatternRouter {
    // D-mod-K is stateless; a shared-const router per worker is fine.
    return [&ft](const Permutation& pattern) {
      const DModKRouting routing(ft);
      return routing.route_all(pattern);
    };
  };
}

TEST(ParallelAnalysis, MatchesSerialBlockedCountsDeterministically) {
  const FoldedClos ft(FtreeParams{2, 2, 5});
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  const auto a = estimate_blocking_parallel(ft, dmodk_factory(ft), 400, 99,
                                            pool2, 8);
  const auto b = estimate_blocking_parallel(ft, dmodk_factory(ft), 400, 99,
                                            pool4, 8);
  // Identical regardless of pool size: same chunk seeds, same merge order.
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_DOUBLE_EQ(a.mean_colliding_pairs, b.mean_colliding_pairs);
  EXPECT_DOUBLE_EQ(a.mean_max_link_load, b.mean_max_link_load);
  EXPECT_EQ(a.trials, 400U);
}

TEST(ParallelAnalysis, DifferentSeedsDiffer) {
  const FoldedClos ft(FtreeParams{2, 2, 5});
  ThreadPool pool(2);
  const auto a =
      estimate_blocking_parallel(ft, dmodk_factory(ft), 300, 1, pool, 8);
  const auto b =
      estimate_blocking_parallel(ft, dmodk_factory(ft), 300, 2, pool, 8);
  EXPECT_NE(a.mean_colliding_pairs, b.mean_colliding_pairs);
}

TEST(ParallelAnalysis, BlockingSchemeShowsHighProbability) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  ThreadPool pool(3);
  const auto est =
      estimate_blocking_parallel(ft, dmodk_factory(ft), 200, 7, pool);
  EXPECT_GT(est.blocking_probability, 0.9);
}

TEST(ParallelAnalysis, VerifyRandomParallelPassesNonblockingScheme) {
  const FoldedClos ft(FtreeParams{3, 9, 8});
  const YuanNonblockingRouting routing(ft);
  ThreadPool pool(4);
  const auto factory = [&routing](std::uint64_t) -> PatternRouter {
    return [&routing](const Permutation& pattern) {
      return routing.route_all(pattern);
    };
  };
  const auto result = verify_random_parallel(ft, factory, 200, 5, pool, 8);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 200U);
}

TEST(ParallelAnalysis, VerifyRandomParallelFindsCounterexample) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  ThreadPool pool(4);
  const auto result =
      verify_random_parallel(ft, dmodk_factory(ft), 100, 5, pool, 4);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  const DModKRouting routing(ft);
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(*result.counterexample));
  EXPECT_FALSE(map.contention_free());
}

TEST(ParallelAnalysis, CounterexampleIsDeterministicAcrossPoolSizes) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto a =
      verify_random_parallel(ft, dmodk_factory(ft), 100, 5, pool1, 4);
  const auto b =
      verify_random_parallel(ft, dmodk_factory(ft), 100, 5, pool4, 4);
  ASSERT_TRUE(a.counterexample.has_value());
  ASSERT_TRUE(b.counterexample.has_value());
  EXPECT_EQ(*a.counterexample, *b.counterexample);
}

TEST(ParallelExhaustive, MatchesSerialOnNonblockingInstance) {
  const FoldedClos ft(FtreeParams{2, 4, 3});  // 6 leaves, 720 permutations
  const YuanNonblockingRouting routing(ft);
  const auto factory = [&routing](std::uint64_t) {
    return as_pattern_router(routing);
  };
  const auto serial = verify_exhaustive(ft, as_pattern_router(routing));
  ASSERT_TRUE(serial.nonblocking);
  EXPECT_EQ(serial.permutations_checked, 720U);
  for (const std::size_t threads : {1U, 2U, 8U}) {
    ThreadPool pool(threads);
    const auto sharded = verify_exhaustive_parallel(ft, factory, pool);
    EXPECT_TRUE(sharded.nonblocking) << threads << " threads";
    EXPECT_EQ(sharded.permutations_checked, 720U) << threads << " threads";
    EXPECT_FALSE(sharded.counterexample.has_value());
  }
}

TEST(ParallelExhaustive, LowestRankCounterexampleIsBitIdenticalToSerial) {
  // Broken router: d-mod-k on an undersized fabric blocks, and the
  // sharded sweep must stop at exactly the counterexample the serial
  // enumeration stops at — same pattern, same collision count, same
  // permutations_checked — at any thread count.
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const auto factory = [&routing](std::uint64_t) {
    return as_pattern_router(routing);
  };
  const auto serial = verify_exhaustive(ft, as_pattern_router(routing));
  ASSERT_FALSE(serial.nonblocking);
  ASSERT_TRUE(serial.counterexample.has_value());
  for (const std::size_t threads : {1U, 2U, 8U}) {
    ThreadPool pool(threads);
    const auto sharded = verify_exhaustive_parallel(ft, factory, pool);
    ASSERT_FALSE(sharded.nonblocking) << threads << " threads";
    ASSERT_TRUE(sharded.counterexample.has_value());
    EXPECT_EQ(*sharded.counterexample, *serial.counterexample)
        << threads << " threads";
    EXPECT_EQ(sharded.counterexample_collisions,
              serial.counterexample_collisions);
    EXPECT_EQ(sharded.permutations_checked, serial.permutations_checked)
        << threads << " threads";
  }
}

TEST(ParallelExhaustive, ShardCountDoesNotChangeResult) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const auto factory = [&routing](std::uint64_t) {
    return as_pattern_router(routing);
  };
  ThreadPool pool(4);
  const auto a = verify_exhaustive_parallel(ft, factory, pool, 3);
  const auto b = verify_exhaustive_parallel(ft, factory, pool, 64);
  ASSERT_TRUE(a.counterexample.has_value());
  ASSERT_TRUE(b.counterexample.has_value());
  EXPECT_EQ(*a.counterexample, *b.counterexample);
  EXPECT_EQ(a.permutations_checked, b.permutations_checked);
}

TEST(ParallelAdversarial, ThreadCountIndependentResults) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  const AdversarialOptions options{6, 400};
  std::optional<VerifyResult> reference;
  for (const std::size_t threads : {1U, 2U, 8U}) {
    ThreadPool pool(threads);
    const auto result =
        verify_adversarial_parallel(ft, routing, options, 42, pool);
    if (!reference) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.nonblocking, reference->nonblocking);
    EXPECT_EQ(result.permutations_checked, reference->permutations_checked)
        << threads << " threads";
    EXPECT_EQ(result.counterexample.has_value(),
              reference->counterexample.has_value());
    if (result.counterexample && reference->counterexample) {
      EXPECT_EQ(*result.counterexample, *reference->counterexample)
          << threads << " threads";
    }
  }
}

TEST(ParallelAdversarial, FindsRareBlockingAndVerifiesCounterexample) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  ThreadPool pool(4);
  const auto result = verify_adversarial_parallel(
      ft, routing, AdversarialOptions{10, 1000}, 7, pool);
  ASSERT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(*result.counterexample));
  EXPECT_EQ(map.colliding_pairs(), result.counterexample_collisions);
}

TEST(ParallelAdversarial, StaysCleanOnNonblockingScheme) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  ThreadPool pool(4);
  const auto result = verify_adversarial_parallel(
      ft, routing, AdversarialOptions{3, 200}, 11, pool);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_GE(result.permutations_checked, 3U);
}

TEST(ParallelWorstCase, ThreadCountIndependentAndVerified) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  const AdversarialOptions options{4, 300};
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto a = worst_case_search_parallel(ft, routing, options, 21, pool1);
  const auto b = worst_case_search_parallel(ft, routing, options, 21, pool8);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.permutation, b.permutation);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_GT(a.collisions, 0U);
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(a.permutation));
  EXPECT_EQ(map.colliding_pairs(), a.collisions);
}

// --- fast path == reference ---------------------------------------------
// The cache-backed delta drivers on a routing must return exactly what
// the serial full re-evaluation drivers return on as_pattern_router of
// it with the same seed — every field, counterexample included — at any
// thread count.

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

void expect_same_verify(const VerifyResult& got, const VerifyResult& want,
                        std::size_t threads) {
  EXPECT_EQ(got.nonblocking, want.nonblocking) << threads << " threads";
  EXPECT_EQ(got.permutations_checked, want.permutations_checked)
      << threads << " threads";
  EXPECT_EQ(got.counterexample, want.counterexample) << threads << " threads";
  EXPECT_EQ(got.counterexample_collisions, want.counterexample_collisions)
      << threads << " threads";
}

void expect_same_worst(const WorstCaseResult& got, const WorstCaseResult& want,
                       std::size_t threads) {
  EXPECT_EQ(got.collisions, want.collisions) << threads << " threads";
  EXPECT_EQ(got.evaluations, want.evaluations) << threads << " threads";
  EXPECT_EQ(got.permutation, want.permutation) << threads << " threads";
}

TEST(ParallelAdversarial, MatchesSerialReferenceOnBlockingDModK) {
  // ftree(2+4, 4): blocking is rare, so restarts must climb to it;
  // ftree(3+2, 6): most starts already collide (the batch pre-score).
  for (const FtreeParams params : {FtreeParams{2, 4, 4}, FtreeParams{3, 2, 6}}) {
    const FoldedClos ft(params);
    const DModKRouting routing(ft);
    const AdversarialOptions options{10, 1000};
    const auto reference =
        verify_adversarial(ft, as_pattern_router(routing), options, 12);
    ASSERT_FALSE(reference.nonblocking);
    ASSERT_TRUE(reference.counterexample.has_value());
    for (const auto threads : kThreadCounts) {
      ThreadPool pool(threads);
      expect_same_verify(
          verify_adversarial_parallel(ft, routing, options, 12, pool),
          reference, threads);
    }
  }
}

TEST(ParallelAdversarial, MatchesSerialReferenceOnTheorem3) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  const AdversarialOptions options{3, 200};
  const auto reference =
      verify_adversarial(ft, as_pattern_router(routing), options, 13);
  ASSERT_TRUE(reference.nonblocking);
  for (const auto threads : kThreadCounts) {
    ThreadPool pool(threads);
    expect_same_verify(
        verify_adversarial_parallel(ft, routing, options, 13, pool),
        reference, threads);
  }
}

TEST(ParallelWorstCase, MatchesSerialReferenceOnBlockingDModK) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  const AdversarialOptions options{4, 400};
  const auto reference =
      worst_case_search(ft, as_pattern_router(routing), options, 33);
  ASSERT_GT(reference.collisions, 0U);
  for (const auto threads : kThreadCounts) {
    ThreadPool pool(threads);
    expect_same_worst(
        worst_case_search_parallel(ft, routing, options, 33, pool), reference,
        threads);
  }
}

TEST(ParallelWorstCase, MatchesSerialReferenceOnTheorem3) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  const AdversarialOptions options{3, 300};
  const auto reference =
      worst_case_search(ft, as_pattern_router(routing), options, 34);
  ASSERT_EQ(reference.collisions, 0U);
  for (const auto threads : kThreadCounts) {
    ThreadPool pool(threads);
    expect_same_worst(
        worst_case_search_parallel(ft, routing, options, 34, pool), reference,
        threads);
  }
}

TEST(ParallelAdversarial, RestartSeedsAreDistinct) {
  // SplitMix64 scrambling: consecutive restart indices and nearby master
  // seeds must not collide.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t master : {0ULL, 1ULL, 42ULL}) {
    for (std::uint32_t restart = 0; restart < 64; ++restart) {
      seeds.insert(adversarial_restart_seed(master, restart));
    }
  }
  EXPECT_EQ(seeds.size(), 3U * 64U);
}

TEST(ParallelAnalysis, RejectsZeroTrials) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  ThreadPool pool(2);
  EXPECT_THROW((void)estimate_blocking_parallel(ft, dmodk_factory(ft), 0, 1,
                                                pool),
               precondition_error);
}

}  // namespace
}  // namespace nbclos
