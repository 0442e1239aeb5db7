#include "nbclos/analysis/verifier.hpp"

#include <gtest/gtest.h>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/edge_coloring.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

TEST(Verifier, ExhaustiveProvesNonblockingInstance) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const YuanNonblockingRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  EXPECT_TRUE(result.nonblocking);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.permutations_checked, 720U);
}

TEST(Verifier, ExhaustiveFindsCounterexampleForBlockingRouting) {
  const FoldedClos ft(FtreeParams{2, 2, 3});  // m < n^2: must block
  const DModKRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_GT(result.counterexample_collisions, 0U);
  // The counterexample actually blocks.
  EXPECT_TRUE(has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Verifier, RandomAcceptsNonblockingScheme) {
  const FoldedClos ft(FtreeParams{3, 9, 7});
  const YuanNonblockingRouting routing(ft);
  Xoshiro256 rng(10);
  const auto result = verify_random(ft, as_pattern_router(routing), 100, rng);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 100U);
}

TEST(Verifier, RandomCatchesHeavilyBlockingScheme) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  Xoshiro256 rng(11);
  const auto result = verify_random(ft, as_pattern_router(routing), 100, rng);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  validate_permutation(*result.counterexample, ft.leaf_count());
}

TEST(Verifier, AdversarialBeatsRandomOnRareBlocking) {
  // ftree(2+4, 4), d-mod-k: blocking exists (Lemma 1 fails) but is rare
  // under uniform sampling on this small instance; the hill climber must
  // find it within a modest budget.
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  ASSERT_FALSE(is_nonblocking_single_path(routing));
  const auto result = verify_adversarial(
      ft, as_pattern_router(routing), AdversarialOptions{10, 1000}, 12);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Verifier, AdversarialStaysCleanOnNonblockingScheme) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  const auto result = verify_adversarial(
      ft, as_pattern_router(routing), AdversarialOptions{3, 200}, 13);
  EXPECT_TRUE(result.nonblocking);
}

TEST(Verifier, WorksWithPatternLevelRouters) {
  // The PatternRouter abstraction also fits the centralized scheme,
  // which has no per-SD fixed path.
  const FoldedClos ft(FtreeParams{2, 2, 4});  // m = n: rearrangeable
  const CentralizedRearrangeableRouter router(ft);
  const auto route_fn = [&router](const Permutation& p) {
    return router.route(p);
  };
  const auto result = verify_exhaustive(ft, route_fn);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 40320U);  // 8!
}

TEST(Verifier, WorstCaseSearchEscalatesCollisions) {
  // The maximizer should find patterns substantially worse than a random
  // draw for an undersized network.
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  Xoshiro256 rng(33);
  // Baseline: average collisions of random permutations.
  double random_mean = 0.0;
  for (int i = 0; i < 30; ++i) {
    LinkLoadMap map(ft);
    map.add_paths(routing.route_all(random_permutation(ft.leaf_count(), rng)));
    random_mean += static_cast<double>(map.colliding_pairs());
  }
  random_mean /= 30.0;
  const auto worst = worst_case_search(ft, as_pattern_router(routing),
                                       AdversarialOptions{4, 800}, 33);
  EXPECT_GT(static_cast<double>(worst.collisions), random_mean);
  // The reported permutation really produces the reported collisions.
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(worst.permutation));
  EXPECT_EQ(map.colliding_pairs(), worst.collisions);
  validate_permutation(worst.permutation, ft.leaf_count());
}

TEST(Verifier, WorstCaseSearchFindsZeroForNonblockingScheme) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  const auto worst = worst_case_search(ft, as_pattern_router(routing),
                                       AdversarialOptions{3, 300}, 34);
  EXPECT_EQ(worst.collisions, 0U);
  EXPECT_GT(worst.evaluations, 0U);
}

TEST(Verifier, DeltaRestartMatchesFullRestartExactly) {
  // Same seed -> same start pattern and same swap proposals; since delta
  // and full evaluation must agree on every collision count, the entire
  // trajectory (accepts, reverts, final pattern) is identical.
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  const auto cache = routing::RouteCache::materialize(routing);
  for (const std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
    for (const bool stop_on_positive : {false, true}) {
      const auto full = adversarial_restart(ft, as_pattern_router(routing),
                                            300, seed, stop_on_positive);
      const auto delta =
          adversarial_restart(ft, cache, 300, seed, stop_on_positive);
      EXPECT_EQ(delta.collisions, full.collisions) << "seed " << seed;
      EXPECT_EQ(delta.evaluations, full.evaluations) << "seed " << seed;
      EXPECT_EQ(delta.pattern, full.pattern) << "seed " << seed;
    }
  }
}

TEST(Verifier, DeltaAdversarialFindsRareBlocking) {
  // The cache-backed delta climb (a 1-thread pool is the serial fast
  // path) on the same budget and seed as the full re-evaluation above.
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  ASSERT_FALSE(is_nonblocking_single_path(routing));
  ThreadPool pool(1);
  const auto result = verify_adversarial_parallel(
      ft, routing, AdversarialOptions{10, 1000}, 12, pool);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Verifier, ExhaustiveStopsAtLowestRankCounterexample) {
  // permutations_checked is now the counterexample's lexicographic rank
  // + 1 — the serial sweep stops there, and the parallel sweep returns
  // the same number.
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  ASSERT_FALSE(result.nonblocking);
  EXPECT_LT(result.permutations_checked, 720U);
  EXPECT_GT(result.permutations_checked, 0U);
}

TEST(Verifier, CountsPermutationsInAdversarialMode) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const YuanNonblockingRouting routing(ft);
  const AdversarialOptions options{2, 50};
  const auto result =
      verify_adversarial(ft, as_pattern_router(routing), options, 14);
  // 2 restarts x (1 initial + <= 50 steps); i == j steps don't evaluate.
  EXPECT_GE(result.permutations_checked, 2U);
  EXPECT_LE(result.permutations_checked, 102U);
}

}  // namespace
}  // namespace nbclos
