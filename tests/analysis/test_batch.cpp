/// Golden bit-identity tests for the batched evaluation stack: the
/// BatchLoadKernel, the cached delta restarts, and the batched parallel
/// drivers must reproduce the live-routing engines exactly, at every
/// thread count.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "nbclos/analysis/batch.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos {
namespace {

using analysis::BatchLoadKernel;

/// Lane-major random target batch: `lanes` independent full permutations.
std::vector<std::uint32_t> random_target_batch(std::uint32_t leafs,
                                               std::uint32_t lanes,
                                               Xoshiro256& rng) {
  std::vector<std::uint32_t> targets(std::size_t{lanes} * leafs);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const auto base = targets.begin() + std::ptrdiff_t{lane} * leafs;
    std::iota(base, base + leafs, 0U);
    for (std::uint32_t i = leafs - 1; i > 0; --i) {
      const auto j = static_cast<std::uint32_t>(rng.below(i + 1));
      std::swap(base[i], base[j]);
    }
  }
  return targets;
}

/// From-scratch LinkLoadMap evaluation of one lane via live routing.
BatchLoadKernel::LaneStats reference_stats(const SinglePathRouting& routing,
                                           std::span<const std::uint32_t> lane) {
  LinkLoadMap map(routing.ftree());
  for (std::uint32_t s = 0; s < lane.size(); ++s) {
    if (lane[s] == s) continue;
    map.add_path(routing.route(SDPair{LeafId{s}, LeafId{lane[s]}}));
  }
  return {map.colliding_pairs(), map.contended_links(), map.max_load()};
}

TEST(BatchLoadKernel, MatchesLinkLoadMapLaneByLane) {
  const FoldedClos ft(FtreeParams{3, 4, 6});  // m < n^2: plenty of collisions
  const DModKRouting dmodk(ft);
  const auto cache = routing::RouteCache::materialize(dmodk);
  BatchLoadKernel kernel(cache);
  Xoshiro256 rng(11);
  // Back-to-back passes with varying lane counts exercise the
  // touched-slot clearing: stale loads from pass k would corrupt pass
  // k+1's statistics.
  for (const std::uint32_t lanes :
       {1U, BatchLoadKernel::kMaxBatch, 7U, BatchLoadKernel::kMaxBatch, 3U}) {
    const auto targets = random_target_batch(ft.leaf_count(), lanes, rng);
    const auto stats = kernel.score_targets(targets, lanes);
    ASSERT_EQ(stats.size(), lanes);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const auto expect = reference_stats(
          dmodk, std::span<const std::uint32_t>(
                     targets.data() + std::size_t{lane} * ft.leaf_count(),
                     ft.leaf_count()));
      EXPECT_EQ(stats[lane].colliding_pairs, expect.colliding_pairs);
      EXPECT_EQ(stats[lane].contended_links, expect.contended_links);
      EXPECT_EQ(stats[lane].max_load, expect.max_load);
    }
  }
}

TEST(BatchLoadKernel, NonblockingRoutingScoresZeroEverywhere) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::RouteCache::materialize(yuan);
  BatchLoadKernel kernel(cache);
  Xoshiro256 rng(3);
  const auto lanes = BatchLoadKernel::kMaxBatch;
  const auto targets = random_target_batch(ft.leaf_count(), lanes, rng);
  for (const auto& st : kernel.score_targets(targets, lanes)) {
    EXPECT_EQ(st.colliding_pairs, 0U);
    EXPECT_EQ(st.contended_links, 0U);
    EXPECT_LE(st.max_load, 1U);
  }
}

TEST(BatchLoadKernel, SkipsUnroutablePairs) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const DModKRouting dmodk(ft);
  // Pairs out of leaf 0 are unroutable: their links must not load.
  const routing::RouteCache cache(
      ft, [&](SDPair sd, FtreePath& path) -> std::uint8_t {
        if (sd.src.value == 0) return routing::RouteCache::kUnroutable;
        dmodk.route_into(sd, path);
        return 0;
      });
  BatchLoadKernel kernel(cache);
  std::vector<std::uint32_t> targets(ft.leaf_count());
  std::iota(targets.begin(), targets.end(), 0U);
  std::rotate(targets.begin(), targets.begin() + 1, targets.end());
  const auto stats = kernel.score_targets(targets, 1);

  LinkLoadMap map(ft);
  for (std::uint32_t s = 1; s < ft.leaf_count(); ++s) {
    map.add_path(dmodk.route(SDPair{LeafId{s}, LeafId{targets[s]}}));
  }
  EXPECT_EQ(stats[0].colliding_pairs, map.colliding_pairs());
  EXPECT_EQ(stats[0].contended_links, map.contended_links());
  EXPECT_EQ(stats[0].max_load, map.max_load());
}

// --- cached delta restarts ----------------------------------------------

void expect_same_restart(const RestartResult& a, const RestartResult& b) {
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.pattern, b.pattern);
}

TEST(CachedRestart, MatchesFullAndDeltaEvaluationTrajectories) {
  // Same seed -> same start pattern and same swap proposals; since the
  // cached delta climb and full re-evaluation must agree on every
  // collision count, the entire trajectory (accepts, reverts, final
  // pattern) is identical.
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  const auto cache = routing::RouteCache::materialize(dmodk);
  const auto full_router = as_pattern_router(dmodk);
  for (const bool stop_on_positive : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto full =
          adversarial_restart(ft, full_router, 300, seed, stop_on_positive);
      const auto cached =
          adversarial_restart(ft, cache, 300, seed, stop_on_positive);
      expect_same_restart(full, cached);
    }
  }
}

TEST(CachedRestart, NonblockingRoutingNeverFindsCollisions) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::RouteCache::materialize(yuan);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto cached = adversarial_restart(ft, cache, 200, seed, true);
    const auto full =
        adversarial_restart(ft, as_pattern_router(yuan), 200, seed, true);
    EXPECT_EQ(cached.collisions, 0U);
    expect_same_restart(cached, full);
  }
}

// --- batched parallel drivers vs factory overloads ----------------------

void expect_same_verify(const VerifyResult& a, const VerifyResult& b) {
  EXPECT_EQ(a.nonblocking, b.nonblocking);
  EXPECT_EQ(a.permutations_checked, b.permutations_checked);
  EXPECT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
  if (a.counterexample && b.counterexample) {
    EXPECT_EQ(*a.counterexample, *b.counterexample);
  }
  EXPECT_EQ(a.counterexample_collisions, b.counterexample_collisions);
}

PatternRouterFactory factory_for(const SinglePathRouting& routing) {
  return [&routing](std::uint64_t) { return as_pattern_router(routing); };
}

TEST(BatchedParallel, EstimateBlockingBitIdenticalToFactoryOverload) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  ThreadPool baseline_pool(1);
  const auto expect = estimate_blocking_parallel(ft, factory_for(dmodk), 500,
                                                 99, baseline_pool, 8);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    ThreadPool pool(threads);
    const auto got = estimate_blocking_parallel(ft, dmodk, 500, 99, pool, 8);
    EXPECT_EQ(got.trials, expect.trials);
    EXPECT_EQ(got.blocked, expect.blocked);
    EXPECT_EQ(got.blocking_probability, expect.blocking_probability);
    EXPECT_EQ(got.mean_colliding_pairs, expect.mean_colliding_pairs);
    EXPECT_EQ(got.mean_max_link_load, expect.mean_max_link_load);
    EXPECT_EQ(got.ci95_half_width, expect.ci95_half_width);
  }
}

TEST(BatchedParallel, VerifyRandomBitIdenticalToFactoryOverload) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  ThreadPool baseline_pool(1);
  const auto expect = verify_random_parallel(ft, factory_for(dmodk), 400, 21,
                                             baseline_pool, 8);
  ASSERT_FALSE(expect.nonblocking);  // m < n^2 blocks under sampling
  for (const std::size_t threads : {1U, 2U, 4U}) {
    ThreadPool pool(threads);
    expect_same_verify(verify_random_parallel(ft, dmodk, 400, 21, pool, 8),
                       expect);
  }
}

TEST(BatchedParallel, VerifyRandomCertifiesNonblockingRouting) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const YuanNonblockingRouting yuan(ft);
  ThreadPool pool(2);
  const auto got = verify_random_parallel(ft, yuan, 300, 5, pool, 8);
  EXPECT_TRUE(got.nonblocking);
  EXPECT_EQ(got.permutations_checked, 300U);
  expect_same_verify(got, verify_random_parallel(ft, factory_for(yuan), 300, 5,
                                                 pool, 8));
}

TEST(BatchedParallel, AdversarialThreadCountInvariant) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  const AdversarialOptions options{.restarts = 12, .steps_per_restart = 250};
  ThreadPool baseline_pool(1);
  const auto expect =
      verify_adversarial_parallel(ft, dmodk, options, 17, baseline_pool);
  ASSERT_FALSE(expect.nonblocking);
  for (const std::size_t threads : {2U, 4U}) {
    ThreadPool pool(threads);
    expect_same_verify(
        verify_adversarial_parallel(ft, dmodk, options, 17, pool), expect);
  }
  // And the serial full re-evaluation reference agrees field for field.
  expect_same_verify(
      verify_adversarial(ft, as_pattern_router(dmodk), options, 17), expect);
}

TEST(BatchedParallel, WorstCaseThreadCountInvariant) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  const AdversarialOptions options{.restarts = 8, .steps_per_restart = 200};
  ThreadPool baseline_pool(1);
  const auto expect =
      worst_case_search_parallel(ft, dmodk, options, 23, baseline_pool);
  EXPECT_GT(expect.collisions, 0U);
  for (const std::size_t threads : {2U, 4U}) {
    ThreadPool pool(threads);
    const auto got = worst_case_search_parallel(ft, dmodk, options, 23, pool);
    EXPECT_EQ(got.collisions, expect.collisions);
    EXPECT_EQ(got.evaluations, expect.evaluations);
    EXPECT_EQ(got.permutation, expect.permutation);
  }
}

}  // namespace
}  // namespace nbclos
