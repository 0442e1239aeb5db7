#include "nbclos/routing/baselines.hpp"

#include <gtest/gtest.h>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/analysis/verifier.hpp"

namespace nbclos {
namespace {

TEST(Baselines, DModKUsesDestinationModM) {
  const FoldedClos ft(FtreeParams{2, 3, 4});
  const DModKRouting routing(ft);
  for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
    const SDPair sd{LeafId{d >= 2 ? 0U : 7U}, LeafId{d}};
    if (!ft.needs_top(sd)) continue;
    EXPECT_EQ(routing.route(sd).top.value, d % 3);
  }
}

TEST(Baselines, DModKConvergesAllTrafficToOneDest) {
  // The defining property of D-mod-K: all sources reach a destination
  // through the same top switch (deadlock-free, deterministic, but
  // blocking).
  const FoldedClos ft(FtreeParams{3, 5, 6});
  const DModKRouting routing(ft);
  const LeafId dst{13};
  std::uint32_t expected_top = UINT32_MAX;
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    const SDPair sd{LeafId{s}, dst};
    if (s == dst.value || !ft.needs_top(sd)) continue;
    const auto top = routing.route(sd).top.value;
    if (expected_top == UINT32_MAX) expected_top = top;
    EXPECT_EQ(top, expected_top);
  }
}

TEST(Baselines, DModKIsBlockingWhenMTooSmall) {
  // ftree(2+2, 5): m = 2 < n^2 = 4, so by Theorem 2 no single-path
  // deterministic routing is nonblocking; the audit must find violations.
  const FoldedClos ft(FtreeParams{2, 2, 5});
  const DModKRouting routing(ft);
  EXPECT_FALSE(is_nonblocking_single_path(routing));
}

TEST(Baselines, DModKBlocksEvenWithManyTopSwitches) {
  // Even with m = n^2 top switches D-mod-K stays blocking: it keys only
  // on the destination, so two sources in one switch with destinations
  // congruent mod m share an uplink.  (It ignores the source — exactly
  // what Theorem 3's (i, j) scheme fixes.)
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const DModKRouting routing(ft);
  EXPECT_FALSE(is_nonblocking_single_path(routing));
  // And the verifier exhibits a concrete blocked permutation.
  const auto result = verify_adversarial(
      ft, as_pattern_router(routing), AdversarialOptions{8, 500}, 5);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  // The counterexample really is a permutation and really collides.
  validate_permutation(*result.counterexample, ft.leaf_count());
  EXPECT_TRUE(
      has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Baselines, SModKKeysOnSource) {
  const FoldedClos ft(FtreeParams{2, 3, 4});
  const SModKRouting routing(ft);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    const SDPair sd{LeafId{s}, LeafId{s >= 2 ? 0U : 7U}};
    if (!ft.needs_top(sd)) continue;
    EXPECT_EQ(routing.route(sd).top.value, s % 3);
  }
}

TEST(Baselines, DSwitchModKAggregatesBySwitch) {
  const FoldedClos ft(FtreeParams{2, 3, 5});
  const DModKSwitchRouting routing(ft);
  // Destinations in the same bottom switch share a top switch.
  const SDPair a{LeafId{0}, LeafId{6}};
  const SDPair b{LeafId{1}, LeafId{7}};
  EXPECT_EQ(routing.route(a).top.value, routing.route(b).top.value);
  EXPECT_EQ(routing.route(a).top.value, 3U % 3U);
}

TEST(Baselines, RandomFixedIsDeterministicGivenSeed) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const RandomFixedRouting a(ft, 42);
  const RandomFixedRouting b(ft, 42);
  const RandomFixedRouting c(ft, 43);
  std::uint32_t diffs = 0;
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const SDPair sd{LeafId{s}, LeafId{d}};
      if (s == d || !ft.needs_top(sd)) continue;
      EXPECT_EQ(a.route(sd).top, b.route(sd).top);
      if (a.route(sd).top != c.route(sd).top) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0U);  // different seed gives a different table
}

TEST(Baselines, RandomFixedTopsWithinRange) {
  const FoldedClos ft(FtreeParams{2, 5, 4});
  const RandomFixedRouting routing(ft, 9);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const SDPair sd{LeafId{s}, LeafId{d}};
      if (s == d || !ft.needs_top(sd)) continue;
      EXPECT_LT(routing.route(sd).top.value, ft.m());
    }
  }
}

TEST(Baselines, NamesAreStable) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  EXPECT_EQ(DModKRouting(ft).name(), "d-mod-k");
  EXPECT_EQ(DModKSwitchRouting(ft).name(), "dswitch-mod-k");
  EXPECT_EQ(SModKRouting(ft).name(), "s-mod-k");
  EXPECT_EQ(RandomFixedRouting(ft, 1).name(), "random-fixed");
}

TEST(Baselines, AllRejectSelfLoops) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  EXPECT_THROW((void)routing.route(SDPair{LeafId{3}, LeafId{3}}),
               precondition_error);
}

}  // namespace
}  // namespace nbclos
