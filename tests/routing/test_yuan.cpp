#include "nbclos/routing/yuan_nonblocking.hpp"

#include <gtest/gtest.h>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/analysis/verifier.hpp"

namespace nbclos {
namespace {

FoldedClos theorem3_ftree(std::uint32_t n, std::uint32_t r) {
  return FoldedClos(FtreeParams{n, n * n, r});
}

TEST(YuanRouting, RequiresEnoughTopSwitches) {
  const FoldedClos small(FtreeParams{3, 8, 7});  // m = 8 < n^2 = 9
  EXPECT_THROW(YuanNonblockingRouting{small}, precondition_error);
  const FoldedClos ok(FtreeParams{3, 9, 7});
  EXPECT_NO_THROW(YuanNonblockingRouting{ok});
}

TEST(YuanRouting, UsesTopSwitchIJ) {
  // SD pair ((v,i),(w,j)) routes through top switch i*n + j (Theorem 3).
  const auto ft = theorem3_ftree(3, 5);
  const YuanNonblockingRouting routing(ft);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      const SDPair sd{ft.leaf(BottomId{0}, i), ft.leaf(BottomId{4}, j)};
      const auto path = routing.route(sd);
      EXPECT_FALSE(path.direct);
      EXPECT_EQ(path.top.value, i * 3 + j);
    }
  }
}

TEST(YuanRouting, SameSwitchPairsAreDirect) {
  const auto ft = theorem3_ftree(2, 4);
  const YuanNonblockingRouting routing(ft);
  const SDPair sd{ft.leaf(BottomId{1}, 0), ft.leaf(BottomId{1}, 1)};
  EXPECT_TRUE(routing.route(sd).direct);
}

TEST(YuanRouting, Lemma1AuditPasses) {
  // The Theorem 3 proof: every uplink carries one source, every downlink
  // one destination.  The audit checks the iff-condition over all
  // r(r-1)n^2 SD pairs — a machine proof of nonblocking-ness.
  for (std::uint32_t n = 1; n <= 4; ++n) {
    for (std::uint32_t r : {2U, 3U, 2 * n + 1, 2 * n + 2}) {
      const FoldedClos ft(FtreeParams{n, n * n, r});
      const YuanNonblockingRouting routing(ft);
      EXPECT_TRUE(is_nonblocking_single_path(routing))
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(YuanRouting, UplinkCarriesExactlyOneSource) {
  // Directly check the structure asserted in the Theorem 3 proof text.
  const auto ft = theorem3_ftree(3, 7);
  const YuanNonblockingRouting routing(ft);
  // For uplink (v, (i,j)): every SD pair crossing it must have source
  // (v, i).
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const SDPair sd{LeafId{s}, LeafId{d}};
      if (s == d || !ft.needs_top(sd)) continue;
      const auto path = routing.route(sd);
      // Source local index must equal the top switch's first coordinate.
      EXPECT_EQ(ft.local_of(sd.src), path.top.value / ft.n());
      EXPECT_EQ(ft.local_of(sd.dst), path.top.value % ft.n());
    }
  }
}

TEST(YuanRouting, ExhaustivelyNonblockingOnTinyInstance) {
  // Every one of the 6! = 720 full permutations of ftree(2+4, 3).
  const auto ft = theorem3_ftree(2, 3);
  const YuanNonblockingRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 720U);
}

TEST(YuanRouting, RandomPermutationsNeverContend) {
  const auto ft = theorem3_ftree(4, 12);
  const YuanNonblockingRouting routing(ft);
  Xoshiro256 rng(2025);
  const auto result =
      verify_random(ft, as_pattern_router(routing), 200, rng);
  EXPECT_TRUE(result.nonblocking);
}

TEST(YuanRouting, AdversarialSearchFindsNothing) {
  const auto ft = theorem3_ftree(3, 8);
  const YuanNonblockingRouting routing(ft);
  const auto result = verify_adversarial(
      ft, as_pattern_router(routing), AdversarialOptions{4, 300}, 77);
  EXPECT_TRUE(result.nonblocking);
}

TEST(YuanRouting, ClassicPatternsAreContentionFree) {
  const auto ft = theorem3_ftree(4, 16);  // 64 leaves, power of two
  const YuanNonblockingRouting routing(ft);
  const auto check = [&](const Permutation& p) {
    validate_permutation(p, ft.leaf_count());
    EXPECT_FALSE(has_contention(ft, routing.route_all(p)));
  };
  check(shift_permutation(ft.leaf_count(), 1));
  check(shift_permutation(ft.leaf_count(), 17));
  check(reverse_permutation(ft.leaf_count()));
  check(bit_reversal_permutation(ft.leaf_count()));
  check(butterfly_permutation(ft.leaf_count(), 3));
  check(tornado_permutation(ft.n(), ft.r()));
  check(neighbor_funnel_permutation(ft.n(), ft.r()));
}

TEST(YuanRouting, ExtraTopSwitchesStayUnused) {
  // With m > n^2, the scheme touches only the first n^2 top switches.
  const FoldedClos ft(FtreeParams{2, 7, 5});
  const YuanNonblockingRouting routing(ft);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const SDPair sd{LeafId{s}, LeafId{d}};
      if (s == d || !ft.needs_top(sd)) continue;
      EXPECT_LT(routing.route(sd).top.value, 4U);
    }
  }
}

class YuanParamTest : public ::testing::TestWithParam<
                          std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(YuanParamTest, NonblockingAcrossShapes) {
  const auto [n, r] = GetParam();
  const FoldedClos ft(FtreeParams{n, n * n, r});
  const YuanNonblockingRouting routing(ft);
  EXPECT_TRUE(is_nonblocking_single_path(routing));
  Xoshiro256 rng(n * 1000 + r);
  EXPECT_TRUE(
      verify_random(ft, as_pattern_router(routing), 50, rng).nonblocking);
}

INSTANTIATE_TEST_SUITE_P(Shapes, YuanParamTest,
                         ::testing::Combine(::testing::Values(2U, 3U, 4U, 5U),
                                            ::testing::Values(3U, 6U, 11U,
                                                              20U)));

}  // namespace
}  // namespace nbclos
