#include "nbclos/util/sweep_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nbclos/util/prng.hpp"

namespace nbclos {
namespace {

/// Random sorted prefix plus a random unique tail, swept again and again
/// with random drops: every sweep must visit exactly what std::sort of
/// the list's contents gives, and keep the survivors for the next one.
/// Pushing a listed id is a no-op; a dropped id can be pushed again.
TEST(SweepList, VisitOrderEqualsSortEverySweep) {
  constexpr std::uint32_t kUniverse = 400;
  Xoshiro256 rng(20261020);
  SweepList list;
  list.reset(kUniverse);
  std::vector<std::uint8_t> member(kUniverse, 0);
  std::vector<std::uint32_t> contents;  // reference multiset, any order
  for (int round = 0; round < 300; ++round) {
    // Some rounds push nothing, so the in-place path runs too; others
    // push a burst big enough to outnumber the prefix.
    const std::uint64_t pushes =
        round % 5 == 0 ? 0 : rng.below(round % 7 == 0 ? kUniverse : 24U);
    for (std::uint64_t p = 0; p < pushes; ++p) {
      const auto id = static_cast<std::uint32_t>(rng.below(kUniverse));
      list.push(id);
      if (member[id]) continue;
      member[id] = 1;
      contents.push_back(id);
    }
    std::vector<std::uint32_t> expect = contents;
    std::sort(expect.begin(), expect.end());
    const std::uint64_t drop_per_mille = round % 11 == 0 ? 1000U : 300U;
    std::vector<std::uint32_t> visited;
    std::vector<std::uint32_t> kept;
    list.sweep([&](std::uint32_t id) {
      visited.push_back(id);
      if (rng.below(1000) < drop_per_mille) {
        member[id] = 0;
        return false;
      }
      kept.push_back(id);
      return true;
    });
    ASSERT_EQ(visited, expect) << "round " << round;
    ASSERT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()), kept)
        << "round " << round;
    contents = kept;
  }
}

using Tagged = std::pair<int, int>;  // (key, run index)

std::vector<Tagged> merged(std::vector<std::vector<Tagged>> runs) {
  std::vector<std::span<const Tagged>> spans(runs.begin(), runs.end());
  std::vector<Tagged> out = {{-1, -1}};  // merge_runs replaces old output
  merge_runs(std::span(spans), out,
             [](const Tagged& a, const Tagged& b) { return a.first < b.first; });
  return out;
}

std::vector<Tagged> stable_sorted(const std::vector<std::vector<Tagged>>& runs) {
  std::vector<Tagged> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return a.first < b.first;
  });
  return all;
}

TEST(MergeRuns, NoRunsAndEmptyRunsGiveNothing) {
  EXPECT_TRUE(merged({}).empty());
  EXPECT_TRUE(merged({{}, {}, {}}).empty());
}

TEST(MergeRuns, SingleRunIsCopied) {
  const std::vector<Tagged> run = {{1, 0}, {4, 0}, {9, 0}};
  EXPECT_EQ(merged({run}), run);
  EXPECT_EQ(merged({{}, run, {}}), run);
}

TEST(MergeRuns, UnevenRunsMatchStableSort) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    // Run lengths 0, 1, a few and many; keys from a small range so equal
    // keys meet across runs and must keep run order.
    std::vector<std::vector<Tagged>> runs;
    for (const std::uint64_t length : {0U, 1U, 7U, 50U, 3U, 0U, 120U}) {
      std::vector<Tagged> run;
      const int index = static_cast<int>(runs.size());
      for (std::uint64_t i = 0; i < length; ++i) {
        run.emplace_back(static_cast<int>(rng.below(60)), index);
      }
      std::sort(run.begin(), run.end());
      runs.push_back(std::move(run));
    }
    std::shuffle(runs.begin(), runs.end(), rng);
    for (std::size_t r = 0; r < runs.size(); ++r) {
      for (auto& item : runs[r]) item.second = static_cast<int>(r);
    }
    ASSERT_EQ(merged(runs), stable_sorted(runs)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace nbclos
