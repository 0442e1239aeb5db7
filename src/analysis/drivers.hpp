/// \file drivers.hpp
/// \brief What the serial and parallel verification drivers share
///        (private to the analysis library): the random-sampling loop
///        with its per-trial scorer, the blocking-estimate sums, and the
///        two restart merges of the adversarial searches.
///
/// A scorer draws the next batch of random full permutations from the
/// caller's rng — exactly like one random_permutation call per trial —
/// and scores each.  RouterScorer (below) routes one pattern per draw;
/// BatchScorer (parallel.cpp) scores up to BatchLoadKernel::kMaxBatch
/// per draw over a RouteCache.  Their per-trial statistics are equal, so
/// the loops give bit-identical results with either.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nbclos/analysis/blocking.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/verifier.hpp"

namespace nbclos::detail {

/// Per-trial sums behind a BlockingEstimate.  Partials merge with +=
/// in a fixed order, so a chunked estimate is thread-count independent.
struct BlockingSums {
  std::uint64_t blocked = 0;
  double sum_collisions = 0.0;
  double sum_max_load = 0.0;

  void add_trial(std::uint64_t collisions, std::uint32_t max_load) {
    if (collisions > 0) ++blocked;
    sum_collisions += static_cast<double>(collisions);
    sum_max_load += static_cast<double>(max_load);
  }
  BlockingSums& operator+=(const BlockingSums& other) {
    blocked += other.blocked;
    sum_collisions += other.sum_collisions;
    sum_max_load += other.sum_max_load;
    return *this;
  }
  /// Probability, means and the 95% CI over `trials` sampled trials.
  [[nodiscard]] BlockingEstimate estimate(std::uint64_t trials) const;
};

/// One pattern per draw, routed through a PatternRouter (owned: parallel
/// chunks build a private router per worker).
class RouterScorer {
 public:
  RouterScorer(const FoldedClos& ftree, PatternRouter router)
      : leafs_(ftree.leaf_count()), router_(std::move(router)), map_(ftree) {}

  std::uint32_t draw(Xoshiro256& rng, std::uint64_t /*remaining*/) {
    pattern_ = random_permutation(leafs_, rng);
    map_.clear();
    map_.add_paths(router_(pattern_));
    return 1;
  }
  [[nodiscard]] std::uint64_t collisions(std::uint32_t /*lane*/) const {
    return map_.colliding_pairs();
  }
  [[nodiscard]] std::uint32_t max_load(std::uint32_t /*lane*/) const {
    return map_.max_load();
  }
  [[nodiscard]] Permutation pattern(std::uint32_t /*lane*/) const {
    return pattern_;
  }

 private:
  std::uint32_t leafs_;
  PatternRouter router_;
  LinkLoadMap map_;
  Permutation pattern_;
};

/// Draw `trials` random permutations through `scorer`, calling
/// `visit(lane)` for each in trial order until it returns false.
template <typename Scorer, typename Visit>
void for_each_trial(Scorer& scorer, Xoshiro256& rng, std::uint64_t trials,
                    Visit&& visit) {
  for (std::uint64_t done = 0; done < trials;) {
    const auto lanes = scorer.draw(rng, trials - done);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      if (!visit(lane)) return;
    }
    done += lanes;
  }
}

template <typename Scorer>
BlockingSums sample_blocking(Scorer& scorer, Xoshiro256& rng,
                             std::uint64_t trials) {
  BlockingSums sums;
  for_each_trial(scorer, rng, trials, [&](std::uint32_t lane) {
    sums.add_trial(scorer.collisions(lane), scorer.max_load(lane));
    return true;
  });
  return sums;
}

/// Stops at the first blocked permutation: it is the counterexample, and
/// permutations_checked counts the trials up to and including it.
template <typename Scorer>
VerifyResult sample_verify(Scorer& scorer, Xoshiro256& rng,
                           std::uint64_t trials) {
  VerifyResult result;
  result.nonblocking = true;
  for_each_trial(scorer, rng, trials, [&](std::uint32_t lane) {
    ++result.permutations_checked;
    const auto collisions = scorer.collisions(lane);
    if (collisions == 0) return true;
    result.nonblocking = false;
    result.counterexample = scorer.pattern(lane);
    result.counterexample_collisions = collisions;
    return false;
  });
  return result;
}

/// verify_adversarial's merge, in restart-index order: the lowest
/// failing restart wins, and permutations_checked sums the evaluations of
/// every restart up to and including it.  Restarts past it — run or not —
/// cannot change the result.
[[nodiscard]] VerifyResult merge_first_failing(
    std::vector<RestartResult> outcomes);

/// worst_case_search's merge: the max-collision restart, lowest index on
/// ties; evaluations summed over every restart.
[[nodiscard]] WorstCaseResult merge_worst_case(
    std::vector<RestartResult> outcomes);

}  // namespace nbclos::detail
