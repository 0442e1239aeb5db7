#include "nbclos/analysis/blocking.hpp"

#include <cmath>

#include "drivers.hpp"

namespace nbclos {

BlockingEstimate detail::BlockingSums::estimate(std::uint64_t trials) const {
  BlockingEstimate est;
  est.trials = trials;
  est.blocked = blocked;
  const auto n = static_cast<double>(trials);
  est.blocking_probability = static_cast<double>(blocked) / n;
  est.mean_colliding_pairs = sum_collisions / n;
  est.mean_max_link_load = sum_max_load / n;
  const double p = est.blocking_probability;
  est.ci95_half_width = 1.96 * std::sqrt(p * (1.0 - p) / n);
  return est;
}

BlockingEstimate estimate_blocking(const FoldedClos& ftree,
                                   const PatternRouter& router,
                                   std::uint64_t trials, Xoshiro256& rng) {
  NBCLOS_REQUIRE(trials > 0, "need at least one trial");
  detail::RouterScorer scorer(ftree, router);
  return detail::sample_blocking(scorer, rng, trials).estimate(trials);
}

}  // namespace nbclos
