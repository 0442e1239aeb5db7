#include "nbclos/analysis/verifier.hpp"

#include <numeric>
#include <utility>

#include "drivers.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/delta.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/single_path.hpp"

namespace nbclos {

PatternRouter as_pattern_router(const SinglePathRouting& routing) {
  return [&routing](const Permutation& pattern) {
    return routing.route_all(pattern);
  };
}

namespace {

/// Full-re-evaluation counterpart of SwapDeltaState: same interface, but
/// collisions() scores the whole pattern through the router.  Evaluation
/// is lazy so that a revert_swap never pays for scoring, matching the
/// cost profile of the pre-delta hill climb while reusing its buffers.
class FullSwapState {
 public:
  FullSwapState(const FoldedClos& ftree, const PatternRouter& router)
      : router_(&router), map_(ftree) {}

  void reset(const std::vector<std::uint32_t>& target) {
    target_ = target;
    dirty_ = true;
  }

  void apply_swap(std::uint32_t i, std::uint32_t j) {
    prev_collisions_ = collisions();
    std::swap(target_[i], target_[j]);
    dirty_ = true;
  }

  void revert_swap(std::uint32_t i, std::uint32_t j) {
    std::swap(target_[i], target_[j]);
    collisions_ = prev_collisions_;
    dirty_ = false;
  }

  [[nodiscard]] std::uint64_t collisions() {
    if (dirty_) {
      permutation_from_targets(target_, pattern_);
      map_.clear();
      map_.add_paths((*router_)(pattern_));
      collisions_ = map_.colliding_pairs();
      dirty_ = false;
    }
    return collisions_;
  }

  [[nodiscard]] Permutation pattern() const {
    return permutation_from_targets(target_);
  }

 private:
  const PatternRouter* router_;
  LinkLoadMap map_;
  std::vector<std::uint32_t> target_;
  Permutation pattern_;
  std::uint64_t collisions_ = 0;
  std::uint64_t prev_collisions_ = 0;
  bool dirty_ = true;
};

/// The hill climb shared by both evaluation strategies: accept a swap
/// when it does not decrease the colliding-pair count, revert otherwise.
template <typename State>
RestartResult run_restart(State& state, std::uint32_t leafs,
                          std::uint32_t steps, std::uint64_t seed,
                          bool stop_on_positive) {
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> target(leafs);
  std::iota(target.begin(), target.end(), 0U);
  shuffle(target.begin(), target.end(), rng);
  state.reset(target);

  RestartResult result;
  result.collisions = state.collisions();
  result.evaluations = 1;
  for (std::uint32_t step = 0;
       step < steps && !(stop_on_positive && result.collisions > 0); ++step) {
    const auto i = static_cast<std::uint32_t>(rng.below(leafs));
    const auto j = static_cast<std::uint32_t>(rng.below(leafs));
    if (i == j) continue;
    state.apply_swap(i, j);
    const auto collisions = state.collisions();
    ++result.evaluations;
    if (collisions >= result.collisions) {
      result.collisions = collisions;
    } else {
      state.revert_swap(i, j);
    }
  }
  result.pattern = state.pattern();
  return result;
}

}  // namespace

VerifyResult verify_exhaustive(const FoldedClos& ftree,
                               const PatternRouter& router) {
  VerifyResult result;
  result.nonblocking = true;
  obs::ScopedSpan span("verify.exhaustive", "verify");
  LinkLoadMap map(ftree);
  result.permutations_checked = for_each_permutation_in_range(
      ftree.leaf_count(), 0, factorial(ftree.leaf_count()),
      [&](const Permutation& pattern) {
        const auto paths = router(pattern);
        map.add_paths(paths);
        const auto collisions = map.colliding_pairs();
        for (const auto& path : paths) map.remove_path(path);  // keep map zero
        if (collisions > 0) {
          result.nonblocking = false;
          result.counterexample = pattern;
          result.counterexample_collisions = collisions;
          return false;
        }
        return true;
      });
  obs::metrics().counter("verify.perms_evaluated")
      .add(result.permutations_checked);
  return result;
}

VerifyResult verify_random(const FoldedClos& ftree,
                           const PatternRouter& router, std::uint64_t trials,
                           Xoshiro256& rng) {
  detail::RouterScorer scorer(ftree, router);
  return detail::sample_verify(scorer, rng, trials);
}

std::uint64_t adversarial_restart_seed(std::uint64_t seed,
                                       std::uint32_t restart) {
  // Mix the master seed before offsetting by the restart index: a plain
  // `seed ^ (c + restart)` would let nearby master seeds share restart
  // seeds.  Distinct restarts always get distinct seeds (SplitMix64's
  // first output is a bijection of its initial state).
  SplitMix64 stream(seed ^ 0x5EEDF00DULL);
  SplitMix64 per_restart(stream.next() + restart);
  return per_restart.next();
}

RestartResult adversarial_restart(const FoldedClos& ftree,
                                  const PatternRouter& router,
                                  std::uint32_t steps, std::uint64_t seed,
                                  bool stop_on_positive) {
  FullSwapState state(ftree, router);
  return run_restart(state, ftree.leaf_count(), steps, seed, stop_on_positive);
}

RestartResult adversarial_restart(const FoldedClos& ftree,
                                  const routing::RouteCache& cache,
                                  std::uint32_t steps, std::uint64_t seed,
                                  bool stop_on_positive) {
  SwapDeltaState state(ftree, cache);
  return run_restart(state, ftree.leaf_count(), steps, seed, stop_on_positive);
}

namespace detail {

namespace {

/// Hill-climb step counts per restart.  The climbs never touch the
/// registry; counts are flushed here, after any join.  Fixed geometry:
/// the registry requires identical bounds per name.
void record_climb_steps(const std::vector<RestartResult>& outcomes) {
  if constexpr (obs::kEnabled) {
    auto& steps = obs::metrics().histogram("verify.climb_steps", 1'000'000);
    for (const auto& outcome : outcomes) {
      if (outcome.evaluations > 0) steps.record(outcome.evaluations);
    }
  }
}

}  // namespace

VerifyResult merge_first_failing(std::vector<RestartResult> outcomes) {
  record_climb_steps(outcomes);
  VerifyResult result;
  result.nonblocking = true;
  for (auto& outcome : outcomes) {
    result.permutations_checked += outcome.evaluations;
    if (outcome.collisions > 0) {
      result.nonblocking = false;
      result.counterexample = std::move(outcome.pattern);
      result.counterexample_collisions = outcome.collisions;
      break;
    }
  }
  return result;
}

WorstCaseResult merge_worst_case(std::vector<RestartResult> outcomes) {
  record_climb_steps(outcomes);
  WorstCaseResult result;
  for (auto& outcome : outcomes) {
    result.evaluations += outcome.evaluations;
    if (outcome.collisions > result.collisions || result.permutation.empty()) {
      result.collisions = outcome.collisions;
      result.permutation = std::move(outcome.pattern);
    }
  }
  return result;
}

}  // namespace detail

VerifyResult verify_adversarial(const FoldedClos& ftree,
                                const PatternRouter& router,
                                const AdversarialOptions& options,
                                std::uint64_t seed) {
  obs::ScopedSpan span("verify.adversarial", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  std::vector<RestartResult> outcomes;
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    outcomes.push_back(adversarial_restart(
        ftree, router, options.steps_per_restart,
        adversarial_restart_seed(seed, restart), /*stop_on_positive=*/true));
    if (outcomes.back().collisions > 0) break;
  }
  return detail::merge_first_failing(std::move(outcomes));
}

WorstCaseResult worst_case_search(const FoldedClos& ftree,
                                  const PatternRouter& router,
                                  const AdversarialOptions& options,
                                  std::uint64_t seed) {
  obs::ScopedSpan span("verify.worst_case", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  std::vector<RestartResult> outcomes;
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    outcomes.push_back(adversarial_restart(
        ftree, router, options.steps_per_restart,
        adversarial_restart_seed(seed, restart), /*stop_on_positive=*/false));
  }
  return detail::merge_worst_case(std::move(outcomes));
}

}  // namespace nbclos
