/// \file verifier.hpp
/// \brief Empirical nonblocking verification (Definition 2).
///
/// A network + routing is nonblocking when *no* permutation causes link
/// contention.  The verifier attacks that universally-quantified claim
/// three ways:
///   * exhaustive enumeration of all full permutations (tiny networks —
///     this is a proof for the instance);
///   * uniform random sampling (statistical evidence at scale);
///   * adversarial hill-climbing that mutates a permutation by swapping
///     destinations to maximize colliding pairs (finds counterexamples
///     random sampling misses, e.g. for D-mod-K style routings).
///
/// The router under test is abstracted as a function from a permutation
/// to its paths, so deterministic, adaptive, and centralized schemes all
/// fit one interface.  The drivers here are the full re-evaluation
/// reference: every hill-climb step re-scores the whole pattern.  The
/// fast path for single-path deterministic routings lives in
/// analysis/parallel.hpp — the same climb replaying a RouteCache through
/// a delta-evaluated SwapDeltaState (analysis/delta.hpp), touching only
/// the <= 4 SD pairs a swap changes.  Both derive restart seeds with
/// adversarial_restart_seed and merge restarts by the same rules, so a
/// _parallel driver on a routing returns exactly what the serial driver
/// returns on as_pattern_router(routing) with the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/topology/fat_tree.hpp"

namespace nbclos::routing {
class RouteCache;
}

namespace nbclos {

class SinglePathRouting;

/// Route a whole pattern at once (adaptive routers need the pattern).
using PatternRouter =
    std::function<std::vector<FtreePath>(const Permutation&)>;

/// Wrap a SinglePathRouting as a PatternRouter.
[[nodiscard]] PatternRouter as_pattern_router(const SinglePathRouting& routing);

struct VerifyResult {
  bool nonblocking = false;  ///< no counterexample found within the budget
  std::uint64_t permutations_checked = 0;
  std::optional<Permutation> counterexample;  ///< a blocked permutation
  std::uint64_t counterexample_collisions = 0;
};

/// Exhaustively check every full permutation in lexicographic rank order,
/// stopping at the first (lowest-rank) counterexample.  \pre leaf_count
/// <= 10.  A `nonblocking == true` result is a proof for this instance;
/// `permutations_checked` is the rank of the counterexample + 1 when one
/// is found, else leaf_count!.  The parallel driver
/// (verify_exhaustive_parallel) returns bit-identical results.
[[nodiscard]] VerifyResult verify_exhaustive(const FoldedClos& ftree,
                                             const PatternRouter& router);

/// Check `trials` uniformly random full permutations.
[[nodiscard]] VerifyResult verify_random(const FoldedClos& ftree,
                                         const PatternRouter& router,
                                         std::uint64_t trials,
                                         Xoshiro256& rng);

/// Adversarial search: hill-climb from random starts, swapping pairs of
/// destinations; keeps a mutation when it does not decrease the number
/// of colliding path pairs.  Restarts are independent — restart k climbs
/// from adversarial_restart_seed(seed, k) — so they can be run in any
/// order or in parallel without changing the merged result.
struct AdversarialOptions {
  std::uint32_t restarts = 8;
  std::uint32_t steps_per_restart = 2000;
};

/// Outcome of one hill-climb restart — the building block both the
/// serial and parallel adversarial drivers shard over.
struct RestartResult {
  std::uint64_t collisions = 0;   ///< best colliding-pair count reached
  Permutation pattern;            ///< the pattern achieving it
  std::uint64_t evaluations = 0;  ///< permutations scored (incl. the start)
};

/// The seed restart `restart` of a search seeded with `seed` climbs
/// from — the one rule every adversarial driver uses; exposed so tools
/// can reproduce an individual restart.
[[nodiscard]] std::uint64_t adversarial_restart_seed(std::uint64_t seed,
                                                     std::uint32_t restart);

/// One restart with full re-evaluation per step (any PatternRouter).
/// `stop_on_positive` ends the climb as soon as collisions > 0 (the
/// verify use); otherwise the full step budget maximizes collisions.
[[nodiscard]] RestartResult adversarial_restart(const FoldedClos& ftree,
                                                const PatternRouter& router,
                                                std::uint32_t steps,
                                                std::uint64_t seed,
                                                bool stop_on_positive);

/// One delta-evaluated restart replaying a precomputed RouteCache
/// (routing/route_cache.hpp).  Bit-identical to the PatternRouter
/// overload on as_pattern_router of the routing the cache was
/// materialized from; the cache is immutable, so many restarts (and
/// threads) share one.
[[nodiscard]] RestartResult adversarial_restart(
    const FoldedClos& ftree, const routing::RouteCache& cache,
    std::uint32_t steps, std::uint64_t seed, bool stop_on_positive);

/// Restarts 0, 1, ... in order until one finds a collision.  The lowest
/// failing restart wins: its pattern is the counterexample, and
/// permutations_checked sums the evaluations of every restart up to and
/// including it.
[[nodiscard]] VerifyResult verify_adversarial(const FoldedClos& ftree,
                                              const PatternRouter& router,
                                              const AdversarialOptions& options,
                                              std::uint64_t seed);

/// Worst permutation found by a full hill-climb that MAXIMIZES colliding
/// path pairs (unlike verify_adversarial it never stops early), measuring
/// how badly a blocking routing can be made to perform.
struct WorstCaseResult {
  Permutation permutation;        ///< the worst pattern found
  std::uint64_t collisions = 0;   ///< its colliding path pairs
  std::uint64_t evaluations = 0;  ///< permutations scored
};

/// Every restart runs its full budget; the result takes the
/// max-collision restart (lowest index on ties) and sums evaluations.
[[nodiscard]] WorstCaseResult worst_case_search(
    const FoldedClos& ftree, const PatternRouter& router,
    const AdversarialOptions& options, std::uint64_t seed);

}  // namespace nbclos
