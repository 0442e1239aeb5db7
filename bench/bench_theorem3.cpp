/// \file bench_theorem3.cpp
/// \brief Theorem 3: the explicit (i, j) routing makes ftree(n+n^2, r)
///        nonblocking.  This bench attacks the claim as hard as a tester
///        can: exhaustive enumeration on tiny instances, heavy random
///        sampling, adversarial hill-climbing, and the Lemma 1 audit at
///        Table I scale — then reports verification throughput.
#include <iostream>
#include <string>

#include "harness.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/table.hpp"

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::string(argv[1]) == "--csv";

  std::cout << "Theorem 3 — ftree(n+n^2, r) with (i,j) routing supports "
               "every permutation with zero contention\n\n";
  nbclos::TextTable table({"n", "r", "ports", "mode", "permutations",
                           "contention found", "time [s]"});
  bool all_clean = true;

  // Exhaustive proof on tiny instances.
  for (const auto& [n, r] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{{2, 3}, {2, 4}}) {
    const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, r});
    const nbclos::YuanNonblockingRouting routing(ft);
    const nbclos::bench::Timer timer;
    const auto result =
        nbclos::verify_exhaustive(ft, nbclos::as_pattern_router(routing));
    all_clean = all_clean && result.nonblocking;
    table.add(n, r, ft.leaf_count(), std::string("exhaustive"),
              result.permutations_checked,
              std::string(result.nonblocking ? "none" : "YES"),
              timer.seconds());
  }

  // Random + adversarial at growing scale.
  for (const auto& [n, r] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {3, 12}, {4, 20}, {5, 30}, {6, 42}}) {
    const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, r});
    const nbclos::YuanNonblockingRouting routing(ft);
    {
      nbclos::Xoshiro256 rng(2026);
      const nbclos::bench::Timer timer;
      const auto result = nbclos::verify_random(
          ft, nbclos::as_pattern_router(routing), 2000, rng);
      all_clean = all_clean && result.nonblocking;
      table.add(n, r, ft.leaf_count(), std::string("random"),
                result.permutations_checked,
                std::string(result.nonblocking ? "none" : "YES"),
                timer.seconds());
    }
    {
      const nbclos::bench::Timer timer;
      const auto result = nbclos::verify_adversarial(
          ft, nbclos::as_pattern_router(routing),
          nbclos::AdversarialOptions{4, 500}, 9);
      all_clean = all_clean && result.nonblocking;
      table.add(n, r, ft.leaf_count(), std::string("adversarial"),
                result.permutations_checked,
                std::string(result.nonblocking ? "none" : "YES"),
                timer.seconds());
    }
  }

  // Lemma 1 audit — instance proofs at Table I scale.
  for (const std::uint32_t n : {4U, 5U, 6U}) {
    const std::uint32_t r = n + n * n;
    const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, r});
    const nbclos::YuanNonblockingRouting routing(ft);
    const nbclos::bench::Timer timer;
    const bool ok = nbclos::is_nonblocking_single_path(routing);
    all_clean = all_clean && ok;
    table.add(n, r, ft.leaf_count(), std::string("lemma-1 audit"),
              ft.cross_pair_count(), std::string(ok ? "none" : "YES"),
              timer.seconds());
  }

  table.print(std::cout);
  if (csv) table.print_csv(std::cout);
  std::cout << "\nVerdict: " << (all_clean ? "zero contention everywhere — "
                                             "matches Theorem 3."
                                           : "CONTENTION FOUND — bug!")
            << "\n";
  return all_clean ? 0 : 1;
}
