/// \file bench_multilevel.cpp
/// \brief §IV discussion: the recursive multi-level nonblocking
///        construction, built as a real graph and certified.
///
/// For each (n, levels) we build the fabric, cross-check the realized
/// switch/port counts against the closed-form recurrences, run the
/// generalized Lemma 1 audit (a proof of nonblocking-ness for the
/// instance — the paper's induction claim, machine-checked), and sample
/// random permutations.  A final packet-simulation row shows the 3-level
/// fabric sustaining a full permutation at load 1.0.
#include <iostream>
#include <string>

#include "harness.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/util/table.hpp"

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::string(argv[1]) == "--csv";

  std::cout << "Recursive multi-level nonblocking fabrics (§IV): build, "
               "count, certify\n\n";
  nbclos::TextTable table({"n", "levels", "ports", "switches",
                           "formula switches", "lemma-1 certified",
                           "random perms clean", "audit time [s]"});
  bool all_ok = true;
  for (const auto& [n, levels] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {2, 2}, {3, 2}, {4, 2}, {2, 3}, {3, 3}, {2, 4}}) {
    const nbclos::MultiLevelFabric fabric(n, levels);
    const auto design = fabric.design();
    const nbclos::bench::Timer timer;
    const bool certified = fabric.certify();
    const double secs = timer.seconds();
    const bool random_ok = fabric.verify_random(20, 1234);
    all_ok = all_ok && certified && random_ok &&
             fabric.switch_count() == design.switches;
    table.add(n, levels, fabric.port_count(), fabric.switch_count(),
              design.switches, std::string(certified ? "yes" : "NO"),
              std::string(random_ok ? "yes" : "NO"),
              nbclos::format_double(secs, 3));
  }
  table.print(std::cout);
  if (csv) table.print_csv(std::cout);

  // Dynamic check: full-load permutation through the 3-level fabric.
  {
    const nbclos::MultiLevelFabric fabric(2, 3);
    const auto& net = fabric.network();
    const nbclos::routing::ChannelRouteCache cache(
        net, [&fabric](nbclos::SDPair sd) { return fabric.route(sd); });
    const nbclos::sim::CachedShardRouter router(cache);
    nbclos::sim::ShardRouterOracle oracle(router);
    const auto pattern =
        nbclos::shift_permutation(fabric.port_count(), 7);
    const auto traffic = nbclos::sim::TrafficPattern::permutation(
        pattern, fabric.port_count());
    nbclos::sim::SimConfig config;
    config.injection_rate = 1.0;
    config.warmup_cycles = 1000;
    config.measure_cycles = 5000;
    nbclos::sim::PacketSim sim(net, oracle, traffic, config);
    const auto result = sim.run();
    std::cout << "\nPacket simulation, 3-level fabric (n=2, 24 ports), "
                 "full permutation at load 1.0:\n  accepted throughput = "
              << nbclos::format_double(result.accepted_throughput)
              << " flits/cycle/terminal, mean latency = "
              << nbclos::format_double(result.mean_latency, 1)
              << " cycles\n";
    all_ok = all_ok && result.accepted_throughput > 0.97;
  }

  std::cout << "\nVerdict: "
            << (all_ok ? "the recursive construction is nonblocking at "
                         "every depth tested, and its\ncosts match the "
                         "closed-form recurrences — as the paper's "
                         "induction argument claims."
                       : "MISMATCH — bug!")
            << "\n";
  return all_ok ? 0 : 1;
}
