/// \file bench_fault.cpp
/// \brief Degraded-operation experiment: accepted throughput of the
///        Theorem 3 fabric as uplink failures accumulate.
///
/// ftree(4+16, 8) under a shift permutation at high offered load, routed
/// by the fault-tolerant table oracle (Theorem 3 primary assignment,
/// least-loaded live fallback).  Each failure level fails a seed-fixed,
/// nested set of bottom<->top link pairs; the pristine run is the
/// baseline.  Levels run concurrently over a ThreadPool via
/// analysis::run_fault_throughput_sweep — each level is independently
/// seeded, so output is byte-identical at any thread count.  Emits one
/// nbclos-bench-v1 document on stdout so downstream tooling can diff
/// degraded-vs-pristine throughput across levels.
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/sweep.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

int main(int argc, char** argv) {
  nbclos::bench::parse_args(argc, argv);  // no flags used; rejects junk
  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kR = 8;
  constexpr double kLoad = 0.9;
  constexpr std::uint64_t kFaultSeed = 97;

  const nbclos::FoldedClos ftree(nbclos::FtreeParams{kN, kN * kN, kR});
  const auto net = nbclos::build_network(ftree);
  const auto pattern =
      nbclos::shift_permutation(ftree.leaf_count(), kN + 1);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ftree.leaf_count());
  const nbclos::YuanNonblockingRouting yuan(ftree);
  const auto table = nbclos::RoutingTable::materialize(yuan);

  nbclos::sim::SimConfig config;
  config.injection_rate = kLoad;
  config.warmup_cycles = 1500;
  config.measure_cycles = 6000;
  config.seed = 11;

  // 0..64 of the 128 bottom<->top pairs; the heavy levels push past what
  // least-loaded fallback can absorb so the degradation becomes visible.
  const std::vector<std::uint32_t> levels{0, 4, 8, 16, 32, 64};
  nbclos::bench::Report report("fault_degradation");
  nbclos::ThreadPool pool;
  report.manifest().seed = kFaultSeed;
  report.manifest().threads = static_cast<std::uint32_t>(pool.thread_count());
  const auto results = nbclos::analysis::run_fault_throughput_sweep(
      ftree, net, table, traffic, config, levels, kFaultSeed, &pool);

  report.param("topology", "ftree(" + std::to_string(kN) + "+" +
                               std::to_string(kN * kN) + ", " +
                               std::to_string(kR) + ")");
  report.param("routing", "ftree-fault-table (Theorem 3 primary)");
  report.param("traffic", "shift permutation");
  report.param("offered_load", kLoad);
  report.param("fault_seed", kFaultSeed);
  const double pristine = results.front().sim.accepted_throughput;
  report.metric("pristine_accepted_throughput", pristine,
                "flits/cycle/terminal");
  for (const auto& level : results) {
    const std::string p = "failed" + std::to_string(level.failures) + ".";
    report.metric(p + "accepted_throughput", level.sim.accepted_throughput,
                  "flits/cycle/terminal");
    report.metric(p + "throughput_vs_pristine",
                  pristine > 0.0 ? level.sim.accepted_throughput / pristine
                                 : 0.0,
                  "ratio");
    report.metric(p + "mean_latency", level.sim.mean_latency, "cycles");
    report.metric(p + "dropped_packets", level.sim.dropped_packets,
                  "packets");
    report.metric(p + "reroutes", level.reroutes, "reroutes");
  }
  return report.write(std::cout);
}
