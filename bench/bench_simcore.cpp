/// \file bench_simcore.cpp
/// \brief Simulator hot-path throughput: wall-clock cycles/sec and
///        packets/sec of the cycle kernel on ftree(4+16, 8).
///
/// Measures the engine itself, not the fabric: one PacketSim per load
/// level, Theorem 3 table routing under a shift permutation.  The low
/// load (0.1) exercises the active-channel lists where per-cycle cost is
/// proportional to resident packets; the high load (0.9) approaches the
/// dense regime where most channels stay busy.  Emits one nbclos-bench-v1
/// document on stdout (names in EXPERIMENTS.md); pass --cycles <N> to
/// shrink the measured window (CI smoke runs).
///
/// The obs_overhead section reruns the middle load with metric recording
/// enabled vs paused (obs::set_enabled) and reports the relative cost of
/// live instrumentation — the acceptance target is < 2%.  Every run must
/// produce the same SimResult (instrumentation never feeds back into the
/// engine); a mismatch is a false results_identical verdict and fails
/// the bench.  The compiled-off cost
/// is measured separately by building with -DNBCLOS_OBS=OFF.
///
/// The recorder_overhead section does the same comparison with the
/// flight recorder armed (record_timeseries) — sampling live vs paused
/// via the runtime switch — with an acceptance target of < 5%.
///
/// Simulation results are seeded and bit-reproducible; the timings, of
/// course, are not.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "harness.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"

int main(int argc, char** argv) {
  const auto args = nbclos::bench::parse_args(argc, argv);
  const std::uint64_t measure_cycles = args.cycles.value_or(498000);

  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kR = 8;
  constexpr std::uint64_t kSeed = 11;
  const nbclos::FoldedClos ftree(nbclos::FtreeParams{kN, kN * kN, kR});
  const auto net = nbclos::build_network(ftree);
  const nbclos::YuanNonblockingRouting yuan(ftree);
  const auto table = nbclos::RoutingTable::materialize(yuan);
  const auto pattern = nbclos::shift_permutation(ftree.leaf_count(), 5);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ftree.leaf_count());

  // Returns the result and the number of recorded time-series points.
  const auto run_once = [&](double load, std::uint64_t cycles,
                            bool record) {
    nbclos::sim::SimConfig config;
    config.injection_rate = load;
    config.warmup_cycles = 2000;
    config.measure_cycles = cycles;
    config.seed = kSeed;
    config.record_timeseries = record;
    nbclos::sim::FtreeOracle oracle(ftree, nbclos::sim::UplinkPolicy::kTable,
                                    &table);
    nbclos::sim::PacketSim sim(net, oracle, traffic, config);
    const auto result = sim.run();
    std::size_t points = 0;
    if (record) {
      for (const auto& series : sim.recorder().merged()) {
        points += series.points.size();
      }
    }
    return std::make_pair(result, points);
  };

  nbclos::bench::Report report("simcore_throughput");
  report.manifest().seed = kSeed;
  report.manifest().threads = 1;
  report.param("topology", "ftree(" + std::to_string(kN) + "+" +
                               std::to_string(kN * kN) + ", " +
                               std::to_string(kR) + ")");
  report.param("routing", "ftree-table (Theorem 3)");
  report.param("traffic", "shift permutation");
  report.param("cycles", 2000 + measure_cycles);

  for (const double load : {0.1, 0.5, 0.9}) {
    const nbclos::bench::Timer timer;
    const auto result = run_once(load, measure_cycles, false).first;
    const double secs = timer.seconds();
    const double cycles = static_cast<double>(2000 + measure_cycles);
    const std::string p =
        "load" + std::to_string(static_cast<int>(load * 100 + 0.5)) + ".";
    report.metric(p + "seconds", secs, "s");
    report.metric(p + "cycles_per_sec", cycles / secs, "cycles/s");
    report.metric(p + "packets_per_sec",
                  static_cast<double>(result.delivered_packets) / secs,
                  "packets/s");
    report.metric(p + "delivered_packets", result.delivered_packets,
                  "packets");
    report.metric(p + "accepted_throughput", result.accepted_throughput,
                  "flits/cycle/terminal");
  }

  // Live vs paused instrumentation at the middle load, on a shorter
  // window than the throughput levels (every timed run repeats) but long
  // enough that the per-cycle cost dominates setup.  Every run — both
  // sides, warm-ups included — must produce the same result and the
  // same recorded point count: instrumentation never feeds back into the
  // engine, and the engine is deterministic.
  const std::uint64_t overhead_cycles =
      std::min<std::uint64_t>(measure_cycles, 100000);
  const auto overhead = [&](const std::string& section, bool record) {
    std::optional<nbclos::sim::SimResult> first;
    std::optional<std::size_t> side_points;  // per side: paused records none
    bool all_equal = true;
    const auto run = [&] {
      const auto [result, points] = run_once(0.5, overhead_cycles, record);
      if (!first) first = result;
      if (!side_points) side_points = points;
      all_equal = all_equal && result == *first && points == *side_points;
    };
    nbclos::obs::set_enabled(true);
    const double on_secs = nbclos::bench::best_of(3, run);
    const std::size_t on_points = *side_points;
    side_points.reset();
    nbclos::obs::set_enabled(false);  // want() goes false: sampling pauses
    const double off_secs = nbclos::bench::best_of(3, run);
    nbclos::obs::set_enabled(true);
    const std::string p = section + ".";
    report.param(p + "compiled_in", nbclos::obs::kEnabled);
    report.param(p + "cycles", overhead_cycles);
    report.verdict(p + "results_identical", all_equal);
    report.metric(p + "enabled_seconds", on_secs, "s");
    report.metric(p + "paused_seconds", off_secs, "s");
    report.metric(p + "overhead_pct", (on_secs / off_secs - 1.0) * 100.0,
                  "%");
    if (record) {
      report.metric(p + "points_recorded", on_points, "points");
      report.metric(p + "points_paused", *side_points, "points");
    }
  };
  overhead("obs_overhead", false);       // metrics registry live/paused
  overhead("recorder_overhead", true);   // flight recorder live/paused
  return report.write(std::cout);
}
