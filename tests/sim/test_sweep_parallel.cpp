/// \file test_sweep_parallel.cpp
/// \brief Thread-count independence of the parallel sweep drivers.
///
/// The OracleFactory overloads of load_sweep / find_saturation_load give
/// every run a private oracle seeded by (base seed, phase tag, run
/// index), so the only thing a bigger pool changes is wall clock.  These
/// tests pin that: serial, 1, 2, and 8 threads must agree field for
/// field, with and without a degraded view.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/failure_model.hpp"
#include "nbclos/fault/fault_oracle.hpp"
#include "nbclos/fault/sweep.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"

namespace {

using namespace nbclos;
using namespace nbclos::sim;

void expect_identical(const std::vector<SimResult>& a,
                      const std::vector<SimResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offered_load, b[i].offered_load);
    EXPECT_EQ(a[i].accepted_throughput, b[i].accepted_throughput);
    EXPECT_EQ(a[i].mean_latency, b[i].mean_latency);
    EXPECT_EQ(a[i].p50_latency, b[i].p50_latency);
    EXPECT_EQ(a[i].p99_latency, b[i].p99_latency);
    EXPECT_EQ(a[i].p999_latency, b[i].p999_latency);
    EXPECT_EQ(a[i].injected_packets, b[i].injected_packets);
    EXPECT_EQ(a[i].delivered_packets, b[i].delivered_packets);
    EXPECT_EQ(a[i].dropped_packets, b[i].dropped_packets);
    EXPECT_EQ(a[i].mean_switch_queue_depth, b[i].mean_switch_queue_depth);
    EXPECT_EQ(a[i].min_flow_throughput, b[i].min_flow_throughput);
    EXPECT_EQ(a[i].max_flow_throughput, b[i].max_flow_throughput);
  }
}

class ParallelSweep : public ::testing::Test {
 protected:
  ParallelSweep()
      : ft(FtreeParams{4, 16, 8}), net(build_network(ft)), yuan(ft),
        table(RoutingTable::materialize(yuan)),
        traffic(TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 5), ft.leaf_count())) {
    config.warmup_cycles = 200;
    config.measure_cycles = 800;
    config.seed = 321;
  }

  [[nodiscard]] OracleFactory random_factory() const {
    return [this](std::uint64_t run_seed, fault::DegradedView*) {
      return std::make_unique<FtreeOracle>(ft, UplinkPolicy::kRandom, nullptr,
                                           run_seed);
    };
  }

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  RoutingTable table;
  TrafficPattern traffic;
  SimConfig config;
  std::vector<double> rates{0.2, 0.4, 0.6, 0.8, 1.0};
};

TEST_F(ParallelSweep, LoadSweepMatchesSerialAtAnyThreadCount) {
  const auto factory = random_factory();
  const auto serial =
      load_sweep(net, factory, traffic, config, rates, nullptr);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel =
        load_sweep(net, factory, traffic, config, rates, &pool);
    expect_identical(serial, parallel);
  }
}

TEST_F(ParallelSweep, LoadSweepWithFaultsMatchesSerial) {
  fault::DegradedView view(net);
  fault::FailureModel model(net);
  model.inject_random_uplink_failures(ft, 6, 55);
  model.apply_static(view);
  const std::vector<fault::FaultEvent> events{
      {400, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{1}, TopId{2}).value},
  };
  // A fault-aware factory: each run captures its run-private view copy.
  const OracleFactory factory = [this](std::uint64_t,
                                       fault::DegradedView* degraded) {
    return std::make_unique<fault::FaultTolerantOracle>(
        ft, *degraded, UplinkPolicy::kTable, &table);
  };
  const auto serial =
      load_sweep(net, factory, traffic, config, rates, nullptr, &view, events);
  ThreadPool pool(4);
  const auto parallel =
      load_sweep(net, factory, traffic, config, rates, &pool, &view, events);
  expect_identical(serial, parallel);
}

TEST_F(ParallelSweep, SaturationSearchMatchesSerialAtAnyThreadCount) {
  const auto factory = random_factory();
  const double serial =
      find_saturation_load(net, factory, traffic, config, 5, nullptr);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(serial,
              find_saturation_load(net, factory, traffic, config, 5, &pool));
  }
}

TEST_F(ParallelSweep, FaultThroughputSweepIsThreadCountIndependent) {
  SimConfig sim_config = config;
  sim_config.injection_rate = 0.9;
  const std::vector<std::uint32_t> levels{0, 8, 32};
  const auto serial = analysis::run_fault_throughput_sweep(
      ft, net, table, traffic, sim_config, levels, 97, nullptr);
  ThreadPool pool(4);
  const auto parallel = analysis::run_fault_throughput_sweep(
      ft, net, table, traffic, sim_config, levels, 97, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].failures, parallel[i].failures);
    EXPECT_EQ(serial[i].reroutes, parallel[i].reroutes);
    EXPECT_EQ(serial[i].sim.accepted_throughput,
              parallel[i].sim.accepted_throughput);
    EXPECT_EQ(serial[i].sim.mean_latency, parallel[i].sim.mean_latency);
    EXPECT_EQ(serial[i].sim.delivered_packets,
              parallel[i].sim.delivered_packets);
  }
  // Pristine level delivers at full offered load; heavy damage degrades.
  EXPECT_GT(serial[0].sim.accepted_throughput, 0.85);
}

}  // namespace
