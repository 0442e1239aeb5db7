#include "nbclos/sim/engine.hpp"

#include <gtest/gtest.h>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/sharded.hpp"

namespace nbclos::sim {
namespace {

SimConfig quick_config(double rate) {
  SimConfig config;
  config.injection_rate = rate;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.seed = 99;
  return config;
}

TEST(Engine, CrossbarDeliversFullLoadOnPermutation) {
  // An ideal crossbar sustains 1.0 flits/cycle/terminal on any
  // permutation — the reference the paper compares fat-trees against.
  const auto net = build_crossbar(8);
  CrossbarOracle oracle(8);
  const auto pattern = shift_permutation(8, 3);
  const auto traffic = TrafficPattern::permutation(pattern, 8);
  PacketSim sim(net, oracle, traffic, quick_config(1.0));
  const auto result = sim.run();
  EXPECT_GT(result.accepted_throughput, 0.97);
  EXPECT_FALSE(result.saturated());
  EXPECT_GT(result.delivered_packets, 0U);
}

TEST(Engine, NonblockingFtreeSustainsFullPermutationLoad) {
  // ftree(2+4, 5) with the Theorem 3 table routing: permutations are
  // contention-free, so throughput tracks offered load up to 1.0.
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const auto net = build_network(ft);
  const YuanNonblockingRouting routing(ft);
  const auto table = RoutingTable::materialize(routing);
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &table);
  const auto pattern = shift_permutation(ft.leaf_count(), 3);
  const auto traffic = TrafficPattern::permutation(pattern, ft.leaf_count());
  PacketSim sim(net, oracle, traffic, quick_config(1.0));
  const auto result = sim.run();
  EXPECT_GT(result.accepted_throughput, 0.97);
  EXPECT_FALSE(result.saturated());
}

/// Adversarial full permutation for D-mod-K on ftree(4+4, 8): source
/// (v, k) targets destination ((v+1+k) mod 8, v mod 4).  All four
/// destinations of switch v share local number v mod 4, so D-mod-K routes
/// the whole switch through the single uplink v -> top (v mod 4); the
/// per-destination-switch fan-in, by contrast, arrives on four distinct
/// tops, so only uplinks serialize.  Every source and destination is used
/// exactly once (switches v and v+4 share the local number but hit
/// disjoint destination-switch windows).
Permutation dmodk_uplink_funnel() {
  Permutation pattern;
  for (std::uint32_t v = 0; v < 8; ++v) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      pattern.push_back(
          {LeafId{v * 4 + k}, LeafId{((v + 1 + k) % 8) * 4 + (v % 4)}});
    }
  }
  validate_permutation(pattern, 32);
  return pattern;
}

TEST(Engine, DModKSaturatesBelowFullLoadOnAdversarialPermutation) {
  // The motivation result (refs [5][7]): a "nonblocking-in-theory"
  // fat-tree with static D-mod-K routing cannot sustain permutation
  // traffic that collides on uplinks.  Four flows share each uplink, so
  // accepted throughput caps near 1/4 flit/cycle/terminal.
  const FoldedClos ft(FtreeParams{4, 4, 8});
  const auto net = build_network(ft);
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  const auto traffic = TrafficPattern::permutation(dmodk_uplink_funnel(), 32);
  PacketSim sim(net, oracle, traffic, quick_config(0.9));
  const auto result = sim.run();
  EXPECT_TRUE(result.saturated());
  EXPECT_LT(result.accepted_throughput, 0.4);
  EXPECT_GT(result.accepted_throughput, 0.15);
}

TEST(Engine, ThroughputScalesWithOfferedLoadBelowSaturation) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const auto net = build_network(ft);
  const YuanNonblockingRouting routing(ft);
  const auto table = RoutingTable::materialize(routing);
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &table);
  const auto pattern = shift_permutation(ft.leaf_count(), 2);
  const auto traffic = TrafficPattern::permutation(pattern, ft.leaf_count());
  const auto results =
      load_sweep(net, oracle, traffic, quick_config(0.0), {0.2, 0.5, 0.8});
  ASSERT_EQ(results.size(), 3U);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].accepted_throughput, results[i].offered_load,
                0.05);
  }
  EXPECT_LT(results[0].mean_latency, results[2].mean_latency + 10.0);
}

TEST(Engine, LatencyIsAtLeastTheHopSerializationFloor) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const auto net = build_network(ft);
  const YuanNonblockingRouting routing(ft);
  const auto table = RoutingTable::materialize(routing);
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &table);
  const auto pattern = shift_permutation(ft.leaf_count(), ft.n());
  const auto traffic = TrafficPattern::permutation(pattern, ft.leaf_count());
  PacketSim sim(net, oracle, traffic, quick_config(0.05));
  const auto result = sim.run();
  // Cross paths take 4 hops of 1 flit each; cheapest possible is 4.
  EXPECT_GE(result.mean_latency, 4.0);
  EXPECT_GE(result.p99_latency, result.mean_latency);
}

TEST(Engine, PacketSizeMultipliesSerializationDelay) {
  const auto net = build_crossbar(4);
  CrossbarOracle oracle(4);
  const auto traffic =
      TrafficPattern::permutation(shift_permutation(4, 1), 4);
  auto config = quick_config(0.1);
  PacketSim sim1(net, oracle, traffic, config);
  const auto small = sim1.run();
  config.packet_size = 4;
  PacketSim sim4(net, oracle, traffic, config);
  const auto large = sim4.run();
  EXPECT_GT(large.mean_latency, small.mean_latency + 3.0);
}

TEST(Engine, ZeroLoadDeliversNothing) {
  const auto net = build_crossbar(4);
  CrossbarOracle oracle(4);
  const auto traffic = TrafficPattern::uniform(4);
  PacketSim sim(net, oracle, traffic, quick_config(0.0));
  const auto result = sim.run();
  EXPECT_EQ(result.injected_packets, 0U);
  EXPECT_EQ(result.delivered_packets, 0U);
  EXPECT_EQ(result.accepted_throughput, 0.0);
}

TEST(Engine, SilentSourcesInjectNothing) {
  const auto net = build_crossbar(4);
  CrossbarOracle oracle(4);
  // Only terminal 0 sends.
  const auto traffic =
      TrafficPattern::permutation({{LeafId{0}, LeafId{2}}}, 4);
  PacketSim sim(net, oracle, traffic, quick_config(1.0));
  const auto result = sim.run();
  // Throughput normalizes by all 4 terminals: ~0.25.
  EXPECT_NEAR(result.accepted_throughput, 0.25, 0.02);
}

TEST(Engine, DeterministicAcrossRuns) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const auto net = build_network(ft);
  FtreeOracle oracle_a(ft, UplinkPolicy::kRandom, nullptr, 7);
  FtreeOracle oracle_b(ft, UplinkPolicy::kRandom, nullptr, 7);
  const auto traffic = TrafficPattern::uniform(ft.leaf_count());
  PacketSim sim_a(net, oracle_a, traffic, quick_config(0.4));
  PacketSim sim_b(net, oracle_b, traffic, quick_config(0.4));
  const auto a = sim_a.run();
  const auto b = sim_b.run();
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
}

TEST(Engine, AdaptiveOracleBeatsDModKOnFunnel) {
  // Local adaptivity steers around the single-uplink funnel that kills
  // D-mod-K — the qualitative claim of §V realized at packet level.
  const FoldedClos ft(FtreeParams{4, 4, 8});
  const auto net = build_network(ft);
  const auto traffic = TrafficPattern::permutation(dmodk_uplink_funnel(), 32);
  FtreeOracle dmodk(ft, UplinkPolicy::kDModK);
  FtreeOracle adaptive(ft, UplinkPolicy::kLeastQueue);
  PacketSim sim_d(net, dmodk, traffic, quick_config(0.8));
  PacketSim sim_a(net, adaptive, traffic, quick_config(0.8));
  const auto d = sim_d.run();
  const auto a = sim_a.run();
  EXPECT_GT(a.accepted_throughput, d.accepted_throughput + 0.1);
}

TEST(Engine, FairnessExtremesAreTightWhenContentionFree) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const auto net = build_network(ft);
  const YuanNonblockingRouting routing(ft);
  const auto table = RoutingTable::materialize(routing);
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &table);
  const auto pattern = shift_permutation(ft.leaf_count(), 3);
  const auto traffic = TrafficPattern::permutation(pattern, ft.leaf_count());
  PacketSim sim(net, oracle, traffic, quick_config(0.8));
  const auto result = sim.run();
  // Every flow gets its fair share; min and max stay close to offered.
  EXPECT_GT(result.min_flow_throughput, 0.7);
  EXPECT_LT(result.max_flow_throughput - result.min_flow_throughput, 0.12);
}

TEST(Engine, FairnessGapWidensUnderDModKFunnel) {
  const FoldedClos ft(FtreeParams{4, 4, 8});
  const auto net = build_network(ft);
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  const auto traffic = TrafficPattern::permutation(dmodk_uplink_funnel(), 32);
  PacketSim sim(net, oracle, traffic, quick_config(0.9));
  const auto result = sim.run();
  // Four flows share each uplink: everyone is throttled to ~1/4.
  EXPECT_LT(result.max_flow_throughput, 0.5);
  EXPECT_GT(result.max_flow_throughput, result.min_flow_throughput - 1e-9);
}

TEST(Engine, SaturationFinderReportsFullLoadForCrossbar) {
  const auto net = build_crossbar(8);
  CrossbarOracle oracle(8);
  const auto traffic =
      TrafficPattern::permutation(shift_permutation(8, 3), 8);
  SimConfig config = quick_config(0.0);
  config.measure_cycles = 2000;
  EXPECT_DOUBLE_EQ(find_saturation_load(net, oracle, traffic, config), 1.0);
}

TEST(Engine, SaturationFinderLocatesDModKCollapse) {
  // On the uplink funnel, D-mod-K (m = n) caps near 0.25; the bisection
  // must land in that neighbourhood.
  const FoldedClos ft(FtreeParams{4, 4, 8});
  const auto net = build_network(ft);
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  const auto traffic = TrafficPattern::permutation(dmodk_uplink_funnel(), 32);
  SimConfig config = quick_config(0.0);
  config.measure_cycles = 2000;
  const double sat = find_saturation_load(net, oracle, traffic, config, 6);
  EXPECT_GT(sat, 0.10);
  EXPECT_LT(sat, 0.40);
}

TEST(Engine, RejectsBadConfig) {
  const auto net = build_crossbar(4);
  CrossbarOracle oracle(4);
  const auto traffic = TrafficPattern::uniform(4);
  SimConfig config;
  config.injection_rate = 1.5;
  EXPECT_THROW(PacketSim(net, oracle, traffic, config), precondition_error);
  config.injection_rate = 0.5;
  config.packet_size = 0;
  EXPECT_THROW(PacketSim(net, oracle, traffic, config), precondition_error);
  config.packet_size = 1;
  config.queue_capacity = 0;
  EXPECT_THROW(PacketSim(net, oracle, traffic, config), precondition_error);
}

TEST(Engine, BothEnginesRejectQueueCapacityAbove2To31) {
  // Past 2^31 a power-of-two queue bound (std::bit_ceil) is undefined;
  // both packet engines refuse the config up front, naming the field.
  const Network net = build_kary_ntree(2, 2);
  const KaryDmodkRouter router(net, 2, 2);
  ShardRouterOracle oracle(router);
  const auto traffic = TrafficPattern::uniform(4);
  SimConfig config;
  config.queue_capacity = (std::uint32_t{1} << 31) + 1;
  const auto expect_rejected = [](const auto& construct) {
    try {
      construct();
      ADD_FAILURE() << "queue_capacity 2^31 + 1 was accepted";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("queue_capacity"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected([&] { PacketSim sim(net, oracle, traffic, config); });
  expect_rejected([&] { ShardedSim sim(net, router, traffic, config, 2); });
  // 2^31 itself is the largest accepted bound.
  config.queue_capacity = std::uint32_t{1} << 31;
  config.warmup_cycles = 10;
  config.measure_cycles = 20;
  config.counter_injection = true;
  PacketSim serial(net, oracle, traffic, config);
  ShardedSim sharded(net, router, traffic, config, 2);
  EXPECT_TRUE(serial.run() == sharded.run());
}

TEST(Engine, TrafficSizeMustMatchNetwork) {
  const auto net = build_crossbar(4);
  CrossbarOracle oracle(4);
  const auto traffic = TrafficPattern::uniform(5);
  EXPECT_THROW(PacketSim(net, oracle, traffic, SimConfig{}),
               precondition_error);
}

}  // namespace
}  // namespace nbclos::sim
