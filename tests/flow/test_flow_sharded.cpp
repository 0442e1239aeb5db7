/// \file test_flow_sharded.cpp
/// \brief ShardedFlowSim determinism: bit-identical FlowResults against
///        serial FlowSim (counter injection) at 1/2/4/8 shards (3/8
///        on uneven cuts under saturation) — for wormhole and virtual
///        cut-through, credit and on/off backpressure, under mid-run
///        fault schedules, and through a
///        genuine cross-shard deadlock where the watchdog verdict must
///        come from epoch totals aggregated over ALL shards.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/shard_router.hpp"

namespace nbclos {
namespace {

using flow::Backpressure;
using flow::FlowConfig;
using flow::FlowResult;
using flow::FlowSim;
using flow::ShardedFlowSim;
using flow::Switching;

/// EXPECT_EQ on every FlowResult field.  Doubles compare exactly: the
/// sharded merges are defined to replay serial's arithmetic bit for bit.
void expect_identical(const FlowResult& a, const FlowResult& b,
                      std::uint32_t shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.latency_bucket_width, b.latency_bucket_width);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth);
  EXPECT_EQ(a.min_flow_throughput, b.min_flow_throughput);
  EXPECT_EQ(a.max_flow_throughput, b.max_flow_throughput);
  EXPECT_EQ(a.credit_stall_cycles, b.credit_stall_cycles);
  EXPECT_EQ(a.vc_stall_cycles, b.vc_stall_cycles);
  EXPECT_EQ(a.mean_stall_cycles, b.mean_stall_cycles);
  EXPECT_EQ(a.p99_stall_cycles, b.p99_stall_cycles);
  EXPECT_EQ(a.peak_buffer_flits, b.peak_buffer_flits);
  EXPECT_EQ(a.peak_live_packets, b.peak_live_packets);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.deadlock_cycle, b.deadlock_cycle);
  EXPECT_EQ(a.stuck_flits, b.stuck_flits);
  EXPECT_EQ(a.stuck_buffers, b.stuck_buffers);
  EXPECT_TRUE(a == b) << "a field the checks above miss differs";
}

/// ftree(2+4, 3): 16 terminals, enough levels for multi-hop worms, small
/// enough that 4 engines x 4 shard counts stay fast.
class FlowSharded : public ::testing::Test {
 protected:
  FlowSharded()
      : ft(FtreeParams{2, 4, 3}),
        net(build_network(ft)),
        yuan(ft),
        routes(std::make_shared<const flow::RouteSource>(
            std::make_shared<const routing::ChannelRouteCache>(
                routing::ChannelRouteCache::materialize(net, yuan)))),
        traffic(sim::TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 5), ft.leaf_count())) {}

  FlowConfig base_config() const {
    FlowConfig config;
    config.injection_rate = 0.6;  // deep enough to engage backpressure
    config.packet_flits = 3;
    config.buffer_flits = 4;
    config.vcs = 1;
    config.warmup_cycles = 300;
    config.measure_cycles = 1700;
    config.watchdog_epoch = 256;
    config.seed = 20260809;
    return config;
  }

  void check_all_shard_counts(const FlowConfig& config,
                              const fault::DegradedView* degraded = nullptr,
                              std::vector<fault::FaultEvent> events = {}) {
    FlowSim serial(routes, traffic, config, degraded, events);
    const FlowResult golden = serial.run();
    const auto serial_busy = serial.link_busy_flits();
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      ShardedFlowSim sharded(routes, traffic, config, shards, degraded, events);
      const FlowResult got = sharded.run();
      expect_identical(golden, got, shards);
      EXPECT_EQ(serial_busy, sharded.link_busy_flits())
          << "link_busy diverged at " << shards << " shards";
    }
  }

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  std::shared_ptr<const flow::RouteSource> routes;
  sim::TrafficPattern traffic;
};

TEST_F(FlowSharded, BitIdenticalWormholeCredit) {
  check_all_shard_counts(base_config());
}

TEST_F(FlowSharded, BitIdenticalWormholeOnOff) {
  FlowConfig config = base_config();
  config.backpressure = Backpressure::kOnOff;
  check_all_shard_counts(config);
}

TEST_F(FlowSharded, BitIdenticalVctCredit) {
  FlowConfig config = base_config();
  config.switching = Switching::kVirtualCutThrough;
  check_all_shard_counts(config);
}

TEST_F(FlowSharded, BitIdenticalVctOnOff) {
  FlowConfig config = base_config();
  config.switching = Switching::kVirtualCutThrough;
  config.backpressure = Backpressure::kOnOff;
  check_all_shard_counts(config);
}

TEST_F(FlowSharded, BitIdenticalMultiVcUniformTraffic) {
  traffic = sim::TrafficPattern::uniform(ft.leaf_count());
  FlowConfig config = base_config();
  config.vcs = 2;
  config.injection_rate = 0.8;
  check_all_shard_counts(config);
}

/// Saturated wormhole with three VCs on cuts that do not divide the
/// fabric evenly: every executor merges several VCs' proposals per
/// channel from several owners each cycle, and heads compete for VCs and
/// credits, so a misordered merge changes who wins.
TEST(FlowShardedUnevenCuts, BitIdenticalSaturatedThreeVcs) {
  const Network net = build_kary_ntree(4, 3);
  const auto routes = std::make_shared<const flow::RouteSource>(
      net, std::make_shared<const sim::KaryDmodkRouter>(net, 4, 3));
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto traffic = sim::TrafficPattern::uniform(terminals);
  FlowConfig config;  // wormhole + credits by default
  config.injection_rate = 1.0;
  config.packet_flits = 3;
  config.buffer_flits = 4;
  config.vcs = 3;
  config.warmup_cycles = 200;
  config.measure_cycles = 800;
  config.watchdog_epoch = 256;
  config.seed = 20260809;
  ASSERT_EQ(config.switching, Switching::kWormhole);
  ASSERT_EQ(config.backpressure, Backpressure::kCredit);
  FlowSim serial(routes, traffic, config);
  const FlowResult golden = serial.run();
  EXPECT_LT(golden.accepted_throughput, config.injection_rate);
  EXPECT_GT(golden.credit_stall_cycles + golden.vc_stall_cycles, 0u);
  EXPECT_FALSE(golden.deadlocked);
  for (const std::uint32_t shards : {3u, 8u}) {
    ShardedFlowSim sharded(routes, traffic, config, shards);
    expect_identical(golden, sharded.run(), shards);
    EXPECT_EQ(serial.link_busy_flits(), sharded.link_busy_flits())
        << "link_busy diverged at " << shards << " shards";
  }
}

TEST_F(FlowSharded, BitIdenticalWithPinning) {
  FlowConfig config = base_config();
  config.pin_shards = true;
  check_all_shard_counts(config);
}

/// Mid-run fault schedule: a spine channel dies (worms block in place, a
/// stall signature), a NIC uplink dies (injection drops), and the spine
/// recovers — every shard replays the same schedule on its private copy.
TEST_F(FlowSharded, BitIdenticalUnderFaultSchedule) {
  fault::DegradedView view(net);
  std::uint32_t spine = UINT32_MAX;
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    const bool from_switch =
        net.vertex(net.channel_src(c)).kind != VertexKind::kTerminal;
    const bool to_switch =
        net.vertex(net.channel_dst(c)).kind != VertexKind::kTerminal;
    if (from_switch && to_switch) {
      spine = c;
      break;
    }
  }
  ASSERT_NE(spine, UINT32_MAX);
  std::uint32_t nic = UINT32_MAX;
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    if (net.vertex(net.channel_src(c)).kind == VertexKind::kTerminal) {
      nic = c;
      break;
    }
  }
  ASSERT_NE(nic, UINT32_MAX);
  const std::vector<fault::FaultEvent> events{
      {500, fault::FaultAction::kFailChannel, spine},
      {700, fault::FaultAction::kFailChannel, nic},
      {1100, fault::FaultAction::kRecoverChannel, spine},
  };
  FlowConfig config = base_config();
  config.watchdog_epoch = 0;  // blocked worms are expected mid-schedule
  check_all_shard_counts(config, &view, events);
  // The schedule must actually have bitten: rerun serially and check the
  // drop counter engaged (regression against a silently dead schedule).
  FlowSim probe(routes, traffic, config, &view, events);
  EXPECT_GT(probe.run().dropped_packets, 0U);
}

// ---------------------------------------------------------------------------
// Watchdog aggregation across shards: the canonical 4-switch directed
// ring wedge (see test_flow_deadlock.cpp).  The cycle spans every shard
// cut, so each shard alone sees partial (even negative) flit counts —
// only the aggregated epoch totals give the serial verdict.

constexpr std::uint32_t kRing = 4;

struct RingFabric {
  RingFabric() {
    for (std::uint32_t i = 0; i < kRing; ++i) {
      net.add_vertex(VertexKind::kTerminal, 0, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      net.add_vertex(VertexKind::kSwitch, 1, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      nic[i] = net.add_channel(i, kRing + i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      eject[i] = net.add_channel(kRing + i, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      ring[i] = net.add_channel(kRing + i, kRing + (i + 1) % kRing);
    }
    net.finalize();
    routes = std::make_shared<const flow::RouteSource>(
        std::make_shared<const routing::ChannelRouteCache>(
            net, [this](SDPair sd) {
              std::vector<std::uint32_t> path{nic[sd.src.value]};
              for (std::uint32_t at = sd.src.value; at != sd.dst.value;
                   at = (at + 1) % kRing) {
                path.push_back(ring[at]);
              }
              path.push_back(eject[sd.dst.value]);
              return path;
            }));
  }

  Network net;
  std::uint32_t nic[kRing];
  std::uint32_t eject[kRing];
  std::uint32_t ring[kRing];
  std::shared_ptr<const flow::RouteSource> routes;
};

FlowConfig wedge_config() {
  FlowConfig config;
  config.injection_rate = 1.0;
  config.packet_flits = 6;  // worm longer than the buffer: spans routers
  config.buffer_flits = 2;
  config.vcs = 1;
  config.switching = Switching::kWormhole;
  config.backpressure = Backpressure::kCredit;
  config.warmup_cycles = 200;
  config.measure_cycles = 1800;
  config.watchdog_epoch = 128;
  config.seed = 99;
  return config;
}

TEST(FlowShardedWatchdog, VerdictMatchesSerialAcrossShardCuts) {
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowSim serial(fab.routes, traffic, wedge_config());
  const FlowResult golden = serial.run();
  ASSERT_TRUE(golden.deadlocked);
  ASSERT_GT(golden.stuck_flits, 0U);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedFlowSim sharded(fab.routes, traffic, wedge_config(), shards);
    const FlowResult got = sharded.run();
    expect_identical(golden, got, shards);
  }
}

/// A fault-induced global stall: at cycle 600 every channel dies, so
/// in-flight flits freeze while injection keeps dropping.  The watchdog
/// must still aggregate the (now static) flit counts across shards and
/// trip at the same epoch as serial.
TEST(FlowShardedWatchdog, FaultInducedTripMatchesSerial) {
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 1), kRing);
  fault::DegradedView view(fab.net);
  std::vector<fault::FaultEvent> events;
  for (std::uint32_t c = 0; c < fab.net.channel_count(); ++c) {
    events.push_back({600, fault::FaultAction::kFailChannel, c});
  }
  FlowConfig config = wedge_config();
  config.packet_flits = 2;  // no intrinsic wedge: only the fault stalls it
  config.buffer_flits = 4;
  FlowSim serial(fab.routes, traffic, config, &view, events);
  const FlowResult golden = serial.run();
  ASSERT_TRUE(golden.deadlocked);
  EXPECT_GE(golden.deadlock_cycle, 600U);
  EXPECT_GT(golden.dropped_packets, 0U);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedFlowSim sharded(fab.routes, traffic, config, shards, &view, events);
    const FlowResult got = sharded.run();
    expect_identical(golden, got, shards);
  }
}

// ---------------------------------------------------------------------------
// Flight recorder: the merged invariant series must replay serial's
// samples bit for bit at every shard count, and a watchdog trip must
// produce the same forensics (blocked FIFOs + circular wait) everywhere.

/// The invariant subset of merged(), as comparable values.
std::vector<obs::MergedSeries> invariant_series(
    const obs::FlightRecorder& recorder) {
  std::vector<obs::MergedSeries> out;
  for (auto& series : recorder.merged()) {
    if (series.scope == obs::SeriesScope::kInvariant) {
      out.push_back(std::move(series));
    }
  }
  return out;
}

void expect_identical_series(const std::vector<obs::MergedSeries>& golden,
                             const std::vector<obs::MergedSeries>& got,
                             std::uint32_t shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  ASSERT_EQ(golden.size(), got.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("series=" + golden[i].name);
    EXPECT_EQ(golden[i].name, got[i].name);
    EXPECT_EQ(golden[i].agg, got[i].agg);
    EXPECT_EQ(golden[i].stride_cycles, got[i].stride_cycles);
    EXPECT_EQ(golden[i].points, got[i].points);
  }
}

TEST_F(FlowSharded, MergedTimeseriesBitIdenticalAcrossShardCounts) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  FlowConfig config = base_config();
  config.record_timeseries = true;
  config.record_cadence = 32;
  config.record_ring_capacity = 24;  // small ring: downsampling engages
  FlowSim serial(routes, traffic, config);
  const FlowResult golden_result = serial.run();
  const auto golden = invariant_series(serial.recorder());
  ASSERT_GE(golden.size(), 7U);
  ASSERT_FALSE(golden[0].points.empty());
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedFlowSim sharded(routes, traffic, config, shards);
    const FlowResult got = sharded.run();
    expect_identical(golden_result, got, shards);
    expect_identical_series(golden, invariant_series(sharded.recorder()),
                            shards);
  }
}

TEST(FlowShardedForensics, WatchdogTripNamesTheDeadlockedFifos) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowConfig config = wedge_config();
  config.record_timeseries = true;
  config.record_cadence = 32;
  FlowSim serial(fab.routes, traffic, config);
  ASSERT_TRUE(serial.run().deadlocked);
  const auto& golden = serial.forensics();
  ASSERT_TRUE(golden.valid);
  ASSERT_FALSE(golden.blocked.empty());
  EXPECT_GT(golden.stuck_flits, 0U);
  // The wedge is a genuine circular wait around the 4 ring buffers: the
  // chain walk must find it, and every on-cycle report must both wait on
  // another buffer and hold flits.
  ASSERT_GE(golden.wait_cycle.size(), 2U);
  for (const auto& report : golden.blocked) {
    EXPECT_GT(report.occupancy, 0U);
    if (report.on_cycle) {
      EXPECT_NE(report.waiting_for, flow::BlockedBufferReport::kWaitsOnNone);
    }
  }
  // The cycle closes: each chain member's wait target is the next member.
  for (std::size_t i = 0; i < golden.wait_cycle.size(); ++i) {
    const auto next = golden.wait_cycle[(i + 1) % golden.wait_cycle.size()];
    const auto at = golden.wait_cycle[i];
    bool found = false;
    for (const auto& report : golden.blocked) {
      if (report.buffer == at) {
        EXPECT_EQ(report.waiting_for, next);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "chain member " << at << " has no report";
  }
  // The recorder tail rode along with the trip.
  EXPECT_FALSE(golden.tail.empty());

  // Sharded runs reconstruct the same global-id forensics from per-shard
  // state, even when the wait cycle crosses every shard boundary.
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFlowSim sharded(fab.routes, traffic, config, shards);
    ASSERT_TRUE(sharded.run().deadlocked);
    const auto& got = sharded.forensics();
    ASSERT_TRUE(got.valid);
    EXPECT_EQ(got.trip_cycle, golden.trip_cycle);
    EXPECT_EQ(got.stuck_flits, golden.stuck_flits);
    ASSERT_EQ(got.blocked.size(), golden.blocked.size());
    for (std::size_t i = 0; i < golden.blocked.size(); ++i) {
      EXPECT_EQ(got.blocked[i].buffer, golden.blocked[i].buffer);
      EXPECT_EQ(got.blocked[i].channel, golden.blocked[i].channel);
      EXPECT_EQ(got.blocked[i].occupancy, golden.blocked[i].occupancy);
      EXPECT_EQ(got.blocked[i].waiting_for, golden.blocked[i].waiting_for);
      EXPECT_EQ(got.blocked[i].blocked_since, golden.blocked[i].blocked_since);
      EXPECT_EQ(got.blocked[i].on_cycle, golden.blocked[i].on_cycle);
    }
    EXPECT_EQ(got.wait_cycle, golden.wait_cycle);
  }
}

}  // namespace
}  // namespace nbclos
