/// \file workloads.cpp
/// \brief The three benchmark workloads (see perfbench/README.md for why
///        each one exists and which layer it stresses).
///
/// Every call into a library layer is wrapped in a span named
/// "<layer>.<call>", so the traced run can split a pass by layer.  Every
/// engine run and verifier call is one checked operation.
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "harness.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/route_source.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_exchange.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace nbclos;
using Scope = SpanRecorder::Scope;

/// The workload seed fans out into independent streams, so the traffic,
/// the engines' injection and the verifier never share random numbers.
struct Seeds {
  std::uint64_t traffic, engine, verifier;
  explicit Seeds(std::uint64_t seed) {
    SplitMix64 mix(seed);
    traffic = mix.next();
    engine = mix.next();
    verifier = mix.next();
  }
};

/// Seeded random permutation without fixed points, so every terminal
/// sends (a fixed point would leave its terminal silent).
Permutation random_derangement(std::uint32_t terminals, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  auto pattern = random_permutation(terminals, rng);
  while (pattern.size() < terminals) {
    pattern = random_permutation(terminals, rng);
  }
  return pattern;
}

std::uint64_t sum(const std::vector<std::uint64_t>& values) {
  return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
}

/// Every FlowResult / SimResult field that exists in both engines.
template <typename Result>
bool same_common_fields(const Result& a, const Result& b) {
  return a.offered_load == b.offered_load &&
         a.accepted_throughput == b.accepted_throughput &&
         a.mean_latency == b.mean_latency && a.p50_latency == b.p50_latency &&
         a.p99_latency == b.p99_latency && a.p999_latency == b.p999_latency &&
         a.latency_bucket_width == b.latency_bucket_width &&
         a.injected_packets == b.injected_packets &&
         a.delivered_packets == b.delivered_packets &&
         a.dropped_packets == b.dropped_packets &&
         a.mean_switch_queue_depth == b.mean_switch_queue_depth &&
         a.min_flow_throughput == b.min_flow_throughput &&
         a.max_flow_throughput == b.max_flow_throughput;
}

bool identical(const flow::FlowResult& a, const flow::FlowResult& b) {
  return same_common_fields(a, b) &&
         a.credit_stall_cycles == b.credit_stall_cycles &&
         a.vc_stall_cycles == b.vc_stall_cycles &&
         a.mean_stall_cycles == b.mean_stall_cycles &&
         a.p99_stall_cycles == b.p99_stall_cycles &&
         a.peak_buffer_flits == b.peak_buffer_flits &&
         a.peak_live_packets == b.peak_live_packets &&
         a.deadlocked == b.deadlocked &&
         a.deadlock_cycle == b.deadlock_cycle &&
         a.stuck_flits == b.stuck_flits &&
         a.stuck_buffers == b.stuck_buffers;
}

/// Checks every engine run gets: no deadlock, no more packets out than
/// in, and — where the paper guarantees it — Theorem 3's promise that a
/// nonblocking routing carries the offered load.
template <typename Result>
void check_run(Checks::Op& op, const Result& result, bool expect_sustained) {
  op.expect(result.delivered_packets <= result.injected_packets,
            "delivered <= injected");
  op.expect(result.delivered_packets > 0, "packets delivered");
  if constexpr (std::is_same_v<Result, flow::FlowResult>) {
    op.expect(!result.deadlocked, "no deadlock");
  }
  if (expect_sustained) {
    op.expect(result.accepted_throughput >= 0.95 * result.offered_load,
              "accepted >= 0.95 x offered (Theorem 3)");
  }
}

/// Close the span of a setup step: its time counts into the pass's setup
/// time and into the step's own metric.
void end_setup_step(Context& cx, PassTotals& totals, Scope& step,
                    const char* metric) {
  const double secs = step.stop();
  totals.setup_s += secs;
  cx.metrics.add(metric, "s", secs);
}

/// One engine pair's share of a pass, plus the serial result the
/// diagnostics compare against.
template <typename Result>
struct EngineRuns {
  double construct_s = 0.0;
  double run_s = 0.0;
  double work = 0.0;  ///< terminal-cycles
  Result serial;
};

/// FlowSim, then ShardedFlowSim at kParallelism shards, on one route
/// source.  Records the flow.* layer metrics and the flow end-to-end
/// detail metrics.
EngineRuns<flow::FlowResult> run_flow_engines(
    Context& cx, const std::shared_ptr<const flow::RouteSource>& routes,
    const sim::TrafficPattern& traffic, const flow::FlowConfig& config,
    bool contended) {
  const double terminal_cycles =
      static_cast<double>(routes->network().terminals().size()) *
      static_cast<double>(config.warmup_cycles + config.measure_cycles);
  EngineRuns<flow::FlowResult> totals;
  auto& serial = totals.serial;
  double serial_run_s = 0.0;
  std::uint64_t traversals = 0;
  {
    Checks::Op op(cx.checks, "flow.serial.run");
    Scope construct(cx.spans, "flow.serial.construct");
    flow::FlowSim engine(routes, traffic, config);
    totals.construct_s += construct.stop();
    Scope run(cx.spans, "flow.serial.run");
    serial = engine.run();
    serial_run_s = run.stop();
    traversals = sum(engine.link_busy_flits());
    check_run(op, serial, !contended);
    if (config.backpressure == flow::Backpressure::kCredit) {
      op.expect(engine.credit_conservation_holds(), "credit conservation");
    }
    const auto arena = engine.arena_stats();
    cx.metrics.add("flow.arena_bytes", "bytes",
                   static_cast<double>(arena.flit_arena_bytes +
                                       arena.packet_arena_bytes));
  }

  flow::FlowResult sharded;
  double sharded_run_s = 0.0;
  {
    Checks::Op op(cx.checks, "flow.sharded.run");
    Scope construct(cx.spans, "flow.sharded.construct");
    flow::ShardedFlowSim engine(routes, traffic, config, kParallelism);
    totals.construct_s += construct.stop();
    Scope run(cx.spans, "flow.sharded.run");
    sharded = engine.run();
    sharded_run_s = run.stop();
    check_run(op, sharded, !contended);
    op.expect(identical(sharded, serial), "sharded == serial, every field");
    op.expect(sum(engine.link_busy_flits()) == traversals,
              "sharded link traversals == serial");
    const auto& telemetry = engine.telemetry();
    cx.metrics.add("flow.cross_shard_flits", "count",
                   static_cast<double>(telemetry.cross_shard_flits));
    cx.metrics.add("flow.cross_shard_credits", "count",
                   static_cast<double>(telemetry.cross_shard_credits));
    cx.metrics.add("flow.mailbox_peak", "count",
                   static_cast<double>(telemetry.mailbox_peak));
  }

  const auto stalls = serial.credit_stall_cycles + serial.vc_stall_cycles;
  const auto moves = static_cast<double>(traversals);
  cx.metrics.add("flow.construct_s", "s", totals.construct_s);
  cx.metrics.add("flow.serial.run_s", "s", serial_run_s);
  cx.metrics.add("flow.sharded.run_s", "s", sharded_run_s);
  cx.metrics.add("flow.serial.ns_per_traversal", "ns",
                 serial_run_s * 1e9 / moves);
  cx.metrics.add("flow.sharded.ns_per_traversal", "ns",
                 sharded_run_s * 1e9 / moves);
  cx.metrics.add("flow.link_traversals", "count", moves);
  cx.metrics.add("flow.stall_cycles", "count", static_cast<double>(stalls));
  cx.metrics.add("flow.transmit_success_ratio", "ratio",
                 moves / (moves + static_cast<double>(stalls)));
  cx.metrics.add("flow.peak_live_packets", "count",
                 static_cast<double>(serial.peak_live_packets));
  cx.metrics.add("flow.sharded_speedup", "ratio", serial_run_s / sharded_run_s);
  cx.metrics.add("flow_serial_tcps", "1/s", terminal_cycles / serial_run_s);
  cx.metrics.add("flow_sharded_tcps", "1/s", terminal_cycles / sharded_run_s);
  cx.metrics.add("flow_accepted_throughput", "flits/terminal/cycle",
                 serial.accepted_throughput);
  cx.metrics.add("flow_p99_latency_cycles", "cycles", serial.p99_latency);

  totals.run_s = serial_run_s + sharded_run_s;
  totals.work = 2.0 * terminal_cycles;
  return totals;
}

/// Traced-run diagnostic: ShardedFlowSim at 1 shard, the cost of the
/// sharded machinery without any parallelism.
void run_flow_sharded1(Context& cx,
                       const std::shared_ptr<const flow::RouteSource>& routes,
                       const sim::TrafficPattern& traffic,
                       const flow::FlowConfig& config,
                       const flow::FlowResult& serial) {
  Checks::Op op(cx.checks, "flow.sharded1.run");
  flow::ShardedFlowSim engine(routes, traffic, config, 1);
  Scope run(cx.spans, "flow.sharded1.run");
  const auto one = engine.run();
  cx.metrics.add("flow.sharded1.run_s", "s", run.stop());
  op.expect(identical(one, serial), "1-shard == serial, every field");
}

// --- flow_contended -------------------------------------------------------

/// kary(4,5) with d-mod-k and about twice the load it accepts: the flow
/// layer spends much of its time re-trying blocked heads.  (The 4096-
/// terminal kary(8,4) variant of this workload drifted by 20-35% from run
/// to run on a shared 4-core VM; at 1024 terminals it stays within ~9%.)
class FlowContended final : public Workload {
 public:
  static constexpr std::uint32_t kK = 4;
  static constexpr std::uint32_t kH = 5;
  static constexpr std::uint32_t kTerminals = 1024;  // kK^kH

  explicit FlowContended(std::uint64_t seed)
      : traffic_(sim::TrafficPattern::permutation(
            random_derangement(kTerminals, Seeds(seed).traffic), kTerminals)) {
    config_.injection_rate = 0.4;
    config_.packet_flits = 4;
    config_.buffer_flits = 8;
    config_.vcs = 1;
    config_.switching = flow::Switching::kWormhole;
    config_.backpressure = flow::Backpressure::kCredit;
    config_.warmup_cycles = 100;
    config_.measure_cycles = 400;
    config_.seed = Seeds(seed).engine;
    config_.counter_injection = true;
  }

  PassTotals pass(Context& cx, bool diagnostics) override {
    Scope whole(cx.spans, "bench.pass");
    PassTotals totals;
    Scope topology(cx.spans, "topology.build");
    const Network net = build_kary_ntree(kK, kH);
    end_setup_step(cx, totals, topology, "topology.build_s");

    Scope routing(cx.spans, "routing.build");
    const auto routes = std::make_shared<const flow::PureRouteSource>(
        net, std::make_shared<const sim::KaryDmodkRouter>(net, kK, kH));
    end_setup_step(cx, totals, routing, "routing.build_s");
    cx.metrics.add("routing.bytes", "bytes",
                   static_cast<double>(routes->bytes()));

    const auto flow = run_flow_engines(cx, routes, traffic_, config_,
                                       /*contended=*/true);
    totals.setup_s += flow.construct_s;
    totals.run_s = flow.run_s;
    totals.work = flow.work;
    totals.wall_s = whole.stop();
    if (diagnostics) {
      run_flow_sharded1(cx, routes, traffic_, config_, flow.serial);
    }
    return totals;
  }

 private:
  sim::TrafficPattern traffic_;
  flow::FlowConfig config_;
};

// --- nonblocking_thm3 -----------------------------------------------------

/// ftree(8+64, 128) under Theorem 3 routing: no contention, table routes,
/// both the flow and the packet model.
class NonblockingThm3 final : public Workload {
 public:
  static constexpr FtreeParams kParams{8, 64, 128};
  static constexpr std::uint32_t kTerminals = 1024;  // n * r
  static constexpr double kLoad = 0.9;

  explicit NonblockingThm3(std::uint64_t seed)
      : traffic_(sim::TrafficPattern::permutation(
            random_derangement(kTerminals, Seeds(seed).traffic), kTerminals)),
        packet_config_(sim::SimConfig::ideal_reference(kLoad,
                                                       Seeds(seed).engine)) {
    flow_config_.injection_rate = kLoad;
    flow_config_.packet_flits = 4;
    flow_config_.buffer_flits = 8;
    flow_config_.vcs = 1;
    flow_config_.switching = flow::Switching::kVirtualCutThrough;
    flow_config_.backpressure = flow::Backpressure::kOnOff;
    flow_config_.warmup_cycles = 100;
    flow_config_.measure_cycles = 400;
    flow_config_.seed = Seeds(seed).engine;
    flow_config_.counter_injection = true;
    packet_config_.warmup_cycles = flow_config_.warmup_cycles;
    packet_config_.measure_cycles = flow_config_.measure_cycles;
    packet_config_.counter_injection = true;
  }

  PassTotals pass(Context& cx, bool diagnostics) override {
    Scope whole(cx.spans, "bench.pass");
    PassTotals totals;
    Scope topology(cx.spans, "topology.build");
    const FoldedClos ftree(kParams);
    const Network net = build_network(ftree);
    end_setup_step(cx, totals, topology, "topology.build_s");

    Scope routing(cx.spans, "routing.build");
    const YuanNonblockingRouting thm3(ftree);
    const auto cache = std::make_shared<const routing::ChannelRouteCache>(
        net, [&](SDPair sd) {
          LinkId run[FoldedClos::kMaxPathLinks];
          const auto count = ftree.links_into(thm3.route(sd), run);
          std::vector<std::uint32_t> channels(count);
          for (std::uint32_t i = 0; i < count; ++i) channels[i] = run[i].value;
          return channels;
        });
    sim::CachedShardRouter router(*cache);
    router.attach_views(sim::ShardPlan::build(net, kParallelism).vertex_begin);
    end_setup_step(cx, totals, routing, "routing.build_s");
    cx.metrics.add("routing.bytes", "bytes",
                   static_cast<double>(cache->bytes()));

    const auto routes = std::make_shared<const flow::CacheRouteSource>(cache);
    const auto flow = run_flow_engines(cx, routes, traffic_, flow_config_,
                                       /*contended=*/false);
    const auto packet = run_packet_engines(cx, net, router);
    totals.setup_s += flow.construct_s + packet.construct_s;
    totals.run_s = flow.run_s + packet.run_s;
    totals.work = flow.work + packet.work;
    totals.wall_s = whole.stop();
    if (diagnostics) {
      run_flow_sharded1(cx, routes, traffic_, flow_config_, flow.serial);
      Checks::Op op(cx.checks, "sim.sharded1.run");
      sim::ShardedSim engine(net, router, traffic_, packet_config_, 1);
      Scope run(cx.spans, "sim.sharded1.run");
      const auto one = engine.run();
      cx.metrics.add("sim.sharded1.run_s", "s", run.stop());
      op.expect(same_common_fields(one, packet.serial),
                "1-shard == serial, every field");
    }
    return totals;
  }

 private:
  /// PacketSim, then ShardedSim at kParallelism shards; the sim.* layer
  /// metrics and the packet end-to-end detail metrics.
  EngineRuns<sim::SimResult> run_packet_engines(
      Context& cx, const Network& net, const sim::CachedShardRouter& router) {
    const double terminal_cycles =
        static_cast<double>(kTerminals) *
        static_cast<double>(packet_config_.warmup_cycles +
                            packet_config_.measure_cycles);
    EngineRuns<sim::SimResult> totals;
    auto& serial = totals.serial;
    double serial_run_s = 0.0;
    std::uint64_t traversals = 0;
    {
      Checks::Op op(cx.checks, "sim.serial.run");
        sim::ShardRouterOracle oracle(router);
      Scope construct(cx.spans, "sim.serial.construct");
      sim::PacketSim engine(net, oracle, traffic_, packet_config_);
      totals.construct_s += construct.stop();
      Scope run(cx.spans, "sim.serial.run");
      serial = engine.run();
      serial_run_s = run.stop();
      traversals = sum(engine.link_busy_flits());
      check_run(op, serial, /*expect_sustained=*/true);
    }

    sim::SimResult sharded;
    double sharded_run_s = 0.0;
    {
      Checks::Op op(cx.checks, "sim.sharded.run");
      Scope construct(cx.spans, "sim.sharded.construct");
      sim::ShardedSim engine(net, router, traffic_, packet_config_,
                             kParallelism);
      totals.construct_s += construct.stop();
      Scope run(cx.spans, "sim.sharded.run");
      sharded = engine.run();
      sharded_run_s = run.stop();
      check_run(op, sharded, /*expect_sustained=*/true);
      op.expect(same_common_fields(sharded, serial),
                "sharded == serial, every field");
      const auto& telemetry = engine.telemetry();
      op.expect(sharded.injected_packets ==
                    sharded.delivered_packets + sharded.dropped_packets +
                        telemetry.remaining_packets,
                "packet conservation");
      cx.metrics.add("sim.arena_bytes", "bytes",
                     static_cast<double>(engine.arena_bytes()));
      cx.metrics.add("sim.cross_shard_flits", "count",
                     static_cast<double>(telemetry.cross_shard_flits));
      cx.metrics.add("sim.mailbox_peak", "count",
                     static_cast<double>(telemetry.mailbox_peak));
    }

    const auto moves = static_cast<double>(traversals);
    cx.metrics.add("sim.construct_s", "s", totals.construct_s);
    cx.metrics.add("sim.serial.run_s", "s", serial_run_s);
    cx.metrics.add("sim.sharded.run_s", "s", sharded_run_s);
    cx.metrics.add("sim.serial.ns_per_traversal", "ns",
                   serial_run_s * 1e9 / moves);
    cx.metrics.add("sim.sharded.ns_per_traversal", "ns",
                   sharded_run_s * 1e9 / moves);
    cx.metrics.add("sim.link_traversals", "count", moves);
    cx.metrics.add("sim.sharded_speedup", "ratio",
                   serial_run_s / sharded_run_s);
    cx.metrics.add("packet_serial_tcps", "1/s", terminal_cycles / serial_run_s);
    cx.metrics.add("packet_sharded_tcps", "1/s",
                   terminal_cycles / sharded_run_s);

    totals.run_s = serial_run_s + sharded_run_s;
    totals.work = 2.0 * terminal_cycles;
    return totals;
  }

  sim::TrafficPattern traffic_;
  flow::FlowConfig flow_config_;
  sim::SimConfig packet_config_;
};

// --- verify_ftree ---------------------------------------------------------

/// ftree(8+64, 48) through the analysis layer only: the batched random
/// verifier and the delta hill-climb, on a 4-thread pool.
class VerifyFtree final : public Workload {
 public:
  static constexpr FtreeParams kParams{8, 64, 48};
  static constexpr std::uint64_t kRandomTrials = 40000;
  static constexpr AdversarialOptions kWorstCase{16, 500000};
  static constexpr AdversarialOptions kAdversarial{16, 500000};

  explicit VerifyFtree(std::uint64_t seed) : seed_(Seeds(seed).verifier) {}

  PassTotals pass(Context& cx, bool diagnostics) override {
    Scope whole(cx.spans, "bench.pass");
    PassTotals totals;
    Scope topology(cx.spans, "topology.build");
    const FoldedClos ftree(kParams);
    end_setup_step(cx, totals, topology, "topology.build_s");

    Scope routing(cx.spans, "routing.build");
    const YuanNonblockingRouting thm3(ftree);
    const DModKRouting dmodk(ftree);
    end_setup_step(cx, totals, routing, "routing.build_s");

    Scope construct(cx.spans, "analysis.pool.construct");
    ThreadPool pool(kParallelism);
    totals.setup_s += construct.stop();

    const auto calls = run_calls(cx, ftree, thm3, dmodk, pool, true);
    totals.run_s = calls.run_s;
    totals.work = calls.work;
    totals.wall_s = whole.stop();

    if (diagnostics) {
      ThreadPool single(1);
      const auto one = run_calls(cx, ftree, thm3, dmodk, single, false);
      for (std::size_t i = 0; i < kCalls.size(); ++i) {
        cx.metrics.add(std::string("analysis.") + kCalls[i] + ".thread_speedup",
                       "ratio", one.seconds[i] / calls.seconds[i]);
      }
    }
    return totals;
  }

 private:
  static constexpr std::array<const char*, 3> kCalls = {
      "random", "worst_case", "adversarial"};

  struct CallTotals {
    std::array<double, 3> seconds{};  ///< per call, in kCalls order
    double run_s = 0.0;
    double work = 0.0;  ///< permutations scored
  };

  /// The three verifier calls on `pool`.  The measured calls (`measured`)
  /// report metrics; the 1-thread reruns only their spans and times.
  CallTotals run_calls(Context& cx, const FoldedClos& ftree,
                       const YuanNonblockingRouting& thm3,
                       const DModKRouting& dmodk, ThreadPool& pool,
                       bool measured) {
    const auto name = [&](std::size_t call) {
      return std::string("analysis.") + kCalls[call] +
             (measured ? "" : ".threads1");
    };
    CallTotals totals;
    const auto finish = [&](std::size_t call, double secs, double work) {
      totals.seconds[call] = secs;
      totals.run_s += secs;
      totals.work += work;
      if (measured) {
        cx.metrics.add(std::string("analysis.") + kCalls[call] + ".run_s", "s",
                       secs);
      }
    };
    {
      Checks::Op op(cx.checks, name(0));
      Scope span(cx.spans, name(0));
      const auto result =
          verify_random_parallel(ftree, thm3, kRandomTrials, seed_, pool);
      const double secs = span.stop();
      op.expect(result.nonblocking, "Theorem 3 routing verified nonblocking");
      op.expect(result.permutations_checked == kRandomTrials,
                "every trial scored");
      const auto perms = static_cast<double>(result.permutations_checked);
      finish(0, secs, perms);
      if (measured) {
        cx.metrics.add("analysis.random.perms", "count", perms);
        cx.metrics.add("analysis.random.us_per_perm", "us", secs * 1e6 / perms);
        cx.metrics.add("verify_random_perms_per_s", "1/s", perms / secs);
      }
    }
    {
      Checks::Op op(cx.checks, name(1));
      Scope span(cx.spans, name(1));
      const auto result =
          worst_case_search_parallel(ftree, dmodk, kWorstCase, seed_, pool);
      const double secs = span.stop();
      // Lemma 1: d-mod-k collides.  Re-score the witness from scratch.
      LinkLoadMap recount(ftree);
      for (const auto sd : result.permutation) {
        recount.add_path(dmodk.route(sd));
      }
      op.expect(result.collisions > 0, "d-mod-k witness collides (Lemma 1)");
      op.expect(recount.colliding_pairs() == result.collisions,
                "witness recount == reported collisions");
      const auto evals = static_cast<double>(result.evaluations);
      finish(1, secs, evals);
      if (measured) {
        cx.metrics.add("analysis.worst_case.evals", "count", evals);
        cx.metrics.add("analysis.worst_case.ns_per_eval", "ns",
                       secs * 1e9 / evals);
        cx.metrics.add("worst_case_collisions", "count",
                       static_cast<double>(result.collisions));
      }
    }
    {
      Checks::Op op(cx.checks, name(2));
      Scope span(cx.spans, name(2));
      const auto result = verify_adversarial_parallel(ftree, thm3, kAdversarial,
                                                      seed_, pool);
      const double secs = span.stop();
      op.expect(result.nonblocking, "Theorem 3 routing survives the climb");
      const auto evals = static_cast<double>(result.permutations_checked);
      finish(2, secs, evals);
      if (measured) {
        cx.metrics.add("analysis.adversarial.evals", "count", evals);
        cx.metrics.add("analysis.adversarial.ns_per_eval", "ns",
                       secs * 1e9 / evals);
        cx.metrics.add("verify_adversarial_evals_per_s", "1/s", evals / secs);
      }
    }
    return totals;
  }

  std::uint64_t seed_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "flow_contended", "nonblocking_thm3", "verify_ftree"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "flow_contended") return std::make_unique<FlowContended>(seed);
  if (name == "nonblocking_thm3") {
    return std::make_unique<NonblockingThm3>(seed);
  }
  if (name == "verify_ftree") return std::make_unique<VerifyFtree>(seed);
  return nullptr;
}

}  // namespace perfbench
