#include "nbclos/sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/sim/injection_rng.hpp"

namespace nbclos::sim {

/// All mutable per-shard simulation state — one arena per worker, never
/// touched by any other thread.  Per-channel arrays are locally indexed
/// (plan.channel_local), and local ids ascend with global channel id, so
/// ascending sweeps over `flying`/`sendable` (local ids too) visit
/// channels in the same relative order as PacketSim's global scan.
struct ShardedSim::Shard {
  struct InFlight {
    Packet packet;
    std::uint64_t arrival_cycle = 0;
    bool valid = false;
  };

  std::uint32_t index = 0;
  std::uint32_t term_lo = 0;  ///< owned terminal range [term_lo, term_hi)
  std::uint32_t term_hi = 0;

  // Per owned channel, locally indexed.
  std::vector<InFlight> flight;
  std::vector<PacketRing> queues;
  std::vector<std::uint32_t> queue_depth;
  std::vector<std::uint8_t> dst_is_terminal;
  std::vector<std::uint8_t> is_terminal_source_queue;
  std::vector<std::uint32_t> channel_dst;
  std::vector<std::uint64_t> link_busy;  ///< flits transmitted per channel
  SweepList flying;
  SweepList sendable;

  std::optional<fault::DegradedView> degraded;
  std::size_t next_fault = 0;
  std::uint32_t numa_node = 0;  ///< node the worker ran (and touched) on
  std::uint8_t pinned = 0;

  // Phase scratch.
  std::vector<Proposal> local_props;  ///< proposals targeting this shard
  std::vector<Proposal> merged;       ///< ascending by proposing channel
  RoundRobinAdmission admission;      ///< per owned channel (local id)

  // Statistics, merged exactly after the run.
  std::uint64_t switch_depth_sum = 0;
  std::uint64_t switch_channel_count = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered_measured_flits = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  QuantileHistogram latency_hist;
  std::vector<std::uint64_t> delivered_per_source;  ///< all T terminals
  std::vector<std::uint64_t> flow_sequence;         ///< owned range only
  std::vector<std::uint64_t> depth_sum_by_cycle;    ///< per cycle, replayed
  std::uint64_t next_packet_id = 0;
  std::uint64_t link_busy_flits = 0;
  std::uint64_t cross_flits = 0;
  std::uint64_t mailbox_peak = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t barrier_samples = 0;

  explicit Shard(std::uint64_t latency_max) : latency_hist(latency_max) {}
};

ShardedSim::ShardedSim(const Network& net, const ShardRouter& router,
                       const TrafficPattern& traffic, SimConfig config,
                       std::uint32_t shards,
                       const fault::DegradedView* degraded,
                       std::vector<fault::FaultEvent> fault_events)
    : net_(&net), router_(&router), traffic_(&traffic), config_(config),
      fault_events_(std::move(fault_events)),
      packet_rate_(config.injection_rate /
                   static_cast<double>(config.packet_size)) {
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == &net,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  config.validate();
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  const auto terminal_vertices = net.terminals();
  terminal_count_ = static_cast<std::uint32_t>(terminal_vertices.size());
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_count_,
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    NBCLOS_REQUIRE(terminal_vertices[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  config_.counter_injection = true;  // the sharded engine's only mode
  degraded_ = degraded;

  plan_ = ShardPlan::build(net, shards);
  const std::uint32_t shard_count = plan_.shard_count;
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;

  // Shard objects carry only metadata here; the heavy arena vectors are
  // allocated (and thus first-touched) inside each worker thread in
  // run_shard, so with pinning enabled every arena's pages land on the
  // worker's own NUMA node.
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(total);
    shard->index = s;
    shard->term_lo = std::min(plan_.vertex_begin[s], terminal_count_);
    shard->term_hi = std::min(plan_.vertex_begin[s + 1], terminal_count_);
    shards_.push_back(std::move(shard));
  }

  proposal_box_ = MailboxGrid<Proposal>(shard_count);
  ack_box_ = MailboxGrid<Ack>(shard_count);
  sync_ =
      std::make_unique<ShardSync>(static_cast<std::ptrdiff_t>(shard_count));
  numa_ = NumaTopology::detect();
  if constexpr (obs::kEnabled) arm_recorder();
}

void ShardedSim::arm_recorder() {
  if (!config_.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config_.record_cadence;
  rec.ring_capacity = config_.record_ring_capacity;
  rec.shards = plan_.shard_count;
  recorder_.configure(rec);
  // Same names, cadence, and capacity as the serial PacketSim recorder,
  // so after the per-shard sum these kInvariant series are bit-identical
  // to a serial recording of the same run at any shard count.
  rec_queue_depth_ =
      recorder_.series("sim.queue.depth_sum", obs::SeriesAgg::kSum);
  rec_active_flying_ =
      recorder_.series("sim.active.flying", obs::SeriesAgg::kSum);
  rec_active_sendable_ =
      recorder_.series("sim.active.sendable", obs::SeriesAgg::kSum);
  rec_busy_flits_ =
      recorder_.series("sim.link.busy_flits", obs::SeriesAgg::kSum);
  rec_injected_ =
      recorder_.series("sim.packets.injected", obs::SeriesAgg::kSum);
  rec_delivered_ =
      recorder_.series("sim.packets.delivered", obs::SeriesAgg::kSum);
  // Cross-shard fabric health: only meaningful relative to the shard
  // cut, so excluded from the shard-count-invariance contract.
  rec_mailbox_flits_ =
      recorder_.series("sim.mailbox.cross_flits", obs::SeriesAgg::kSum,
                       obs::SeriesScope::kShardTopology);
  rec_mailbox_peak_ =
      recorder_.series("sim.mailbox.peak", obs::SeriesAgg::kMax,
                       obs::SeriesScope::kShardTopology);
}

void ShardedSim::sample_recorder(Shard& sh, std::uint64_t now) {
  const std::uint32_t slot = sh.index;
  recorder_.record(rec_queue_depth_, slot, now,
                   static_cast<std::int64_t>(sh.switch_depth_sum));
  recorder_.record(rec_active_flying_, slot, now,
                   static_cast<std::int64_t>(sh.flying.size()));
  recorder_.record(rec_active_sendable_, slot, now,
                   static_cast<std::int64_t>(sh.sendable.size()));
  recorder_.record(rec_busy_flits_, slot, now,
                   static_cast<std::int64_t>(sh.link_busy_flits));
  recorder_.record(rec_injected_, slot, now,
                   static_cast<std::int64_t>(sh.injected));
  recorder_.record(rec_delivered_, slot, now,
                   static_cast<std::int64_t>(sh.delivered_packets));
  recorder_.record(rec_mailbox_flits_, slot, now,
                   static_cast<std::int64_t>(sh.cross_flits));
  recorder_.record(rec_mailbox_peak_, slot, now,
                   static_cast<std::int64_t>(sh.mailbox_peak));
}

void ShardedSim::init_shard_arena(std::uint32_t s) {
  Shard& sh = *shards_[s];
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  const auto& owned = plan_.shard_channels[s];
  const auto count = static_cast<std::uint32_t>(owned.size());
  sh.flight.resize(count);
  sh.queues.reserve(count);
  sh.queue_depth.assign(count, 0);
  sh.dst_is_terminal.assign(count, 0);
  sh.is_terminal_source_queue.assign(count, 0);
  sh.channel_dst.assign(count, 0);
  sh.link_busy.assign(count, 0);
  for (std::uint32_t li = 0; li < count; ++li) {
    const auto c = owned[li];
    const auto dst = net_->channel_dst(c);
    sh.channel_dst[li] = dst;
    sh.dst_is_terminal[li] = net_->vertex(dst).kind == VertexKind::kTerminal;
    sh.is_terminal_source_queue[li] =
        net_->vertex(net_->channel_src(c)).kind == VertexKind::kTerminal;
    sh.queues.emplace_back(sh.is_terminal_source_queue[li]
                               ? PacketRing::kUncapped
                               : config_.queue_capacity);
    if (!sh.is_terminal_source_queue[li]) ++sh.switch_channel_count;
  }
  sh.flying.reset(count);
  sh.sendable.reset(count);
  sh.admission = RoundRobinAdmission(count);
  sh.delivered_per_source.assign(terminal_count_, 0);
  sh.flow_sequence.assign(sh.term_hi - sh.term_lo, 0);
  sh.depth_sum_by_cycle.assign(total, 0);
  if (degraded_ != nullptr) sh.degraded.emplace(*degraded_);
}

ShardedSim::~ShardedSim() = default;

bool ShardedSim::channel_usable(const Shard& sh, std::uint32_t channel) const {
  return !sh.degraded.has_value() || sh.degraded->channel_alive(channel);
}

void ShardedSim::queue_push(Shard& sh, std::uint32_t channel,
                            const Packet& packet) {
  const auto li = plan_.channel_local[channel];
  sh.queues[li].push(packet);
  if (!sh.is_terminal_source_queue[li]) {
    ++sh.queue_depth[li];
    ++sh.switch_depth_sum;
  }
  sh.sendable.push(li);
}

Packet ShardedSim::queue_pop(Shard& sh, std::uint32_t channel) {
  const auto li = plan_.channel_local[channel];
  if (!sh.is_terminal_source_queue[li]) {
    --sh.queue_depth[li];
    --sh.switch_depth_sum;
  }
  return sh.queues[li].pop();
}

void ShardedSim::deliver(Shard& sh, const Packet& packet, std::uint64_t now,
                         bool measuring) {
  ++sh.delivered_packets;
  if (!measuring) return;
  sh.delivered_measured_flits += packet.size_flits;
  sh.delivered_per_source[packet.src_terminal] += packet.size_flits;
  if (packet.injected_cycle >= config_.warmup_cycles) {
    const std::uint64_t latency = now - packet.injected_cycle;
    sh.latency_sum += latency;
    ++sh.latency_count;
    sh.latency_hist.add(latency);
  }
}

void ShardedSim::cycle_faults(Shard& sh, std::uint64_t now) {
  bool applied = false;
  while (sh.next_fault < fault_events_.size() &&
         fault_events_[sh.next_fault].cycle <= now) {
    sh.degraded->apply(fault_events_[sh.next_fault]);
    ++sh.next_fault;
    applied = true;
  }
  if (!applied) return;
  const auto& owned = plan_.shard_channels[sh.index];
  for (const auto li : sh.flying) {
    if (sh.flight[li].valid && !sh.degraded->channel_alive(owned[li])) {
      ++sh.dropped;
      sh.flight[li].valid = false;
    }
  }
  for (const auto li : sh.sendable) {
    if (sh.queues[li].size() > 0 && !sh.degraded->channel_alive(owned[li])) {
      sh.dropped += sh.queues[li].size();
      sh.queues[li].clear();
      sh.switch_depth_sum -= sh.queue_depth[li];  // 0 for a NIC queue
      sh.queue_depth[li] = 0;
    }
  }
}

void ShardedSim::phase_propose(Shard& sh, std::uint64_t now, bool measuring) {
  // The ascending sweep writes every proposal box ascending by `from`.
  const auto& owned = plan_.shard_channels[sh.index];
  sh.flying.sweep([&](std::uint32_t li) {
    auto& fl = sh.flight[li];
    if (!fl.valid) return false;  // purged by a fault since the last sweep
    if (fl.arrival_cycle > now) return true;
    if (sh.dst_is_terminal[li]) {
      NBCLOS_ASSERT(sh.channel_dst[li] == fl.packet.dst_terminal);
      deliver(sh, fl.packet, now, measuring);
      fl.valid = false;
      return false;
    }
    const std::uint32_t at = sh.channel_dst[li];
    const auto next = router_->next_channel(at, fl.packet);
    if (next == fault::kNoRoute || !channel_usable(sh, next)) {
      ++sh.dropped;
      fl.valid = false;
      return false;
    }
    NBCLOS_ASSERT(net_->channel_src(next) == at);
    // Propose admission to the owner of the chosen channel.  The
    // candidate leaves the list with a valid flight; the ack in phase C
    // either clears the flight (winner) or re-appends the channel
    // (loser — backpressure, exactly PacketSim).
    const Proposal proposal{next, owned[li], fl.packet};
    const auto owner = plan_.channel_owner[next];
    if (owner == sh.index) {
      sh.local_props.push_back(proposal);
    } else {
      proposal_box_.box(sh.index, owner).push_back(proposal);
      sh.cross_flits += fl.packet.size_flits;
    }
    return false;
  });
}

void ShardedSim::send_ack(Shard& sh, std::uint32_t from, bool accepted) {
  const auto owner = plan_.channel_owner[from];
  if (owner == sh.index) {
    const auto li = plan_.channel_local[from];
    if (accepted) {
      sh.flight[li].valid = false;
    } else {
      sh.flying.push(li);
    }
  } else {
    ack_box_.box(sh.index, owner).push_back(Ack{from, accepted});
  }
}

void ShardedSim::phase_admit(Shard& sh) {
  // Merge this cycle's proposals (local + one mailbox per peer, each run
  // ascending by proposing channel) and offer them in that order, as
  // PacketSim's ascending scan does; the round-robin admission is then
  // verbatim PacketSim's.
  auto& merged = sh.merged;
  proposal_box_.drain_merged_to(
      sh.index, sh.local_props, merged, sh.mailbox_peak,
      [](const Proposal& a, const Proposal& b) { return a.from < b.from; });
  for (std::uint32_t k = 0; k < merged.size(); ++k) {
    sh.admission.offer(plan_.channel_local[merged[k].target], merged[k].from,
                       k);
  }
  const auto& owned = plan_.shard_channels[sh.index];
  sh.admission.settle(
      [&](std::uint32_t li) {
        return sh.queue_depth[li] < config_.queue_capacity;
      },
      [&](std::uint32_t li, std::uint32_t k) {
        queue_push(sh, owned[li], merged[k].packet);
        send_ack(sh, merged[k].from, true);
      },
      [&](std::uint32_t, std::uint32_t k) {
        send_ack(sh, merged[k].from, false);
      });
}

void ShardedSim::phase_resolve(Shard& sh, std::uint64_t now) {
  // Acks first: an accepted candidate frees its channel, which may load
  // a new packet in this cycle's transmissions (as in PacketSim, where
  // step_arrivals completes before step_transmissions).
  ack_box_.drain_to(sh.index, [&](std::uint32_t,
                                  const std::vector<Ack>& box) {
    for (const Ack& ack : box) {
      const auto li = plan_.channel_local[ack.from];
      if (ack.accepted) {
        sh.flight[li].valid = false;
      } else {
        sh.flying.push(li);
      }
    }
  });

  // Transmissions (PacketSim::step_transmissions over owned channels).
  const auto& owned = plan_.shard_channels[sh.index];
  sh.sendable.sweep([&](std::uint32_t li) {
    if (sh.queues[li].size() == 0) return false;
    const std::uint32_t c = owned[li];
    auto& fl = sh.flight[li];
    if (!fl.valid && channel_usable(sh, c)) {
      fl.packet = queue_pop(sh, c);
      fl.valid = true;
      fl.arrival_cycle = now + fl.packet.size_flits;
      sh.link_busy_flits += fl.packet.size_flits;
      sh.link_busy[li] += fl.packet.size_flits;
      sh.flying.push(li);
    }
    return sh.queues[li].size() != 0;
  });

  // Injection over the owned terminal range with the counter-based RNG:
  // every draw is a pure function of (seed, cycle, terminal), so the
  // stream is independent of which shard evaluates which terminal.
  for (std::uint32_t t = sh.term_lo; t < sh.term_hi; ++t) {
    SplitMix64 sm(injection_counter_state(config_.seed, now, t));
    if (!injection_bernoulli(sm, packet_rate_)) continue;
    Xoshiro256 dest_rng(sm.next());
    const auto dst = traffic_->destination(t, dest_rng);
    if (!dst.has_value()) continue;
    Packet packet;
    packet.id = sh.next_packet_id++;
    packet.src_terminal = t;
    packet.dst_terminal = *dst;
    packet.size_flits = config_.packet_size;
    packet.injected_cycle = now;
    packet.flow_sequence = sh.flow_sequence[t - sh.term_lo]++;
    const auto channel = router_->next_channel(t, packet);
    ++sh.injected;
    if (channel == fault::kNoRoute || !channel_usable(sh, channel)) {
      ++sh.dropped;
      continue;
    }
    // A terminal's uplink departs from the terminal vertex, so the queue
    // is always shard-local.
    NBCLOS_ASSERT(plan_.channel_owner[channel] == sh.index);
    queue_push(sh, channel, packet);
  }
}

void ShardedSim::run_shard(std::uint32_t s) {
  try {
    Shard& sh = *shards_[s];
    if (config_.pin_shards && !numa_.pin_order.empty()) {
      sh.pinned =
          pin_current_thread(numa_.pin_order[s % numa_.pin_order.size()])
              ? 1
              : 0;
    }
    // First-touch: the arena vectors are allocated here, on the worker's
    // own thread (after pinning), so their pages land on this node.
    init_shard_arena(s);
    sh.numa_node = current_numa_node(numa_);
    const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
    for (std::uint64_t now = 0; now < total; ++now) {
      if (sync_->poisoned()) {
        sync_->barrier.arrive_and_drop();
        return;
      }
      const bool measuring = now >= config_.warmup_cycles;
      if (sh.degraded.has_value()) cycle_faults(sh, now);
      bool timed = false;
      if constexpr (obs::kEnabled) {
        timed = (now & 63u) == 0 && obs::enabled();
      }
      phase_propose(sh, now, measuring);
      if (timed) {
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        sync_->barrier.arrive_and_wait();
        const auto t1 = clock::now();
        phase_admit(sh);
        const auto t2 = clock::now();
        sync_->barrier.arrive_and_wait();
        const auto t3 = clock::now();
        sh.barrier_wait_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                (t1 - t0) + (t3 - t2))
                .count());
        ++sh.barrier_samples;
      } else {
        sync_->barrier.arrive_and_wait();
        phase_admit(sh);
        sync_->barrier.arrive_and_wait();
      }
      phase_resolve(sh, now);
      sh.depth_sum_by_cycle[now] = sh.switch_depth_sum;
      if constexpr (obs::kEnabled) {
        if (recorder_.want(now)) sample_recorder(sh, now);
      }
    }
  } catch (...) {
    sync_->record_failure();
  }
}

SimResult ShardedSim::run() {
  NBCLOS_REQUIRE(!ran_, "ShardedSim::run may only be called once");
  ran_ = true;
  obs::ScopedSpan span("sim.sharded.run", "sim");
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(plan_.shard_count);
  for (std::uint32_t s = 1; s < plan_.shard_count; ++s) {
    workers.emplace_back([this, s] { run_shard(s); });
  }
  // With pinning, shard 0 gets its own thread too — running it inline
  // would permanently re-pin the caller's thread.
  if (config_.pin_shards) {
    workers.emplace_back([this] { run_shard(0); });
  } else {
    run_shard(0);
  }
  for (auto& worker : workers) worker.join();
  sync_->rethrow_if_failed();

  SimResult result = merge_results();
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(config_.warmup_cycles +
                                           config_.measure_cycles));
    span.arg("shards", static_cast<double>(plan_.shard_count));
    span.arg("rate", config_.injection_rate);
  }
  return result;
}

SimResult ShardedSim::merge_results() {
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  SimResult result;
  result.offered_load = config_.injection_rate;

  std::uint64_t delivered_measured_flits = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t switch_channels = 0;
  QuantileHistogram hist(total);
  telemetry_ = Telemetry{};
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    result.injected_packets += sh.injected;
    result.delivered_packets += sh.delivered_packets;
    result.dropped_packets += sh.dropped;
    delivered_measured_flits += sh.delivered_measured_flits;
    latency_sum += sh.latency_sum;
    latency_count += sh.latency_count;
    switch_channels += sh.switch_channel_count;
    hist.merge(sh.latency_hist);
    telemetry_.cross_shard_flits += sh.cross_flits;
    telemetry_.mailbox_peak =
        std::max(telemetry_.mailbox_peak, sh.mailbox_peak);
    for (const auto& fl : sh.flight) {
      if (fl.valid) ++telemetry_.remaining_packets;
    }
    for (const auto& q : sh.queues) telemetry_.remaining_packets += q.size();
  }
  merged_link_busy_.assign(net_->channel_count(), 0);
  for (std::uint32_t c = 0; c < net_->channel_count(); ++c) {
    const Shard& owner = *shards_[plan_.channel_owner[c]];
    merged_link_busy_[c] = owner.link_busy[plan_.channel_local[c]];
  }

  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminal_count_));
  // Exact integer mean — the same arithmetic PacketSim uses in
  // counter-injection mode, and independent of delivery order.
  result.mean_latency =
      latency_count > 0
          ? static_cast<double>(latency_sum) / static_cast<double>(latency_count)
          : 0.0;
  result.latency_bucket_width = static_cast<double>(hist.bucket_width());
  if (hist.count() > 0) {
    result.p50_latency = hist.quantile(0.50);
    result.p99_latency = hist.quantile(0.99);
    result.p999_latency = hist.quantile(0.999);
  }

  // Mean switch-queue depth: replay the per-cycle global depth sums in
  // cycle order through the same Welford accumulator PacketSim streams,
  // so the result is bit-identical at any shard count.
  RunningStats depth_samples;
  if (switch_channels > 0) {
    for (std::uint64_t cycle = config_.warmup_cycles; cycle < total; ++cycle) {
      std::uint64_t sum = 0;
      for (const auto& shard : shards_) {
        sum += shard->depth_sum_by_cycle[cycle];
      }
      depth_samples.add(static_cast<double>(sum) /
                        static_cast<double>(switch_channels));
    }
  }
  result.mean_switch_queue_depth = depth_samples.mean();

  // Fairness extremes over sources that injected anything, in ascending
  // terminal order (PacketSim's loop).  flow_sequence lives with the
  // injecting shard; deliveries are summed across all shards.
  bool first_flow = true;
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    const Shard& owner = *shards_[plan_.shard_of_vertex(t)];
    if (owner.flow_sequence[t - owner.term_lo] == 0) continue;
    std::uint64_t delivered_flits = 0;
    for (const auto& shard : shards_) {
      delivered_flits += shard->delivered_per_source[t];
    }
    const double rate = static_cast<double>(delivered_flits) /
                        static_cast<double>(config_.measure_cycles);
    if (first_flow) {
      result.min_flow_throughput = rate;
      result.max_flow_throughput = rate;
      first_flow = false;
    } else {
      result.min_flow_throughput = std::min(result.min_flow_throughput, rate);
      result.max_flow_throughput = std::max(result.max_flow_throughput, rate);
    }
  }
  return result;
}

std::size_t ShardedSim::arena_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    for (const auto& ring : sh.queues) {
      bytes += std::size_t{ring.capacity()} * sizeof(Packet);
    }
    bytes += sh.queues.capacity() * sizeof(PacketRing);
    bytes += sh.flight.capacity() * sizeof(Shard::InFlight);
    bytes += (sh.queue_depth.capacity() + sh.channel_dst.capacity()) *
                 sizeof(std::uint32_t) +
             sh.admission.bytes() + sh.flying.bytes() + sh.sendable.bytes();
    bytes += sh.dst_is_terminal.capacity() +
             sh.is_terminal_source_queue.capacity();
    bytes += (sh.link_busy.capacity() + sh.delivered_per_source.capacity() +
              sh.flow_sequence.capacity() +
              sh.depth_sum_by_cycle.capacity()) *
             sizeof(std::uint64_t);
  }
  return bytes;
}

void ShardedSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("sim.sharded.runs").add(1);
  m.gauge("sim.sharded.shards").set(plan_.shard_count);
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t busy = 0;
  for (const auto& shard : shards_) {
    injected += shard->injected;
    delivered += shard->delivered_packets;
    dropped += shard->dropped;
    busy += shard->link_busy_flits;
  }
  m.counter("sim.packets.injected").add(injected);
  m.counter("sim.packets.delivered").add(delivered);
  m.counter("sim.packets.dropped").add(dropped);
  m.counter("sim.link.busy_flit_cycles").add(busy);
  m.counter("sim.sharded.cross_shard_flits")
      .add(telemetry_.cross_shard_flits);
  m.gauge("sim.sharded.mailbox_peak")
      .set(static_cast<std::int64_t>(telemetry_.mailbox_peak));
  // Per-shard arena occupancy: queued packets left at end of run plus
  // the arena footprint, one gauge pair per shard.
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    m.gauge("sim.sharded.shard." + std::to_string(sh.index) + ".depth_sum")
        .set(static_cast<std::int64_t>(sh.switch_depth_sum));
    // Arena node residency: with pinning + first-touch this is the node
    // the shard's arena pages live on.
    m.gauge("sim.sharded.shard." + std::to_string(sh.index) + ".numa_node")
        .set(static_cast<std::int64_t>(sh.numa_node));
    // Sampled epoch-barrier wait: mean ns per sampled cycle, per shard.
    if (sh.barrier_samples > 0) {
      m.histogram("sim.sharded.barrier_wait_ns", 1'000'000)
          .record(sh.barrier_wait_ns / sh.barrier_samples);
    }
  }
  m.counter("sim.wall_us")
      .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

std::vector<SimResult> load_sweep_sharded(
    const Network& net, const ShardRouter& router,
    const TrafficPattern& traffic, const SimConfig& base,
    const std::vector<double>& rates, std::uint32_t shards,
    const fault::DegradedView* degraded,
    const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::vector<SimResult> results;
  results.reserve(rates.size());
  for (const double rate : rates) {
    SimConfig config = base;
    config.injection_rate = rate;
    ShardedSim sim(net, router, traffic, config, shards, degraded,
                   fault_events);
    results.push_back(sim.run());
  }
  return results;
}

}  // namespace nbclos::sim
