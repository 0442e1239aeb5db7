#include "nbclos/sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/sim/injection_rng.hpp"

namespace nbclos::sim {

namespace {

/// Per-run oracle seed for (sweep seed, phase tag, run index) —
/// decorrelated via SplitMix64 so neighboring runs share no stream
/// structure (same discipline as analysis::parallel / fault::sweep).
std::uint64_t sweep_run_seed(std::uint64_t seed, std::uint64_t tag,
                             std::uint64_t index) {
  SplitMix64 sm(seed ^ (tag << 32) ^ index);
  return sm.next();
}

}  // namespace

void SimConfig::validate() const {
  NBCLOS_REQUIRE(injection_rate >= 0.0 && injection_rate <= 1.0,
                 "injection rate must be in [0, 1] flits/cycle");
  NBCLOS_REQUIRE(packet_size >= 1, "packets need at least one flit");
  NBCLOS_REQUIRE(queue_capacity >= 1, "queue_capacity must be at least 1");
  NBCLOS_REQUIRE(queue_capacity <= (std::uint32_t{1} << 31),
                 "queue_capacity must be at most 2^31 packets");
}

PacketSim::PacketSim(const Network& net, RoutingOracle& oracle,
                     const TrafficPattern& traffic, SimConfig config,
                     fault::DegradedView* degraded,
                     std::vector<fault::FaultEvent> fault_events)
    : net_(&net), oracle_(&oracle), traffic_(&traffic), config_(config),
      degraded_(degraded), fault_events_(std::move(fault_events)),
      flight_(net.channel_count()),
      queue_depth_(net.channel_count(), 0),
      channel_dst_(net.channel_count(), 0),
      dst_is_terminal_(net.channel_count(), 0),
      is_terminal_source_queue_(net.channel_count(), 0),
      rng_(config.seed),
      packet_rate_(config.injection_rate /
                   static_cast<double>(config.packet_size)),
      view_(net, queue_depth_),
      latency_hist_(config.warmup_cycles + config.measure_cycles) {
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(degraded_ == nullptr || &degraded_->network() == &net,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || degraded_ != nullptr,
                 "fault events need a degraded view to apply to");
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  config.validate();
  terminal_vertices_ = net.terminals();
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_vertices_.size(),
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_vertices_.size(); ++t) {
    NBCLOS_REQUIRE(terminal_vertices_[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  flow_sequence_.assign(terminal_vertices_.size(), 0);
  delivered_per_source_.assign(terminal_vertices_.size(), 0);
  admission_ = RoundRobinAdmission(net.channel_count());
  // A channel whose source vertex is a terminal is that terminal's NIC
  // send queue: unbounded, so offered load is never silently dropped.
  queues_.reserve(net.channel_count());
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    const auto& ch = net.channel(c);
    channel_dst_[c] = ch.dst;
    dst_is_terminal_[c] = net.vertex(ch.dst).kind == VertexKind::kTerminal;
    is_terminal_source_queue_[c] =
        net.vertex(ch.src).kind == VertexKind::kTerminal;
    queues_.emplace_back(is_terminal_source_queue_[c] ? PacketRing::kUncapped
                                                      : config.queue_capacity);
    if (!is_terminal_source_queue_[c]) ++switch_channel_count_;
  }
  flying_.reset(net.channel_count());
  sendable_.reset(net.channel_count());
  link_busy_flits_.assign(net.channel_count(), 0);
  if constexpr (obs::kEnabled) {
    busy_counter_ = &obs::metrics().counter("sim.link.busy_flit_cycles");
    arm_recorder();
  }
}

void PacketSim::arm_recorder() {
  if (!config_.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config_.record_cadence;
  rec.ring_capacity = config_.record_ring_capacity;
  rec.shards = 1;
  recorder_.configure(rec);
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
}

void PacketSim::sample_recorder() {
  recorder_.record(rec_queue_depth_, 0, now_,
                   static_cast<std::int64_t>(switch_depth_sum_));
  recorder_.record(rec_active_flying_, 0, now_,
                   static_cast<std::int64_t>(flying_.size()));
  recorder_.record(rec_active_sendable_, 0, now_,
                   static_cast<std::int64_t>(sendable_.size()));
  recorder_.record(rec_busy_flits_, 0, now_,
                   static_cast<std::int64_t>(busy_flit_total_));
  recorder_.record(rec_injected_, 0, now_,
                   static_cast<std::int64_t>(injected_));
  recorder_.record(rec_delivered_, 0, now_,
                   static_cast<std::int64_t>(delivered_packets_));
}

void PacketSim::queue_push(std::uint32_t channel, const Packet& packet) {
  queues_[channel].push(packet);
  if (!is_terminal_source_queue_[channel]) {
    ++queue_depth_[channel];
    ++switch_depth_sum_;
  }
  sendable_.push(channel);
}

Packet PacketSim::queue_pop(std::uint32_t channel) {
  if (!is_terminal_source_queue_[channel]) {
    --queue_depth_[channel];
    --switch_depth_sum_;
  }
  return queues_[channel].pop();
}

void PacketSim::deliver(const Packet& packet) {
  ++delivered_packets_;
  if (!measuring_) return;
  // Throughput counts every delivery inside the measurement window —
  // at saturation the window mostly drains warmup backlog, and filtering
  // it out would underestimate the sustainable rate.
  delivered_measured_flits_ += packet.size_flits;
  // Terminal vertex ids equal their index in terminal_vertices_ for
  // every builder in this library (terminals are added first).
  delivered_per_source_[packet.src_terminal] += packet.size_flits;
  // Latency, by contrast, is only meaningful for packets that both
  // entered and left within measured, warmed-up conditions.
  if (packet.injected_cycle >= config_.warmup_cycles) {
    const std::uint64_t latency = now_ - packet.injected_cycle;
    latency_.add(static_cast<double>(latency));
    latency_sum_ += latency;
    ++latency_count_;
    latency_hist_.add(latency);
  }
}

void PacketSim::apply_due_faults() {
  bool applied = false;
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].cycle <= now_) {
    degraded_->apply(fault_events_[next_fault_]);
    ++next_fault_;
    applied = true;
  }
  if (!applied) return;
  // Purge packets stranded on channels that just died (a recovered channel
  // simply starts accepting traffic again; nothing to purge).  Every
  // in-flight packet sits on a channel in flying_ and every queued packet
  // on one in sendable_, so the purge only touches active channels; the
  // invalidated entries are compacted out at the next sweep.
  for (const auto c : flying_) {
    if (flight_[c].valid && !degraded_->channel_alive(c)) {
      ++dropped_packets_;
      flight_[c].valid = false;
    }
  }
  for (const auto c : sendable_) {
    if (queues_[c].size() > 0 && !degraded_->channel_alive(c)) {
      dropped_packets_ += queues_[c].size();
      queues_[c].clear();
      switch_depth_sum_ -= queue_depth_[c];  // 0 for a NIC queue
      queue_depth_[c] = 0;
    }
  }
}

void PacketSim::step_arrivals() {
  // Two-phase arrival: the sweep offers every head packet that wants a
  // switch queue to that queue, then the queues admit their candidates
  // round-robin (RoundRobinAdmission).  The sweep visits channels in
  // ascending id order (the entries the other steps appended are merged
  // in), so oracles are consulted in the same order as a full channel
  // scan — required for bit-reproducibility.
  flying_.sweep([&](std::uint32_t c) {
    auto& fl = flight_[c];
    if (!fl.valid) return false;  // purged by a fault since the last sweep
    if (fl.arrival_cycle > now_) return true;
    if (dst_is_terminal_[c]) {
      NBCLOS_ASSERT(channel_dst_[c] == fl.packet.dst_terminal);
      deliver(fl.packet);
      fl.valid = false;
      return false;
    }
    // Route at the switch; the oracle is re-consulted on every retry,
    // so adaptive policies can steer around persistent congestion.
    const std::uint32_t at = channel_dst_[c];
    ++oracle_calls_;
    const auto next = oracle_->next_channel(view_, at, fl.packet);
    if (next == fault::kNoRoute || !channel_usable(next)) {
      // No live route (fault-aware oracle) or a fault-oblivious oracle
      // picked a dead channel: the packet is lost.
      ++dropped_packets_;
      fl.valid = false;
      return false;
    }
    NBCLOS_ASSERT(net_->channel(next).src == at);
    // Candidates leave the list; the losers are re-appended below.
    admission_.offer(next, c, c);
    return false;
  });
  // Losers stall on their channels (backpressure).
  admission_.settle(
      [&](std::uint32_t target) {
        return queue_depth_[target] < config_.queue_capacity;
      },
      [&](std::uint32_t target, std::uint32_t c) {
        queue_push(target, flight_[c].packet);
        flight_[c].valid = false;
      },
      [&](std::uint32_t, std::uint32_t c) { flying_.push(c); });
}

void PacketSim::step_transmissions() {
  sendable_.sweep([&](std::uint32_t c) {
    // Drained or fault-purged since the last sweep: leave the list.
    if (queues_[c].size() == 0) return false;
    auto& fl = flight_[c];
    if (!fl.valid && channel_usable(c)) {  // dead channels do not transmit
      fl.packet = queue_pop(c);
      fl.valid = true;
      fl.arrival_cycle = now_ + fl.packet.size_flits;
      // The channel is now busy for size_flits cycles — the whole-run sum
      // is the per-link utilization report (link_utilization()); the
      // running total feeds the mid-run counter flush and the
      // `sim.link.busy_flits` recorder series.
      link_busy_flits_[c] += fl.packet.size_flits;
      busy_flit_total_ += fl.packet.size_flits;
      flying_.push(c);
    }
    return queues_[c].size() != 0;
  });
}

void PacketSim::step_injection() {
  // Legacy mode draws from the sequential rng_ (one bernoulli, then one
  // destination draw, terminals ascending).  Counter mode
  // (SimConfig::counter_injection) never touches rng_: each terminal's
  // draws come from a generator keyed purely by (seed, cycle, terminal) —
  // the identical stream ShardedSim's workers produce, whichever shard
  // owns `t`.
  for (std::uint32_t t = 0; t < terminal_vertices_.size(); ++t) {
    std::optional<std::uint32_t> dst;
    if (config_.counter_injection) {
      SplitMix64 sm(injection_counter_state(config_.seed, now_, t));
      if (!injection_bernoulli(sm, packet_rate_)) continue;
      Xoshiro256 dest_rng(sm.next());
      dst = traffic_->destination(t, dest_rng);
    } else {
      if (!rng_.bernoulli(packet_rate_)) continue;
      dst = traffic_->destination(t, rng_);
    }
    if (!dst.has_value()) continue;
    Packet packet;
    packet.id = next_packet_id_++;
    packet.src_terminal = terminal_vertices_[t];
    packet.dst_terminal = terminal_vertices_[*dst];
    packet.size_flits = config_.packet_size;
    packet.injected_cycle = now_;
    packet.flow_sequence = flow_sequence_[t]++;
    ++oracle_calls_;
    const auto channel =
        oracle_->next_channel(view_, terminal_vertices_[t], packet);
    ++injected_;
    if (channel == fault::kNoRoute || !channel_usable(channel)) {
      // Offered but lost: the terminal's uplink is dead.
      ++dropped_packets_;
      continue;
    }
    // Terminal source queues are unbounded: depth is not tracked against
    // capacity, matching an infinite NIC send queue.
    queue_push(channel, packet);
  }
}

SimResult PacketSim::run() {
  obs::ScopedSpan span("sim.run", "sim");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  for (now_ = 0; now_ < total; ++now_) {
    measuring_ = now_ >= config_.warmup_cycles;
    if (degraded_ != nullptr) apply_due_faults();
    // Sampled per-phase timing: every 64th cycle when obs is on.  The
    // clock reads never touch simulation state, so the timed and untimed
    // paths produce bit-identical results.
    bool timed = false;
    if constexpr (obs::kEnabled) {
      timed = (now_ & 63u) == 0 && obs::enabled();
    }
    if (timed) {
      using clock = std::chrono::steady_clock;
      const auto ns = [](clock::duration d) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
      };
      const auto t0 = clock::now();
      step_arrivals();
      const auto t1 = clock::now();
      step_transmissions();
      const auto t2 = clock::now();
      step_injection();
      const auto t3 = clock::now();
      phase_ns_[0] += ns(t1 - t0);
      phase_ns_[1] += ns(t2 - t1);
      phase_ns_[2] += ns(t3 - t2);
      ++phase_samples_;
    } else {
      step_arrivals();
      step_transmissions();
      step_injection();
    }
    if constexpr (obs::kEnabled) {
      active_flying_sum_ += flying_.size();
      active_sendable_sum_ += sendable_.size();
      // Exact mid-run busy-flit totals: flush the running sum into the
      // registry counter on the same 64-cycle cadence as the phase
      // timers, so a concurrent snapshot (metrics-serve) is never a full
      // run stale.
      if ((now_ & 63u) == 0 && obs::enabled()) flush_busy_flits();
      if (recorder_.want(now_)) sample_recorder();
    }
    if (measuring_ && switch_channel_count_ > 0) {
      // Sample switch queue depths (terminal source queues excluded);
      // the sum is maintained incrementally by queue_push/pop/clear.
      queue_depth_samples_.add(static_cast<double>(switch_depth_sum_) /
                               static_cast<double>(switch_channel_count_));
    }
  }

  SimResult result;
  result.offered_load = config_.injection_rate;
  result.injected_packets = injected_;
  result.delivered_packets = delivered_packets_;
  result.dropped_packets = dropped_packets_;
  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits_) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminal_vertices_.size()));
  // Under counter injection the mean comes from the exact integer sums —
  // the order-independent arithmetic ShardedSim merges with, so the two
  // engines agree bit-for-bit.  The legacy Welford mean is part of the
  // recorded golden results and stays the default.
  result.mean_latency =
      config_.counter_injection
          ? (latency_count_ > 0 ? static_cast<double>(latency_sum_) /
                                      static_cast<double>(latency_count_)
                                : 0.0)
          : latency_.mean();
  result.latency_bucket_width =
      static_cast<double>(latency_hist_.bucket_width());
  if (latency_hist_.count() > 0) {
    result.p50_latency = latency_hist_.quantile(0.50);
    result.p99_latency = latency_hist_.quantile(0.99);
    result.p999_latency = latency_hist_.quantile(0.999);
  }
  result.mean_switch_queue_depth = queue_depth_samples_.mean();
  // Fairness extremes over sources that injected anything.
  bool first_flow = true;
  for (std::uint32_t t = 0; t < terminal_vertices_.size(); ++t) {
    if (flow_sequence_[t] == 0) continue;
    const double rate = static_cast<double>(delivered_per_source_[t]) /
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
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(total));
    span.arg("delivered", static_cast<double>(delivered_packets_));
    span.arg("rate", config_.injection_rate);
  }
  return result;
}

LinkUtilization PacketSim::link_utilization() const {
  LinkUtilization report;
  const std::uint64_t cycles = config_.warmup_cycles + config_.measure_cycles;
  report.busy_fraction.resize(link_busy_flits_.size(), 0.0);
  if (cycles == 0) return report;
  double sum = 0.0;
  for (std::size_t c = 0; c < link_busy_flits_.size(); ++c) {
    // A packet transmitting across the run boundary counts its full
    // length, so clamp: a link is never more than 100% busy.
    const double frac =
        std::min(1.0, static_cast<double>(link_busy_flits_[c]) /
                          static_cast<double>(cycles));
    report.busy_fraction[c] = frac;
    sum += frac;
    if (frac > report.max) {
      report.max = frac;
      report.max_channel = static_cast<std::uint32_t>(c);
    }
  }
  if (!report.busy_fraction.empty()) {
    report.mean = sum / static_cast<double>(report.busy_fraction.size());
  }
  return report;
}

void PacketSim::flush_busy_flits() {
  if (busy_counter_ == nullptr) return;  // NBCLOS_OBS=OFF build
  const std::uint64_t delta = busy_flit_total_ - busy_flits_flushed_;
  if (delta == 0) return;
  busy_counter_->add(delta);
  // The watermark only advances when the counter actually recorded the
  // delta; while recording is paused the add above is dropped and the
  // flits stay pending for the next enabled flush.
  if (obs::enabled()) busy_flits_flushed_ = busy_flit_total_;
}

void PacketSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  m.counter("sim.runs").add(1);
  m.counter("sim.cycles").add(total);
  m.counter("sim.packets.injected").add(injected_);
  m.counter("sim.packets.delivered").add(delivered_packets_);
  m.counter("sim.packets.dropped").add(dropped_packets_);
  m.counter("sim.oracle.calls").add(oracle_calls_);
  // Active-channel counts: channel-cycles divided by sim.cycles gives the
  // mean number of simultaneously active channels.
  m.counter("sim.active.flying_channel_cycles").add(active_flying_sum_);
  m.counter("sim.active.sendable_channel_cycles").add(active_sendable_sum_);
  // Queue depth at end of run plus the high-water over runs (gauge max).
  m.gauge("sim.queue.switch_depth_sum")
      .set(static_cast<std::int64_t>(switch_depth_sum_));
  // Link utilization: the busy flit-cycle counter is flushed on the
  // 64-cycle cadence during the run; this final flush drains whatever
  // accumulated since the last cadence boundary.
  flush_busy_flits();
  const auto util = link_utilization();
  m.gauge("sim.link.max_util_ppm")
      .set(static_cast<std::int64_t>(util.max * 1e6));
  // Sampled per-phase cycle cost, nanoseconds per sampled cycle.
  if (phase_samples_ > 0) {
    const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
    m.histogram("sim.phase.arrivals_ns", cap)
        .record(phase_ns_[0] / phase_samples_);
    m.histogram("sim.phase.transmissions_ns", cap)
        .record(phase_ns_[1] / phase_samples_);
    m.histogram("sim.phase.injection_ns", cap)
        .record(phase_ns_[2] / phase_samples_);
  }
  m.counter("sim.wall_us")
      .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

// --- sweep drivers ----------------------------------------------------

namespace {

/// One sweep run with a worker-private oracle (and, when faulted, a
/// run-private copy of the initial degraded view).
SimResult run_single(const Network& net, const OracleFactory& factory,
                     const TrafficPattern& traffic, SimConfig config,
                     std::uint64_t run_seed,
                     const fault::DegradedView* degraded,
                     const std::vector<fault::FaultEvent>& fault_events) {
  obs::ScopedSpan span("sweep.probe", "sweep");
  span.arg("rate", config.injection_rate);
  const auto run = [&] {
    if (degraded == nullptr) {
      const auto oracle = factory(run_seed, nullptr);
      PacketSim sim(net, *oracle, traffic, config);
      return sim.run();
    }
    fault::DegradedView view = *degraded;
    const auto oracle = factory(run_seed, &view);
    PacketSim sim(net, *oracle, traffic, config, &view, fault_events);
    return sim.run();
  };
  if constexpr (obs::kEnabled) {
    if (obs::enabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      SimResult result = run();
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0);
      // Per-probe wall time; 10 s ceiling covers every config we sweep.
      obs::metrics()
          .histogram("sweep.probe_us", 10'000'000)
          .record(static_cast<std::uint64_t>(us.count()));
      span.arg("throughput", result.accepted_throughput);
      return result;
    }
  }
  return run();
}

}  // namespace

std::vector<SimResult> load_sweep(
    const Network& net, RoutingOracle& oracle, const TrafficPattern& traffic,
    const SimConfig& base, const std::vector<double>& rates,
    fault::DegradedView* degraded,
    const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::vector<SimResult> results;
  results.reserve(rates.size());
  const fault::DegradedView snapshot =
      degraded != nullptr ? *degraded : fault::DegradedView(net);
  for (const double rate : rates) {
    SimConfig config = base;
    config.injection_rate = rate;
    if (degraded != nullptr) *degraded = snapshot;
    PacketSim sim(net, oracle, traffic, config, degraded, fault_events);
    results.push_back(sim.run());
  }
  if (degraded != nullptr) *degraded = snapshot;
  return results;
}

std::vector<SimResult> load_sweep(
    const Network& net, const OracleFactory& factory,
    const TrafficPattern& traffic, const SimConfig& base,
    const std::vector<double>& rates, ThreadPool* pool,
    const fault::DegradedView* degraded,
    const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::vector<SimResult> results(rates.size());
  obs::ScopedSpan sweep_span("sim.load_sweep", "sweep");
  sweep_span.arg("rates", static_cast<double>(rates.size()));
  const auto run_at = [&](std::size_t i) {
    SimConfig config = base;
    config.injection_rate = rates[i];
    results[i] = run_single(net, factory, traffic, config,
                            sweep_run_seed(base.seed, 0x10adu, i), degraded,
                            fault_events);
  };
  if (pool != nullptr && rates.size() > 1) {
    pool->parallel_for(0, rates.size(), run_at);
  } else {
    for (std::size_t i = 0; i < rates.size(); ++i) run_at(i);
  }
  return results;
}

double find_saturation_load(const Network& net, RoutingOracle& oracle,
                            const TrafficPattern& traffic,
                            const SimConfig& base, std::uint32_t iterations,
                            fault::DegradedView* degraded,
                            const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  const fault::DegradedView snapshot =
      degraded != nullptr ? *degraded : fault::DegradedView(net);
  const auto probe = [&](double load) {
    SimConfig config = base;
    config.injection_rate = load;
    if (degraded != nullptr) *degraded = snapshot;
    PacketSim sim(net, oracle, traffic, config, degraded, fault_events);
    return sim.run().saturated();
  };
  double lo = 0.0;
  double hi = 1.0;
  // Check full load first: nonblocking fabrics sustain it and we can
  // return without bisection error.
  bool done = !probe(1.0);
  if (!done) {
    for (std::uint32_t i = 0; i < iterations; ++i) {
      const double mid = (lo + hi) / 2.0;
      if (probe(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
      obs::trace_instant("sweep.bisect", "sweep", "lo", lo, "hi", hi, "mid",
                         mid);
      obs::metrics().counter("sweep.bisect_steps").add(1);
    }
  }
  if (degraded != nullptr) *degraded = snapshot;
  return done ? 1.0 : lo;
}

double find_saturation_load(const Network& net, const OracleFactory& factory,
                            const TrafficPattern& traffic,
                            const SimConfig& base, std::uint32_t iterations,
                            ThreadPool* pool,
                            const fault::DegradedView* degraded,
                            const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  obs::ScopedSpan sat_span("sim.find_saturation", "sweep");
  // Bracketing phase: probe a coarse, fixed load grid concurrently.  The
  // grid includes 1.0, so a fabric that sustains full load is recognized
  // without any bisection (matching the serial fast path).
  constexpr std::uint32_t kGridProbes = 8;
  std::vector<std::uint8_t> saturated(kGridProbes, 0);
  const auto grid_load = [](std::uint32_t i) {
    return static_cast<double>(i + 1) / kGridProbes;
  };
  const auto probe_at = [&](std::size_t i) {
    SimConfig config = base;
    config.injection_rate = grid_load(static_cast<std::uint32_t>(i));
    saturated[i] = run_single(net, factory, traffic, config,
                              sweep_run_seed(base.seed, 0xb4acu, i), degraded,
                              fault_events)
                       .saturated();
  };
  if (pool != nullptr) {
    pool->parallel_for(0, kGridProbes, probe_at);
  } else {
    for (std::size_t i = 0; i < kGridProbes; ++i) probe_at(i);
  }
  std::uint32_t first_saturated = kGridProbes;
  for (std::uint32_t i = 0; i < kGridProbes; ++i) {
    if (saturated[i] != 0) {
      first_saturated = i;
      break;
    }
  }
  if (first_saturated == kGridProbes) return 1.0;
  // Bisect the bracketing interval serially (each step depends on the
  // last); per-step seeds keep the result thread-count independent.
  double lo = first_saturated == 0 ? 0.0 : grid_load(first_saturated - 1);
  double hi = grid_load(first_saturated);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    SimConfig config = base;
    config.injection_rate = mid;
    const bool mid_saturated =
        run_single(net, factory, traffic, config,
                   sweep_run_seed(base.seed, 0xb15ec7u, i), degraded,
                   fault_events)
            .saturated();
    if (mid_saturated) {
      hi = mid;
    } else {
      lo = mid;
    }
    obs::trace_instant("sweep.bisect", "sweep", "lo", lo, "hi", hi, "mid",
                       mid);
    obs::metrics().counter("sweep.bisect_steps").add(1);
  }
  return lo;
}

}  // namespace nbclos::sim
