#include "nbclos/flow/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/injection_rng.hpp"

namespace nbclos::flow {

namespace {
constexpr std::uint32_t kNone = UINT32_MAX;
constexpr std::uint32_t kEject = UINT32_MAX;  ///< wire target
/// Claim placeholder between the executor's allocation (phase B) and the
/// head flit's arrival (phase A next cycle), when the owner-local packet
/// slot becomes known.  Anything != kNone blocks other claimants —
/// exactly the window serial FlowSim covers with the upstream slot id.
constexpr std::uint32_t kClaimPending = UINT32_MAX - 1;
constexpr std::uint64_t kNotBlocked = UINT64_MAX;
constexpr std::uint8_t kNoWinner = 0xFF;
}  // namespace

/// All mutable per-shard state — one arena per worker, allocated on the
/// worker's own thread (first touch) and never touched by another until
/// the merge after join.
struct ShardedFlowSim::Shard {
  /// A flit in flight on a channel this shard executes, landing next
  /// cycle in one of this shard's own buffers (or ejecting at one of its
  /// terminals).  The packet rides inline: flit storage never crosses
  /// the cut, so slot ids stay pool-local.
  struct Wire {
    std::uint32_t target = 0;  ///< global downstream buffer id, or kEject
    std::uint32_t flit_index = 0;
    sim::Packet packet;
  };

  std::uint32_t index = 0;
  std::uint32_t term_lo = 0;  ///< owned terminal range [term_lo, term_hi)
  std::uint32_t term_hi = 0;
  std::uint32_t local_switch_buffers = 0;
  std::uint32_t local_nic_buffers = 0;

  // Arena (owner role): flit storage, packets, backpressure state for
  // every buffer this shard owns, locally indexed.  Per-buffer side
  // state (out_alloc -> GLOBAL nb, claim, blocked_since) lives in the
  // pool's sparse slots, so resident bytes track the live flit front.
  std::unique_ptr<FlitBufferPool> pool;
  PacketPool packets;
  std::unique_ptr<CreditLedger> ledger;
  std::unique_ptr<OnOffSignal> onoff;

  // Per owned channel (plan.channel_local index; local ids ascend with
  // global ids, so `active`'s ascending sweep order equals serial's).
  std::vector<std::uint32_t> next_vc;
  std::vector<std::uint32_t> channel_flits;
  SweepList active;
  std::vector<std::uint32_t> channel_of_local_buf;  ///< local buf -> channel

  // Executor role: wires created in phase B, landed in phase A next
  // cycle (executor(c) owns the landing buffer, so this stays local).
  std::vector<Wire> wires;

  std::optional<fault::DegradedView> degraded;
  std::size_t next_fault = 0;

  // Phase scratch (messages between a shard's own roles skip the boxes).
  std::vector<FlitProposal> local_props;
  std::vector<FlitProposal> merged_props;
  std::vector<TransmitGrant> local_grants;
  std::vector<TransmitGrant> merged_grants;
  std::vector<CreditReturn> local_credits;

  // Statistics, merged exactly after the run (see merge_results for the
  // replay arguments that make each merge bit-identical to serial).
  std::uint64_t injected = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered_measured_flits = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  QuantileHistogram latency_hist;
  QuantileHistogram stall_hist;
  std::vector<std::uint64_t> delivered_per_source;  ///< all T terminals
  std::vector<std::uint64_t> flow_sequence;         ///< owned range only
  std::uint64_t next_packet_id = 0;
  std::uint64_t credit_stall_cycles = 0;
  std::uint64_t vc_stall_cycles = 0;
  std::uint64_t stall_duration_sum = 0;
  std::uint64_t stall_episode_count = 0;
  std::uint64_t blocked_heads = 0;  ///< owned FIFOs inside a stall episode
  std::vector<std::uint32_t> peak_per_vc;         ///< per VC index
  std::uint64_t depth_measured_sum = 0;  ///< end-of-cycle, measured cycles
  std::vector<std::uint32_t> acq_by_cycle;  ///< packets entering network
  std::vector<std::uint32_t> rel_by_cycle;  ///< tail ejections
  std::int64_t flits_in_system = 0;  ///< negative when ejecting for others
  std::uint64_t flits_moved_epoch = 0;
  std::uint32_t executed_channels = 0;   ///< channels with executor == index
  std::vector<std::uint64_t> link_busy;  ///< per EXECUTED channel (exec_index_)
  std::vector<std::uint64_t> audit_in_flight;  ///< conservation scratch, slots
  std::uint64_t route_lookups = 0;
  std::uint64_t cross_flits = 0;
  std::uint64_t cross_credits = 0;
  std::uint64_t mailbox_peak = 0;
  std::uint64_t cycles_run = 0;
  bool deadlocked = false;
  std::uint64_t deadlock_cycle = 0;
  std::uint64_t stuck_total = 0;
  std::vector<std::uint32_t> stuck_buffers;  ///< 8 smallest occupied, global
  std::uint32_t numa_node = 0;
  std::uint8_t pinned = 0;

  explicit Shard(std::uint64_t hist_max)
      : latency_hist(hist_max), stall_hist(hist_max) {}
};

ShardedFlowSim::ShardedFlowSim(
    std::shared_ptr<const RouteSource> routes,
    const sim::TrafficPattern& traffic, FlowConfig config,
    std::uint32_t shards, const fault::DegradedView* degraded,
    std::vector<fault::FaultEvent> fault_events)
    : routes_(std::move(routes)),
      net_(&routes_->network()),
      traffic_(&traffic),
      config_(config),
      fault_events_(std::move(fault_events)),
      degraded_(degraded) {
  config.validate();
  NBCLOS_REQUIRE(config.vcs <= 32,
                 "sharded engine supports 1..32 virtual channels (stall "
                 "masks are 32 bits wide)");
  if (config.backpressure == Backpressure::kOnOff) {
    NBCLOS_REQUIRE(
        config.buffer_flits >= config.head_reservation_flits() + 1,
        "on/off signaling needs one slot of slack beyond the head "
        "reservation (see onoff_off_threshold)");
  }
  NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == net_,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  head_reservation_ = config.head_reservation_flits();
  packet_rate_ =
      config.injection_rate / static_cast<double>(config.packet_flits);
  const auto terminal_vertices = net_->terminals();
  terminal_count_ = static_cast<std::uint32_t>(terminal_vertices.size());
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_count_,
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    NBCLOS_REQUIRE(terminal_vertices[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }

  plan_ = sim::ShardPlan::build(*net_, shards);
  const std::uint32_t shard_count = plan_.shard_count;
  const std::uint32_t channels = net_->channel_count();

  // Global buffer id assignment — serial FlowSim's, verbatim: switch
  // channels take `vcs` consecutive ids in channel order, NIC channels
  // one id each after all switch buffers.  Keeping the global id space
  // identical makes claims, credit messages, and deadlock diagnostics
  // field-for-field comparable with the serial engine.
  buf_base_.assign(channels, 0);
  is_nic_.assign(channels, 0);
  channel_dst_.assign(channels, 0);
  dst_is_terminal_.assign(channels, 0);
  channel_executor_.assign(channels, 0);
  exec_index_.assign(channels, 0);
  std::vector<std::uint32_t> exec_counts(shard_count, 0);
  std::uint32_t switch_idx = 0;
  std::uint32_t nic_count = 0;
  for (std::uint32_t c = 0; c < channels; ++c) {
    channel_dst_[c] = net_->channel_dst(c);
    dst_is_terminal_[c] =
        net_->vertex(channel_dst_[c]).kind == VertexKind::kTerminal;
    channel_executor_[c] =
        static_cast<std::uint8_t>(plan_.shard_of_vertex(channel_dst_[c]));
    exec_index_[c] = exec_counts[channel_executor_[c]]++;
    if (net_->vertex(net_->channel_src(c)).kind == VertexKind::kTerminal) {
      is_nic_[c] = 1;
      ++nic_count;
    } else {
      buf_base_[c] = switch_idx * config.vcs;
      ++switch_idx;
    }
  }
  switch_channel_count_ = switch_idx;
  switch_buffer_count_ = switch_idx * config.vcs;
  std::uint32_t nic_idx = 0;
  for (std::uint32_t c = 0; c < channels; ++c) {
    if (is_nic_[c]) buf_base_[c] = switch_buffer_count_ + nic_idx++;
  }

  // Local buffer numbering per shard: owned switch buffers first (`vcs`
  // consecutive per channel, channels ascending — the shard_channels
  // order), then owned NIC buffers.  Read-only after this loop.
  buf_local_of_global_.assign(switch_buffer_count_ + nic_count, 0);
  shards_.reserve(shard_count);
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(total);
    shard->index = s;
    shard->term_lo = std::min(plan_.vertex_begin[s], terminal_count_);
    shard->term_hi = std::min(plan_.vertex_begin[s + 1], terminal_count_);
    std::uint32_t local_switch = 0;
    std::uint32_t local_nic = 0;
    for (const auto c : plan_.shard_channels[s]) {
      if (is_nic_[c]) continue;
      for (std::uint32_t v = 0; v < config_.vcs; ++v) {
        buf_local_of_global_[buf_base_[c] + v] = local_switch++;
      }
    }
    for (const auto c : plan_.shard_channels[s]) {
      if (!is_nic_[c]) continue;
      buf_local_of_global_[buf_base_[c]] = local_switch + local_nic++;
    }
    shard->local_switch_buffers = local_switch;
    shard->local_nic_buffers = local_nic;
    shard->executed_channels = exec_counts[s];
    shards_.push_back(std::move(shard));
  }

  proposal_box_ = sim::MailboxGrid<FlitProposal>(shard_count);
  grant_box_ = sim::MailboxGrid<TransmitGrant>(shard_count);
  credit_box_ = sim::MailboxGrid<CreditReturn>(shard_count);
  epoch_stats_.assign(shard_count, EpochStat{});
  sync_ = std::make_unique<sim::ShardSync>(
      static_cast<std::ptrdiff_t>(shard_count));
  numa_ = sim::NumaTopology::detect();
  if constexpr (obs::kEnabled) arm_recorder();
}

void ShardedFlowSim::arm_recorder() {
  if (!config_.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config_.record_cadence;
  rec.ring_capacity = config_.record_ring_capacity;
  rec.shards = plan_.shard_count;
  recorder_.configure(rec);
  // Same names, cadence, and capacity as the serial FlowSim recorder, so
  // after the per-shard sum these kInvariant series are bit-identical to
  // a serial recording of the same run at any shard count.
  using obs::SeriesAgg;
  using obs::SeriesScope;
  rec_in_system_ = recorder_.series("flow.flits.in_system", SeriesAgg::kSum);
  rec_buffer_occupancy_ =
      recorder_.series("flow.buffer.occupancy", SeriesAgg::kSum);
  rec_credit_stalls_ =
      recorder_.series("flow.stall.credit_cycles", SeriesAgg::kSum);
  rec_vc_stalls_ = recorder_.series("flow.stall.vc_cycles", SeriesAgg::kSum);
  rec_blocked_heads_ = recorder_.series("flow.blocked.heads", SeriesAgg::kSum);
  rec_injected_ = recorder_.series("flow.packets.injected", SeriesAgg::kSum);
  rec_delivered_ = recorder_.series("flow.packets.delivered", SeriesAgg::kSum);
  // Mailbox pressure exists only under a shard cut (zero messages cross
  // at one shard), so these are excluded from the invariance contract.
  rec_mailbox_flits_ = recorder_.series(
      "flow.mailbox.cross_flits", SeriesAgg::kSum, SeriesScope::kShardTopology);
  rec_mailbox_credits_ =
      recorder_.series("flow.mailbox.cross_credits", SeriesAgg::kSum,
                       SeriesScope::kShardTopology);
  rec_mailbox_peak_ = recorder_.series(
      "flow.mailbox.peak", SeriesAgg::kMax, SeriesScope::kShardTopology);
}

void ShardedFlowSim::sample_recorder(Shard& sh, std::uint64_t now) {
  const std::uint32_t slot = sh.index;
  // Per-shard in-system counts partition additively but can be negative
  // (a shard that only ejects foreign packets), which is why SeriesPoint
  // values are signed.
  recorder_.record(rec_in_system_, slot, now, sh.flits_in_system);
  recorder_.record(rec_buffer_occupancy_, slot, now,
                   static_cast<std::int64_t>(sh.pool->switch_flits_total()));
  recorder_.record(rec_credit_stalls_, slot, now,
                   static_cast<std::int64_t>(sh.credit_stall_cycles));
  recorder_.record(rec_vc_stalls_, slot, now,
                   static_cast<std::int64_t>(sh.vc_stall_cycles));
  recorder_.record(rec_blocked_heads_, slot, now,
                   static_cast<std::int64_t>(sh.blocked_heads));
  recorder_.record(rec_injected_, slot, now,
                   static_cast<std::int64_t>(sh.injected));
  recorder_.record(rec_delivered_, slot, now,
                   static_cast<std::int64_t>(sh.delivered_packets));
  recorder_.record(rec_mailbox_flits_, slot, now,
                   static_cast<std::int64_t>(sh.cross_flits));
  recorder_.record(rec_mailbox_credits_, slot, now,
                   static_cast<std::int64_t>(sh.cross_credits));
  recorder_.record(rec_mailbox_peak_, slot, now,
                   static_cast<std::int64_t>(sh.mailbox_peak));
}

ShardedFlowSim::~ShardedFlowSim() = default;

void ShardedFlowSim::init_shard_arena(std::uint32_t s) {
  Shard& sh = *shards_[s];
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  sh.pool = std::make_unique<FlitBufferPool>(
      sh.local_switch_buffers, sh.local_nic_buffers, config_.buffer_flits);
  if (config_.backpressure == Backpressure::kCredit) {
    sh.ledger =
        std::make_unique<CreditLedger>(*sh.pool, config_.credit_delay);
  } else {
    sh.onoff =
        std::make_unique<OnOffSignal>(*sh.pool, config_.onoff_off_threshold());
  }
  const std::uint32_t local_buffers =
      sh.local_switch_buffers + sh.local_nic_buffers;
  sh.channel_of_local_buf.assign(local_buffers, 0);
  for (const auto c : plan_.shard_channels[s]) {
    const std::uint32_t vcs = is_nic_[c] ? 1u : config_.vcs;
    for (std::uint32_t v = 0; v < vcs; ++v) {
      sh.channel_of_local_buf[buf_local_of_global_[buf_base_[c] + v]] = c;
    }
  }
  const auto count = static_cast<std::uint32_t>(plan_.shard_channels[s].size());
  sh.next_vc.assign(count, 0);
  sh.channel_flits.assign(count, 0);
  sh.active.reset(count);
  sh.peak_per_vc.assign(config_.vcs, 0);
  sh.delivered_per_source.assign(terminal_count_, 0);
  sh.flow_sequence.assign(sh.term_hi - sh.term_lo, 0);
  sh.acq_by_cycle.assign(total, 0);
  sh.rel_by_cycle.assign(total, 0);
  sh.link_busy.assign(sh.executed_channels, 0);
  if (degraded_ != nullptr) sh.degraded.emplace(*degraded_);
}

bool ShardedFlowSim::backpressure_ok(const Shard& sh, std::uint32_t local_b,
                                     std::uint32_t reservation) const {
  if (sh.ledger != nullptr) return sh.ledger->credits(local_b) >= reservation;
  return !sh.onoff->off(local_b);
}

void ShardedFlowSim::note_blocked(Shard& sh, std::uint32_t global_b,
                                  bool credit_block, std::uint64_t now) {
  if (credit_block) {
    ++sh.credit_stall_cycles;
  } else {
    ++sh.vc_stall_cycles;
  }
  const std::uint32_t lb = buf_local_of_global_[global_b];
  if (sh.pool->blocked_since(lb) == kNotBlocked) {
    sh.pool->set_blocked_since(lb, now);
    ++sh.blocked_heads;
  }
}

void ShardedFlowSim::note_unblocked(Shard& sh, std::uint32_t global_b,
                                    std::uint64_t now) {
  const std::uint32_t lb = buf_local_of_global_[global_b];
  const std::uint64_t since = sh.pool->blocked_since(lb);
  if (since == kNotBlocked) return;
  const std::uint64_t duration = now - since;
  sh.pool->clear_blocked_since(lb);
  --sh.blocked_heads;
  sh.stall_duration_sum += duration;
  ++sh.stall_episode_count;
  sh.stall_hist.add(duration);
}

void ShardedFlowSim::eject_flit(Shard& sh, const sim::Packet& packet,
                                std::uint32_t flit_index, std::uint64_t now,
                                bool measuring) {
  --sh.flits_in_system;
  const bool tail = flit_index + 1 == packet.size_flits;
  if (tail) ++sh.delivered_packets;
  if (measuring) {
    ++sh.delivered_measured_flits;
    ++sh.delivered_per_source[packet.src_terminal];
    if (tail && packet.injected_cycle >= config_.warmup_cycles) {
      const std::uint64_t latency = now - packet.injected_cycle;
      sh.latency_sum += latency;
      ++sh.latency_count;
      sh.latency_hist.add(latency);
    }
  }
  if (tail) ++sh.rel_by_cycle[now];
}

void ShardedFlowSim::phase_owner_pre(Shard& sh, std::uint64_t now,
                                     bool measuring) {
  // Faults first: every shard advances its PRIVATE DegradedView copy
  // through the same sorted schedule, so the copies never diverge.
  if (sh.degraded.has_value()) {
    while (sh.next_fault < fault_events_.size() &&
           fault_events_[sh.next_fault].cycle <= now) {
      sh.degraded->apply(fault_events_[sh.next_fault]);
      ++sh.next_fault;
    }
  }
  if (sh.ledger != nullptr) sh.ledger->advance(now);

  // Arrivals: land the wires this shard created in its executor role
  // last cycle.  Every target is a buffer (or terminal) this shard owns,
  // and at most one wire per buffer per cycle (the claim serializes
  // writers), so landing order never affects merged results.
  for (const Shard::Wire& w : sh.wires) {
    if (w.target == kEject) {
      eject_flit(sh, w.packet, w.flit_index, now, measuring);
      continue;
    }
    const std::uint32_t lb = buf_local_of_global_[w.target];
    std::uint32_t slot;
    if (w.flit_index == 0) {
      // Head landed: the packet gets its owner-local slot now, replacing
      // the kClaimPending placeholder set at allocation time.
      slot = sh.packets.acquire(w.packet);
      NBCLOS_ASSERT(sh.pool->claim(lb) == kClaimPending);
      sh.pool->set_claim(lb, slot);
    } else {
      slot = sh.pool->claim(lb);
      NBCLOS_ASSERT(slot != kNone && slot != kClaimPending);
    }
    sh.pool->push(lb, FlitRef{slot, w.flit_index});
    const std::uint32_t oc = sh.channel_of_local_buf[lb];
    const std::uint32_t li = plan_.channel_local[oc];
    ++sh.channel_flits[li];
    sh.active.push(li);
    if (sh.onoff != nullptr) sh.onoff->mark_dirty(lb);
    const std::uint32_t vc = w.target - buf_base_[oc];
    if (sh.pool->size(lb) > sh.peak_per_vc[vc]) {
      sh.peak_per_vc[vc] = sh.pool->size(lb);
    }
    if (w.flit_index + 1 == w.packet.size_flits) {
      // Tail landed: the VC is whole again and accepts a new claimant.
      NBCLOS_ASSERT(sh.pool->claim(lb) == slot);
      sh.pool->set_claim(lb, kNone);
    }
  }
  sh.wires.clear();

  // Proposals: one per non-empty VC of each active, usable channel, sent
  // to the channel's executor.  The ascending sweep mirrors serial
  // step_transmissions (a drained channel leaves the list; a dead one
  // stays, transmitting nothing) and writes every box ascending by
  // (channel, VC).
  const auto& owned = plan_.shard_channels[sh.index];
  sh.active.sweep([&](std::uint32_t li) {
    if (sh.channel_flits[li] == 0) return false;  // drained since last sweep
    const std::uint32_t c = owned[li];
    if (sh.degraded.has_value() && !sh.degraded->channel_alive(c)) {
      return true;
    }
    const std::uint32_t vc_count = is_nic_[c] ? 1u : config_.vcs;
    const auto start = static_cast<std::uint8_t>(sh.next_vc[li]);
    const std::uint32_t executor = channel_executor_[c];
    for (std::uint32_t vc = 0; vc < vc_count; ++vc) {
      const std::uint32_t lb = buf_local_of_global_[buf_base_[c] + vc];
      if (sh.pool->size(lb) == 0) continue;
      const FlitRef flit = sh.pool->front(lb);
      FlitProposal p;
      p.channel = c;
      p.flit_index = flit.flit_index;
      p.out_alloc = sh.pool->out_alloc(lb);
      p.packet = sh.packets.at(flit.packet_slot);
      p.vc = static_cast<std::uint8_t>(vc);
      p.start_vc = start;
      if (executor == sh.index) {
        sh.local_props.push_back(p);
      } else {
        proposal_box_.box(sh.index, executor).push_back(p);
        ++sh.cross_flits;
      }
    }
    return true;
  });
}

std::uint32_t ShardedFlowSim::allocate_downstream(Shard& sh,
                                                  std::uint32_t from_vc,
                                                  const sim::Packet& packet,
                                                  std::uint32_t at_vertex,
                                                  bool* credit_block) {
  ++sh.route_lookups;
  const std::uint32_t nc = routes_->router().next_channel(at_vertex, packet);
  NBCLOS_DEBUG_CHECK(net_->channel_src(nc) == at_vertex,
                     "router returned a foreign channel");
  // A dead next channel blocks the head in place (fail-stop: the worm
  // waits, it is never purged) — accounted as a credit stall.
  if (sh.degraded.has_value() && !sh.degraded->channel_alive(nc)) {
    *credit_block = true;
    return kNone;
  }
  // First-free VC scan starting at the packet's current VC.  Channel nc
  // leaves at_vertex = dst(c), so its buffers belong to THIS shard (the
  // executor of c) — claims and credits are read and set locally.
  bool saw_credit_block = false;
  for (std::uint32_t j = 0; j < config_.vcs; ++j) {
    const std::uint32_t nv = (from_vc + j) % config_.vcs;
    const std::uint32_t nb = buf_base_[nc] + nv;
    const std::uint32_t lnb = buf_local_of_global_[nb];
    if (sh.pool->claim(lnb) != kNone) continue;
    if (!backpressure_ok(sh, lnb, head_reservation_)) {
      saw_credit_block = true;
      continue;
    }
    return nb;
  }
  *credit_block = saw_credit_block;
  return kNone;
}

void ShardedFlowSim::phase_execute(Shard& sh, std::uint64_t now) {
  (void)now;
  // Merge this shard's own proposals with the mailboxed ones: every run
  // arrives ascending by (channel, vc), so the merge is canonical order.
  // Per-executor ascending channel order IS serial order for all
  // cross-channel interaction, because claims and credit consumption
  // only couple channels sharing a downstream vertex — which share this
  // executor.
  proposal_box_.drain_merged_to(
      sh.index, sh.local_props, sh.merged_props, sh.mailbox_peak,
      [](const FlitProposal& a, const FlitProposal& b) {
        return a.channel != b.channel ? a.channel < b.channel : a.vc < b.vc;
      });

  std::size_t i = 0;
  while (i < sh.merged_props.size()) {
    const std::uint32_t c = sh.merged_props[i].channel;
    std::array<const FlitProposal*, 32> by_vc{};
    const std::uint32_t vc_count = is_nic_[c] ? 1u : config_.vcs;
    std::uint32_t scan_start = sh.merged_props[i].start_vc;
    for (; i < sh.merged_props.size() && sh.merged_props[i].channel == c; ++i) {
      by_vc[sh.merged_props[i].vc] = &sh.merged_props[i];
    }

    // Replay serial try_transmit's VC scan against local state.
    TransmitGrant g;
    g.channel = c;
    g.new_out_alloc = kNone;
    g.winner_vc = kNoWinner;
    for (std::uint32_t k = 0; k < vc_count; ++k) {
      const std::uint32_t vc = (scan_start + k) % vc_count;
      const FlitProposal* e = by_vc[vc];
      if (e == nullptr) continue;  // empty VC: serial skips it too
      std::uint32_t target;
      if (dst_is_terminal_[c]) {
        target = kEject;  // the terminal sink always accepts
      } else if (e->flit_index == 0) {
        NBCLOS_ASSERT(e->out_alloc == kNone);
        bool credit_block = false;
        const std::uint32_t nb = allocate_downstream(
            sh, vc, e->packet, channel_dst_[c], &credit_block);
        if (nb == kNone) {
          if (credit_block) {
            g.credit_block_mask |= 1u << vc;
          } else {
            g.vc_block_mask |= 1u << vc;
          }
          continue;  // this VC stalls; the next may still use the channel
        }
        sh.pool->set_claim(buf_local_of_global_[nb], kClaimPending);
        g.new_out_alloc = nb;
        target = nb;
      } else {
        target = e->out_alloc;
        NBCLOS_ASSERT(target != kNone);
        // Wormhole body flits re-check backpressure every cycle; VCT
        // reserved the whole packet at the head, so bodies stream freely.
        if (config_.switching == Switching::kWormhole &&
            !backpressure_ok(sh, buf_local_of_global_[target], 1)) {
          g.credit_block_mask |= 1u << vc;
          continue;
        }
      }
      if (target != kEject && sh.ledger != nullptr) {
        sh.ledger->consume(buf_local_of_global_[target]);
      }
      sh.wires.push_back(Shard::Wire{target, e->flit_index, e->packet});
      sh.link_busy[exec_index_[c]] += 1;
      ++sh.flits_moved_epoch;
      g.winner_vc = static_cast<std::uint8_t>(vc);
      // The freed slot's credit flows back UPSTREAM — opposite to the
      // flit — to the buffer's owner, through its own mailbox class.
      if (!is_nic_[c]) {
        const CreditReturn r{buf_base_[c] + vc};
        const std::uint32_t owner = plan_.channel_owner[c];
        if (owner == sh.index) {
          sh.local_credits.push_back(r);
        } else {
          credit_box_.box(sh.index, owner).push_back(r);
          ++sh.cross_credits;
        }
      }
      break;
    }

    if (g.winner_vc != kNoWinner || g.credit_block_mask != 0 ||
        g.vc_block_mask != 0) {
      const std::uint32_t owner = plan_.channel_owner[c];
      if (owner == sh.index) {
        sh.local_grants.push_back(g);
      } else {
        grant_box_.box(sh.index, owner).push_back(g);
      }
    }
  }
}

void ShardedFlowSim::apply_grant(Shard& sh, const TransmitGrant& g,
                                 std::uint64_t now) {
  const std::uint32_t c = g.channel;
  const std::uint32_t li = plan_.channel_local[c];
  const std::uint32_t vc_count = is_nic_[c] ? 1u : config_.vcs;
  const std::uint32_t start = sh.next_vc[li];
  // Replay the executor's scan outcome in scan order: stall bookkeeping
  // for the attempted-and-blocked VCs, then the winner's pop.
  for (std::uint32_t k = 0; k < vc_count; ++k) {
    const std::uint32_t vc = (start + k) % vc_count;
    if (vc == g.winner_vc) break;  // masks only cover pre-winner VCs
    const std::uint32_t b = buf_base_[c] + vc;
    if ((g.credit_block_mask >> vc) & 1u) {
      note_blocked(sh, b, true, now);
    } else if ((g.vc_block_mask >> vc) & 1u) {
      note_blocked(sh, b, false, now);
    }
  }
  if (g.winner_vc == kNoWinner) return;
  const std::uint32_t vc = g.winner_vc;
  const std::uint32_t b = buf_base_[c] + vc;
  const std::uint32_t lb = buf_local_of_global_[b];
  const FlitRef flit = sh.pool->pop(lb);
  --sh.channel_flits[li];
  const sim::Packet packet = sh.packets.at(flit.packet_slot);
  // (Credit return / on-off dirty for this pop arrive as CreditReturn
  // messages in phase C — the owner does not shortcut them here.)
  if (g.new_out_alloc != kNone) {
    NBCLOS_ASSERT(flit.flit_index == 0 && sh.pool->out_alloc(lb) == kNone);
    sh.pool->set_out_alloc(lb, g.new_out_alloc);
  }
  if (flit.flit_index + 1 == packet.size_flits) {
    sh.pool->set_out_alloc(lb, kNone);
    // Tail left this hop: the packet's local slot dies with it (FIFO
    // order plus the no-interleave claim guarantee the tail pops last).
    sh.packets.release(flit.packet_slot);
  }
  note_unblocked(sh, b, now);
  // Drained and unblocked: recycle the slot (pending credit returns or
  // a live claim keep it pinned — a skipped release is only memory).
  sh.pool->maybe_release(lb);
  sh.next_vc[li] = (vc + 1) % vc_count;
}

void ShardedFlowSim::phase_owner_post(Shard& sh, std::uint64_t now) {
  // Grants: one per channel, every run ascending by channel (executors
  // walk their merged proposals in order); the merged order reproduces
  // serial's ascending transmission sweep as seen by this owner's
  // buffers.
  grant_box_.drain_merged_to(
      sh.index, sh.local_grants, sh.merged_grants, sh.mailbox_peak,
      [](const TransmitGrant& a, const TransmitGrant& b) {
        return a.channel < b.channel;
      });
  for (const TransmitGrant& g : sh.merged_grants) apply_grant(sh, g, now);

  // Returning credits (delay-line scheduling is commutative, so drain
  // order across sources is free).
  const auto apply_credit = [&](const CreditReturn& r) {
    const std::uint32_t lb = buf_local_of_global_[r.buffer];
    if (sh.ledger != nullptr) sh.ledger->schedule_return(lb, now);
    if (sh.onoff != nullptr) sh.onoff->mark_dirty(lb);
  };
  for (const CreditReturn& r : sh.local_credits) apply_credit(r);
  sh.local_credits.clear();
  credit_box_.drain_to(
      sh.index, [&](std::uint32_t /*src*/, std::vector<CreditReturn>& box) {
        sh.mailbox_peak = std::max<std::uint64_t>(sh.mailbox_peak, box.size());
        for (const CreditReturn& r : box) apply_credit(r);
      });

  // Injection over this shard's own terminals: every draw is a pure
  // function of (seed, cycle, terminal), so the partition cannot change
  // the stream.
  for (std::uint32_t t = sh.term_lo; t < sh.term_hi; ++t) {
    SplitMix64 sm(sim::injection_counter_state(config_.seed, now, t));
    if (!sim::injection_bernoulli(sm, packet_rate_)) continue;
    Xoshiro256 dest_rng(sm.next());
    const auto dst = traffic_->destination(t, dest_rng);
    if (!dst.has_value()) continue;
    sim::Packet packet;
    packet.id = sh.next_packet_id++;
    packet.src_terminal = t;
    packet.dst_terminal = *dst;
    packet.size_flits = config_.packet_flits;
    packet.injected_cycle = now;
    packet.flow_sequence = sh.flow_sequence[t - sh.term_lo]++;
    ++sh.route_lookups;
    const std::uint32_t first = routes_->router().next_channel(t, packet);
    NBCLOS_DEBUG_CHECK(is_nic_[first] != 0,
                       "first hop must leave through the source NIC");
    NBCLOS_ASSERT(plan_.channel_owner[first] == sh.index);
    ++sh.injected;
    // A dead NIC uplink is the one place a packet is dropped: it never
    // entered the network, so there is nothing to purge or conserve.
    if (sh.degraded.has_value() && !sh.degraded->channel_alive(first)) {
      ++sh.dropped;
      continue;
    }
    const std::uint32_t slot = sh.packets.acquire(packet);
    const std::uint32_t lb = buf_local_of_global_[buf_base_[first]];
    for (std::uint32_t f = 0; f < config_.packet_flits; ++f) {
      sh.pool->push(lb, FlitRef{slot, f});
    }
    const std::uint32_t li = plan_.channel_local[first];
    sh.channel_flits[li] += config_.packet_flits;
    sh.active.push(li);
    sh.flits_in_system += config_.packet_flits;
    sh.acq_by_cycle[now] += 1;
  }

  if (sh.onoff != nullptr) sh.onoff->latch();
  if (now >= config_.warmup_cycles) {
    sh.depth_measured_sum += sh.pool->switch_flits_total();
  }
  // End-of-cycle sample, the same point serial FlowSim samples at — all
  // shards see want(now) identically (same recorder geometry).
  if constexpr (obs::kEnabled) {
    if (recorder_.want(now)) sample_recorder(sh, now);
  }
}

bool ShardedFlowSim::epoch_watchdog(Shard& sh, std::uint64_t now) {
  if (config_.watchdog_epoch == 0) return false;
  if ((now + 1) % config_.watchdog_epoch != 0) return false;
  // Piggyback the credit-conservation audit on the epoch boundary, as
  // serial does — each shard closes its own identity locally.
  if (sh.ledger != nullptr) {
    NBCLOS_ASSERT(local_credit_conservation_holds(sh));
  }
  // The verdict needs GLOBAL totals: a shard whose owned flits all wait
  // on a neighbor (or that only ejects) sees a locally-stuck or even
  // negative picture.  One extra barrier publishes every shard's slot;
  // all shards then reduce the SAME numbers to the same verdict.
  epoch_stats_[sh.index] = EpochStat{sh.flits_in_system, sh.flits_moved_epoch};
  sync_->barrier.arrive_and_wait();
  std::int64_t in_system = 0;
  std::uint64_t moved = 0;
  for (const EpochStat& e : epoch_stats_) {
    in_system += e.flits_in_system;
    moved += e.flits_moved;
  }
  if (in_system > 0 && moved == 0) {
    sh.deadlocked = true;
    sh.deadlock_cycle = now;
    sh.stuck_total = static_cast<std::uint64_t>(in_system);
    // This shard's candidates for the global 8-smallest occupied buffer
    // sample.  The pool is sparse, so walk live slots (allocation
    // order), recover global ids, and sort ascending — the same sample
    // the old dense ascending-global-id channel scan produced.
    constexpr std::size_t kMaxSample = 8;
    const auto global_of = [&](std::uint32_t lb) {
      const std::uint32_t c = sh.channel_of_local_buf[lb];
      if (is_nic_[c]) return buf_base_[c];
      return buf_base_[c] + (lb - buf_local_of_global_[buf_base_[c]]);
    };
    std::vector<std::uint32_t> occupied;
    sh.pool->for_each_live([&](std::uint32_t lb, std::uint32_t /*slot*/,
                               const FlitBufferPool::BufferSlot& sl) {
      if (sl.size > 0) occupied.push_back(global_of(lb));
    });
    std::sort(occupied.begin(), occupied.end());
    if (occupied.size() > kMaxSample) occupied.resize(kMaxSample);
    sh.stuck_buffers = std::move(occupied);
    return true;
  }
  sh.flits_moved_epoch = 0;
  return false;
}

bool ShardedFlowSim::local_credit_conservation_holds(Shard& sh) const {
  // Audit live slots only: a never-activated buffer holds full credits,
  // no flits, and nothing in flight (consuming a credit for an in-flight
  // wire pins the target's slot), so it satisfies the identity
  // trivially.  The slot-indexed scratch is hoisted into the shard.
  sh.audit_in_flight.assign(sh.pool->peak_slots(), 0);
  for (const Shard::Wire& w : sh.wires) {
    if (w.target == kEject) continue;
    if (w.target < switch_buffer_count_) {
      const std::uint32_t s =
          sh.pool->slot_id(buf_local_of_global_[w.target]);
      NBCLOS_ASSERT(s != FlitBufferPool::kNoSlot);  // consume pinned it
      ++sh.audit_in_flight[s];
    }
  }
  bool ok = true;
  sh.pool->for_each_live([&](std::uint32_t lb, std::uint32_t slot,
                             const FlitBufferPool::BufferSlot& sl) {
    if (lb >= sh.local_switch_buffers) return;  // NICs are uncredited
    const std::uint64_t sum = (config_.buffer_flits - sl.credits_used) +
                              sl.size + sh.audit_in_flight[slot] +
                              sl.pending_returns;
    if (sum != config_.buffer_flits) ok = false;
  });
  return ok;
}

void ShardedFlowSim::run_shard(std::uint32_t s) {
  try {
    Shard& sh = *shards_[s];
    if (config_.pin_shards && !numa_.pin_order.empty()) {
      sh.pinned =
          sim::pin_current_thread(numa_.pin_order[s % numa_.pin_order.size()])
              ? 1
              : 0;
    }
    // First-touch: the arena is allocated here, on the worker's own
    // thread (after pinning), so its pages land on this node.
    init_shard_arena(s);
    sh.numa_node = sim::current_numa_node(numa_);
    const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
    for (std::uint64_t now = 0; now < total; ++now) {
      if (sync_->poisoned()) {
        sync_->barrier.arrive_and_drop();
        return;
      }
      const bool measuring = now >= config_.warmup_cycles;
      phase_owner_pre(sh, now, measuring);
      sync_->barrier.arrive_and_wait();
      phase_execute(sh, now);
      sync_->barrier.arrive_and_wait();
      phase_owner_post(sh, now);
      sh.cycles_run = now + 1;
      if (epoch_watchdog(sh, now)) break;
    }
    // End-of-run conservation audit: wires and delay lines still hold
    // whatever was in flight when the loop ended (serial parity).
    if (sh.ledger != nullptr) {
      NBCLOS_ASSERT(local_credit_conservation_holds(sh));
    }
  } catch (...) {
    sync_->record_failure();
  }
}

FlowResult ShardedFlowSim::run() {
  NBCLOS_REQUIRE(!ran_, "ShardedFlowSim::run may only be called once");
  ran_ = true;
  obs::ScopedSpan span("flow.sharded.run", "flow");
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

  FlowResult result = merge_results();
  if (result.deadlocked) capture_forensics();
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(shards_[0]->cycles_run));
    span.arg("shards", static_cast<double>(plan_.shard_count));
    span.arg("rate", config_.injection_rate);
  }
  return result;
}

FlowResult ShardedFlowSim::merge_results() {
  FlowResult result;
  result.offered_load = config_.injection_rate;

  // Order-independent integer sums first.
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t stall_sum = 0;
  std::uint64_t stall_episodes = 0;
  std::uint64_t delivered_measured = 0;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    result.injected_packets += sh.injected;
    result.delivered_packets += sh.delivered_packets;
    result.dropped_packets += sh.dropped;
    result.credit_stall_cycles += sh.credit_stall_cycles;
    result.vc_stall_cycles += sh.vc_stall_cycles;
    latency_sum += sh.latency_sum;
    latency_count += sh.latency_count;
    stall_sum += sh.stall_duration_sum;
    stall_episodes += sh.stall_episode_count;
    delivered_measured += sh.delivered_measured_flits;
  }
  result.accepted_throughput =
      static_cast<double>(delivered_measured) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminal_count_));
  result.mean_latency = exact_mean(latency_sum, latency_count);
  result.mean_stall_cycles = exact_mean(stall_sum, stall_episodes);

  // Histogram merges (identical geometry across shards by construction).
  QuantileHistogram latency_hist = shards_[0]->latency_hist;
  QuantileHistogram stall_hist = shards_[0]->stall_hist;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    latency_hist.merge(shards_[s]->latency_hist);
    stall_hist.merge(shards_[s]->stall_hist);
  }
  result.latency_bucket_width =
      static_cast<double>(latency_hist.bucket_width());
  if (latency_hist.count() > 0) {
    result.p50_latency = latency_hist.quantile(0.50);
    result.p99_latency = latency_hist.quantile(0.99);
    result.p999_latency = latency_hist.quantile(0.999);
  }
  result.p99_stall_cycles =
      stall_hist.count() > 0 ? stall_hist.quantile(0.99) : 0.0;

  const std::uint64_t cycles_run = shards_[0]->cycles_run;

  // Mean switch queue depth: serial's exact ratio over the cycles run.
  std::uint64_t depth_measured_sum = 0;
  for (const auto& shp : shards_) depth_measured_sum += shp->depth_measured_sum;
  const std::uint64_t measured_cycles =
      cycles_run - std::min(cycles_run, config_.warmup_cycles);
  result.mean_switch_queue_depth = exact_mean(
      depth_measured_sum, switch_channel_count_ * measured_cycles);

  // Peak single-FIFO occupancy: each local pool tracks the high-water
  // mark over its own switch buffers, so the global peak is the max.
  for (const auto& shp : shards_) {
    result.peak_buffer_flits =
        std::max(result.peak_buffer_flits, shp->pool->peak_switch_flits());
  }

  // Peak live packets: replay serial's counter, which checks the peak
  // after each injection acquire.  Within a cycle releases (tail
  // ejections, during arrivals) precede acquires (injection), so the
  // running count peaks after the cycle's last acquire.
  std::int64_t live = 0;
  std::uint64_t peak_live = 0;
  for (std::uint64_t cyc = 0; cyc < cycles_run; ++cyc) {
    std::uint32_t acq = 0;
    std::uint32_t rel = 0;
    for (const auto& shp : shards_) {
      acq += shp->acq_by_cycle[cyc];
      rel += shp->rel_by_cycle[cyc];
    }
    live += static_cast<std::int64_t>(acq) - static_cast<std::int64_t>(rel);
    if (acq > 0 && static_cast<std::uint64_t>(live) > peak_live) {
      peak_live = static_cast<std::uint64_t>(live);
    }
  }
  result.peak_live_packets = peak_live;

  // Flow fairness: ascending terminals, same min/max fold as serial.
  bool first_flow = true;
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    const Shard& owner = *shards_[plan_.shard_of_vertex(t)];
    if (owner.flow_sequence[t - owner.term_lo] == 0) continue;
    std::uint64_t delivered = 0;
    for (const auto& shp : shards_) delivered += shp->delivered_per_source[t];
    const double rate = static_cast<double>(delivered) /
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

  // Deadlock diagnostics (every shard reduced the same epoch totals, so
  // the flags agree; the stuck-buffer sample is the global 8 smallest).
  result.deadlocked = shards_[0]->deadlocked;
  if (result.deadlocked) {
    result.deadlock_cycle = shards_[0]->deadlock_cycle;
    result.stuck_flits = shards_[0]->stuck_total;
    std::vector<std::uint32_t> stuck;
    for (const auto& shp : shards_) {
      stuck.insert(stuck.end(), shp->stuck_buffers.begin(),
                   shp->stuck_buffers.end());
    }
    std::sort(stuck.begin(), stuck.end());
    if (stuck.size() > 8) stuck.resize(8);
    result.stuck_buffers = std::move(stuck);
  }

  // Exactly one shard (the executor) tallies each channel, so the merge
  // is a gather through the executor-local dense index, not a sum.
  merged_link_busy_.assign(net_->channel_count(), 0);
  for (std::uint32_t c = 0; c < net_->channel_count(); ++c) {
    merged_link_busy_[c] =
        shards_[channel_executor_[c]]->link_busy[exec_index_[c]];
  }
  telemetry_ = Telemetry{};
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    telemetry_.cross_shard_flits += sh.cross_flits;
    telemetry_.cross_shard_credits += sh.cross_credits;
    telemetry_.mailbox_peak = std::max(telemetry_.mailbox_peak, sh.mailbox_peak);
  }
  return result;
}

void ShardedFlowSim::capture_forensics() {
  forensics_.valid = true;
  forensics_.trip_cycle = shards_[0]->deadlock_cycle;
  forensics_.stuck_flits = shards_[0]->stuck_total;
  // Every blocked FIFO lives in exactly one shard's frozen arena; the
  // reports use serial FlowSim's global buffer ids, so the merged walk
  // (finalize_forensics sorts and follows cross-shard waiting_for edges)
  // names the same chain a serial run would.
  // A blocked buffer's blocked_since field pins its slot, so walking
  // live slots sees every blocked FIFO; finalize_forensics sorts the
  // reports, erasing the allocation-order walk.
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    sh.pool->for_each_live([&](std::uint32_t lb, std::uint32_t /*slot*/,
                               const FlitBufferPool::BufferSlot& sl) {
      if (sl.blocked_since_plus1 == 0) return;
      const std::uint32_t c = sh.channel_of_local_buf[lb];
      const std::uint32_t v =
          is_nic_[c] ? 0u : lb - buf_local_of_global_[buf_base_[c]];
      BlockedBufferReport report;
      report.buffer = buf_base_[c] + v;
      report.channel = c;
      report.occupancy = sl.size;
      report.blocked_since = sl.blocked_since_plus1 - 1;
      if (sl.size > 0) {
        const FlitRef head = sh.pool->front(lb);
        if (head.flit_index > 0) {
          report.waiting_for = sl.out_alloc;  // global id already
        } else if (!dst_is_terminal_[c]) {
          const sim::Packet& packet = sh.packets.at(head.packet_slot);
          const std::uint32_t nc =
              routes_->router().next_channel(channel_dst_[c], packet);
          report.waiting_for =
              buf_base_[nc] + (is_nic_[nc] ? 0u : v % config_.vcs);
        }
      }
      forensics_.blocked.push_back(report);
    });
  }
  forensics_.tail = recorder_.tail(DeadlockForensics::kTailPoints);
  detail::finalize_forensics(forensics_);
}

std::size_t ShardedFlowSim::arena_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    if (sh.pool != nullptr) bytes += sh.pool->bytes();
    bytes += sh.packets.bytes();
    bytes += sh.channel_flits.capacity() * sizeof(std::uint32_t);
    bytes += (sh.acq_by_cycle.capacity() + sh.rel_by_cycle.capacity()) *
             sizeof(std::uint32_t);
    bytes += sh.link_busy.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

ArenaStats ShardedFlowSim::arena_stats() const noexcept {
  ArenaStats stats;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    if (sh.pool != nullptr) {
      stats.flit_arena_bytes += sh.pool->bytes();
      stats.resident_slots += sh.pool->resident_slots();
      stats.peak_slots += sh.pool->peak_slots();
      stats.spill_bytes += sh.pool->spill_bytes();
    }
    stats.packet_arena_bytes += sh.packets.bytes();
    stats.spill_bytes += sh.packets.spill_bytes();
  }
  return stats;
}

void ShardedFlowSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lookups = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t vc_stalls = 0;
  std::uint64_t busy_total = 0;
  std::vector<std::uint32_t> peak_per_vc(config_.vcs, 0);
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    injected += sh.injected;
    delivered += sh.delivered_packets;
    dropped += sh.dropped;
    lookups += sh.route_lookups;
    credit_stalls += sh.credit_stall_cycles;
    vc_stalls += sh.vc_stall_cycles;
    for (const auto b : sh.link_busy) busy_total += b;
    for (std::uint32_t v = 0; v < config_.vcs; ++v) {
      peak_per_vc[v] = std::max(peak_per_vc[v], sh.peak_per_vc[v]);
    }
  }
  m.counter("flow.sharded.runs").add(1);
  m.counter("flow.cycles").add(shards_[0]->cycles_run);
  m.counter("flow.packets.injected").add(injected);
  m.counter("flow.packets.delivered").add(delivered);
  m.counter("flow.packets.dropped").add(dropped);
  m.counter("flow.route.lookups").add(lookups);
  m.counter("flow.stall.credit_cycles").add(credit_stalls);
  m.counter("flow.stall.vc_cycles").add(vc_stalls);
  m.counter("flow.flits.transmitted").add(busy_total);
  std::uint32_t peak_flits = 0;
  for (const auto& shp : shards_) {
    peak_flits = std::max(peak_flits, shp->pool->peak_switch_flits());
  }
  m.gauge("flow.buffer.peak_flits").set(static_cast<std::int64_t>(peak_flits));
  if (shards_[0]->deadlocked) m.counter("flow.deadlocks").add(1);
  m.counter("flow.sharded.cross_shard_flits").add(telemetry_.cross_shard_flits);
  m.counter("flow.sharded.cross_shard_credits")
      .add(telemetry_.cross_shard_credits);
  m.gauge("flow.sharded.shards")
      .set(static_cast<std::int64_t>(plan_.shard_count));
  m.gauge("flow.sharded.mailbox_peak")
      .set(static_cast<std::int64_t>(telemetry_.mailbox_peak));
  m.gauge("flow.buffer.pool_bytes")
      .set(static_cast<std::int64_t>(arena_bytes()));
  for (std::uint32_t v = 0; v < config_.vcs; ++v) {
    m.gauge("flow.vc.peak_flits." + std::to_string(v))
        .set(static_cast<std::int64_t>(peak_per_vc[v]));
  }
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    m.gauge("flow.sharded.shard." + std::to_string(sh.index) + ".numa_node")
        .set(static_cast<std::int64_t>(sh.numa_node));
  }
  m.counter("flow.wall_us").add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

}  // namespace nbclos::flow
