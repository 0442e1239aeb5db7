/// \file engine.hpp
/// \brief Cycle-level flow-control simulator: finite per-VC flit
///        buffers, credit / on-off backpressure, wormhole or
///        virtual-cut-through switching.
///
/// FlowSim refines sim::PacketSim from packet granularity down to flits.
/// Where PacketSim teleports a whole packet into an (effectively sized)
/// output queue, FlowSim moves one flit per channel per cycle between
/// *finite* output FIFOs and blocks the upstream flit in place when the
/// downstream FIFO has no room — which is exactly how head-of-line
/// blocking, credit stalls, buffer-induced tree saturation, and wormhole
/// deadlock arise in real folded-Clos routers (the effects the paper's
/// ideal-switch Theorems 1-3 abstract away).
///
/// Model (output-buffered, Dally & Towles conventions):
///   * every channel c owns `vcs` flit FIFOs at its source vertex; a
///     flit transmitted on c lands one cycle later in the downstream
///     FIFO its packet holds, or is ejected if dst(c) is a terminal;
///   * a head flit must first allocate a downstream (channel, VC):
///     the route comes from the shared flow::RouteSource (a
///     ChannelRouteCache table or a pure O(1) router), the
///     VC from a first-free scan starting at the packet's current VC,
///     and the VC is *claimed* until the tail flit arrives — packets
///     never interleave inside a FIFO, and a buffer has at most one
///     writer in flight (what makes the occupancy bounds provable);
///   * wormhole: one free downstream slot admits the head, so a blocked
///     worm spans routers and holds its claims (the deadlock mechanism);
///     virtual cut-through: the head waits for the whole packet's worth
///     of space, so a stalled packet always fits in one router;
///   * backpressure is credit-based (conservative counters, delayed
///     returns) or on/off (stop bit, 1-cycle signal delay) — see
///     credits.hpp for the occupancy-bound arguments;
///   * terminal NIC send queues stay unbounded and injection mirrors
///     PacketSim's RNG call sequence exactly, which is what makes the
///     cross-engine golden equivalence test possible (see
///     FlowConfig::ideal_reference).
///
/// Per cycle: credit returns -> wire arrivals -> transmissions ->
/// injection -> on/off latch -> depth sample -> watchdog.  All iteration
/// orders are fixed (active lists swept in ascending channel id as a
/// sorted prefix + merged tail, the PacketSim discipline), so runs are
/// bit-reproducible from seeds and sweeps are thread-count independent.
///
/// The deadlock watchdog is the robustness backstop: if a whole epoch
/// passes with flits in the system but none transmitted, the run stops
/// with a diagnostic instead of hanging — wormhole configurations on
/// cyclic channel dependencies *should* trip it (see tests/flow).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/buffers.hpp"
#include "nbclos/flow/config.hpp"
#include "nbclos/flow/credits.hpp"
#include "nbclos/flow/route_source.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/stats.hpp"
#include "nbclos/util/sweep_order.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::flow {

struct FlowResult {
  // Fields shared with sim::SimResult (same names, same semantics, same
  // arithmetic) — the golden equivalence tests compare these across
  // engines field by field.
  double offered_load = 0.0;          ///< config injection rate
  double accepted_throughput = 0.0;   ///< ejected flits/terminal/cycle
  double mean_latency = 0.0;          ///< cycles, tail ejection - injection
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double p999_latency = 0.0;
  double latency_bucket_width = 1.0;
  std::uint64_t injected_packets = 0;
  std::uint64_t delivered_packets = 0;
  /// Packets refused at injection because the source NIC uplink was dead
  /// (fail-stop fault model: in-network flits are never purged — they
  /// block in place and eventually trip the watchdog; only packets that
  /// cannot even enter the network are dropped).
  std::uint64_t dropped_packets = 0;
  /// Time-average flits queued per switch output channel (all VCs of a
  /// channel summed) — with 1-flit packets and vcs = 1 this is unit-for-
  /// unit PacketSim's mean_switch_queue_depth.
  double mean_switch_queue_depth = 0.0;
  double min_flow_throughput = 0.0;
  double max_flow_throughput = 0.0;

  // Flow-control-specific telemetry.
  std::uint64_t credit_stall_cycles = 0;  ///< head/body refused by backpressure
  std::uint64_t vc_stall_cycles = 0;      ///< head refused: no claimable VC
  double mean_stall_cycles = 0.0;         ///< per stall episode
  double p99_stall_cycles = 0.0;
  std::uint32_t peak_buffer_flits = 0;    ///< high-water switch FIFO occupancy
  std::uint64_t peak_live_packets = 0;    ///< high-water packets in system

  // Deadlock watchdog diagnostic (run stops at deadlock_cycle when set).
  bool deadlocked = false;
  std::uint64_t deadlock_cycle = 0;
  std::uint64_t stuck_flits = 0;
  std::vector<std::uint32_t> stuck_buffers;  ///< sample of occupied buffer ids

  /// accepted < 95% of offered — saturated at this load (PacketSim rule).
  [[nodiscard]] bool saturated() const {
    return accepted_throughput < 0.95 * offered_load;
  }
  /// Every field, bit-exact: the determinism contract across engines,
  /// shard counts and instrumentation states.
  friend bool operator==(const FlowResult&, const FlowResult&) = default;
};

/// One blocked FIFO in a deadlock forensics report: where its head is
/// stuck, what it is waiting for, and since when.
struct BlockedBufferReport {
  /// waiting_for when the wait target is unknown (empty FIFO, or a
  /// terminal-bound head, which never blocks downstream).
  static constexpr std::uint32_t kWaitsOnNone = UINT32_MAX;

  std::uint32_t buffer = 0;   ///< global buffer id (serial FlowSim's space)
  std::uint32_t channel = 0;  ///< channel owning the buffer
  std::uint32_t occupancy = 0;  ///< flits queued in the FIFO at the trip
  /// The downstream buffer the head flit needs space in: the worm's
  /// out_alloc for body flits, the allocation scan's first candidate for
  /// a head still waiting to claim a VC.
  std::uint32_t waiting_for = kWaitsOnNone;
  std::uint64_t blocked_since = 0;  ///< cycle the stall episode began
  bool on_cycle = false;  ///< member of the circular-wait chain, if any
};

/// Stall forensics captured when the deadlock watchdog trips: every
/// genuinely blocked FIFO (capped at kMaxBlocked, circular-wait members
/// kept preferentially), the circular-wait chain found by following the
/// waiting_for edges, and the last kTailPoints samples of each
/// flight-recorder series — "what the system looked like just before it
/// stopped".  The chain walk is exact for body flits (the worm's
/// out_alloc IS the wait edge) and first-candidate for blocked heads,
/// which with one VC — the classic wormhole-deadlock configuration — is
/// exact too.
struct DeadlockForensics {
  static constexpr std::size_t kTailPoints = 16;
  static constexpr std::size_t kMaxBlocked = 32;

  bool valid = false;  ///< set iff the watchdog tripped
  std::uint64_t trip_cycle = 0;
  std::uint64_t stuck_flits = 0;
  std::vector<BlockedBufferReport> blocked;  ///< ascending buffer id
  /// Buffers forming one circular wait (first found, walk order), empty
  /// when the blocked set is acyclic inside the report.
  std::vector<std::uint32_t> wait_cycle;
  std::vector<obs::MergedSeries> tail;  ///< recorder tail at the trip
};

namespace detail {
/// Shared forensics finisher (serial + sharded engines): sort the raw
/// blocked list by buffer id, find a circular wait by following the
/// waiting_for edges, mark its members, and cap the list keeping chain
/// members preferentially.
void finalize_forensics(DeadlockForensics& forensics);
}  // namespace detail

class FlowSim {
 public:
  /// The route source pins the Network and the routing; it is shared
  /// read-only across the sweep workers, so it arrives as a shared_ptr.
  /// With an arithmetic router no O(T^2) pair table is ever built, which
  /// is what lets a run reach 10^6 terminals.
  ///
  /// Optional faults: `degraded` seeds a PRIVATE copy of the liveness
  /// mask (the caller's view is never mutated — unlike PacketSim) and
  /// `fault_events` are applied to the copy at their scheduled cycles.
  /// Semantics are fail-stop blocking: a dead channel transmits nothing
  /// (its flits wait in place — deadlock territory, by design), a head
  /// flit whose route leads into a dead channel stalls as a credit
  /// block, and only injection onto a dead NIC uplink drops the packet
  /// (FlowResult::dropped_packets).
  FlowSim(std::shared_ptr<const RouteSource> routes,
          const sim::TrafficPattern& traffic, FlowConfig config,
          const fault::DegradedView* degraded = nullptr,
          std::vector<fault::FaultEvent> fault_events = {});

  /// Run warmup + measurement; returns aggregate results.  Stops early
  /// (with result.deadlocked set) if the watchdog trips.
  [[nodiscard]] FlowResult run();

  /// Flits transmitted per channel over the whole run.  Valid after run().
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const {
    return link_busy_flits_;
  }

  /// Credit-conservation audit over every switch buffer:
  /// credits + occupancy + in-flight + pending returns == capacity.
  /// Checked internally at every watchdog epoch and at end of run; public
  /// so tests can probe it mid-run too.  \pre credit backpressure mode.
  [[nodiscard]] bool credit_conservation_holds() const;

  /// The per-epoch time-series recorder (inactive unless
  /// FlowConfig::record_timeseries).  Valid after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

  /// Deadlock forensics — valid (forensics().valid) only when the
  /// watchdog tripped.  Valid after run().
  [[nodiscard]] const DeadlockForensics& forensics() const {
    return forensics_;
  }

  /// Flit/packet arena accounting (slab residency, spill) — valid any
  /// time; benches and the CLI manifest read it after run().
  [[nodiscard]] ArenaStats arena_stats() const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::uint32_t kEject = UINT32_MAX;  ///< wire target
  static constexpr std::uint64_t kNotBlocked = UINT64_MAX;

  /// The flit a channel transmitted last cycle, landing this cycle.  At
  /// most one per channel (one flit per channel per cycle), and at most
  /// one wire targets any given buffer (the claim serializes writers).
  /// Kept as a compact list instead of a dense per-channel array: the
  /// set of busy wires tracks live flits, not fabric size.
  struct BusyWire {
    std::uint32_t channel = 0;
    std::uint32_t target = 0;  ///< downstream buffer id, or kEject
    FlitRef flit;
  };

  void step_arrivals();
  void step_transmissions();
  void step_injection();
  /// Build and enqueue one packet from terminal t to dst (or drop it if
  /// the NIC uplink is dead) — shared by both injection RNG modes.
  void inject_packet(std::uint32_t t, std::uint32_t dst);
  /// Apply every scheduled fault whose cycle has arrived to the private
  /// degraded copy.  No queue purging (fail-stop blocking semantics).
  void apply_due_faults();
  [[nodiscard]] bool channel_usable(std::uint32_t c) const {
    return !degraded_.has_value() || degraded_->channel_alive(c);
  }
  /// Land one flit at its destination terminal; frees the packet slot on
  /// the tail.
  void eject(FlitRef flit);
  /// Try to move one flit on channel `c` (VC round-robin); returns true
  /// if a flit was transmitted.
  bool try_transmit(std::uint32_t c);
  /// Head-flit downstream (channel, VC) allocation; returns the claimed
  /// buffer id or kNone (stall reasons accumulated into the counters).
  std::uint32_t allocate_downstream(std::uint32_t from_vc,
                                    const sim::Packet& packet,
                                    std::uint32_t at_vertex, bool* credit_block);
  [[nodiscard]] bool backpressure_ok(std::uint32_t b,
                                     std::uint32_t reservation) const;
  void note_blocked(std::uint32_t b, bool credit_block);
  void note_unblocked(std::uint32_t b);
  /// True when the watchdog detects a whole epoch without forward
  /// progress while flits remain in the system.
  bool watchdog_tripped();
  void fill_deadlock_diag(FlowResult& result) const;
  void flush_obs(double wall_seconds);
  void arm_recorder();
  void sample_recorder();
  /// Freeze the blocked-FIFO picture + recorder tail after a watchdog
  /// trip (the run loop has stopped; all state is final).
  void capture_forensics();

  std::shared_ptr<const RouteSource> routes_;
  const Network* net_;
  const sim::TrafficPattern* traffic_;
  FlowConfig config_;
  std::optional<fault::DegradedView> degraded_;  ///< private copy
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  std::size_t next_fault_ = 0;

  // Per-channel precomputed facts and state.
  std::vector<std::uint32_t> buf_base_;   ///< first buffer id of channel
  std::vector<std::uint8_t> is_nic_;      ///< source vertex is a terminal
  std::vector<std::uint32_t> channel_dst_;
  std::vector<std::uint8_t> dst_is_terminal_;
  std::vector<std::uint32_t> next_vc_;    ///< round-robin VC arbiter state
  std::vector<BusyWire> busy_wires_;      ///< flits in flight this cycle
  std::vector<std::uint32_t> channel_flits_;  ///< queued flits per channel

  // Active-channel list: exactly the channels with queued flits, swept
  // in ascending id order (bit-reproducibility) — sorted prefix + merged
  // tail.
  SweepList active_;

  // Buffer id space (switch buffers first, then NIC buffers).  All
  // per-buffer *state* lives slot-sparse in pool_; only the id→channel
  // decoding tables remain, and those are per channel, not per buffer.
  std::vector<std::uint32_t> channel_of_switch_idx_;  ///< switch index -> c
  std::vector<std::uint32_t> channel_of_nic_idx_;     ///< NIC index -> c
  std::uint32_t switch_buffer_count_ = 0;
  std::uint64_t switch_channel_count_ = 0;

  [[nodiscard]] std::uint32_t owner_channel_of(std::uint32_t b) const {
    return b < switch_buffer_count_
               ? channel_of_switch_idx_[b / config_.vcs]
               : channel_of_nic_idx_[b - switch_buffer_count_];
  }

  FlitBufferPool pool_;
  PacketPool packets_;
  std::unique_ptr<CreditLedger> ledger_;   ///< credit mode only
  std::unique_ptr<OnOffSignal> onoff_;     ///< on/off mode only
  std::uint32_t head_reservation_ = 1;

  Xoshiro256 rng_;
  std::uint64_t now_ = 0;
  std::uint64_t next_packet_id_ = 0;
  double packet_rate_ = 0.0;  ///< injection_rate / packet_flits
  std::vector<std::uint32_t> terminal_vertices_;
  std::vector<std::uint64_t> flow_sequence_;  ///< per source terminal

  bool measuring_ = false;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t dropped_ = 0;  ///< packets refused at a dead NIC uplink
  std::uint64_t delivered_measured_flits_ = 0;
  std::vector<std::uint64_t> delivered_per_source_;  ///< measured flits
  RunningStats latency_;
  /// Exact integer latency accumulators: under counter_injection the
  /// reported mean is latency_sum_/latency_count_ (order-independent, so
  /// it matches ShardedFlowSim's shard-merged mean bit-for-bit) instead
  /// of the Welford stream above.
  std::uint64_t latency_sum_ = 0;
  std::uint64_t latency_count_ = 0;
  QuantileHistogram latency_hist_;
  RunningStats queue_depth_samples_;

  // Flow-control telemetry.
  std::uint64_t credit_stall_cycles_ = 0;
  std::uint64_t vc_stall_cycles_ = 0;
  RunningStats stall_stats_;         ///< per-episode durations
  /// Integer stall accumulators, same role as latency_sum_/count_ above.
  std::uint64_t stall_duration_sum_ = 0;
  std::uint64_t stall_episode_count_ = 0;
  QuantileHistogram stall_hist_;
  std::vector<std::uint32_t> peak_per_vc_;  ///< per VC index, switch buffers
  std::uint64_t peak_live_packets_ = 0;

  // Watchdog.
  std::uint64_t flits_in_system_ = 0;
  std::uint64_t flits_moved_epoch_ = 0;
  bool deadlocked_ = false;
  /// Conservation-audit scratch, indexed by pool slot id; hoisted out of
  /// credit_conservation_holds so epoch audits do not allocate.
  mutable std::vector<std::uint64_t> audit_in_flight_;

  // Observability (never feeds back into simulation state).
  std::vector<std::uint64_t> link_busy_flits_;
  std::uint64_t route_lookups_ = 0;
  /// Stall-latency histogram handle, resolved once at construction (the
  /// registry lookup never runs on the hot path).
  obs::HistogramMetric* stall_metric_ = nullptr;
  /// FIFOs currently inside a stall episode (blocked_since_ set) — the
  /// flight recorder's blocked-head series; partitions additively across
  /// shards because every buffer has exactly one owner.
  std::uint64_t blocked_heads_ = 0;
  obs::FlightRecorder recorder_;
  obs::FlightRecorder::SeriesId rec_in_system_ = 0;
  obs::FlightRecorder::SeriesId rec_buffer_occupancy_ = 0;
  obs::FlightRecorder::SeriesId rec_credit_stalls_ = 0;
  obs::FlightRecorder::SeriesId rec_vc_stalls_ = 0;
  obs::FlightRecorder::SeriesId rec_blocked_heads_ = 0;
  obs::FlightRecorder::SeriesId rec_injected_ = 0;
  obs::FlightRecorder::SeriesId rec_delivered_ = 0;
  DeadlockForensics forensics_;
};

/// Run one FlowSim per injection rate over `pool` (nullptr = serial).
/// Each run is fully determined by its config, so the results are
/// field-for-field identical at any thread count.
[[nodiscard]] std::vector<FlowResult> flow_load_sweep(
    const std::shared_ptr<const RouteSource>& routes,
    const sim::TrafficPattern& traffic, const FlowConfig& base,
    const std::vector<double>& rates, ThreadPool* pool);

}  // namespace nbclos::flow
