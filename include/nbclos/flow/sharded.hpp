/// \file sharded.hpp
/// \brief Shard-partitioned cycle-level flow-control simulation:
///        per-(channel, VC) flit buffers, credit counters, and switch
///        state split into per-shard arenas with epoch-synchronized
///        flit / grant / credit exchange.
///
/// `ShardedFlowSim` splits a `FlowSim`-equivalent run across S shard
/// workers using the same deterministic out-channel-balanced vertex cut
/// (`sim::ShardPlan`) and SPSC mailbox / barrier-epoch machinery
/// (`sim/shard_exchange.hpp`) as `sim::ShardedSim` — refined from packet
/// granularity down to flits, credits, and claims.
///
/// State placement (two roles per shard):
///   * the OWNER of channel c — shard_of(src(c)) — holds every buffer of
///     c: flit storage, claim and credit-ledger entries, on/off signal,
///     out_alloc, next_vc, and stall bookkeeping.  Arrival pushes into a
///     buffer of c are made by whoever transmitted on the upstream
///     channel c' with dst(c') = src(c) — and that transmitter runs on
///     shard_of(dst(c')) = owner(c), so pushes are owner-local too;
///   * the EXECUTOR of channel c — shard_of(dst(c)) — makes c's
///     transmission decisions: it routes, scans downstream VCs, checks
///     and sets claims, checks backpressure, and consumes credits.  All
///     of that state belongs to buffers sourced at dst(c), which the
///     executor owns, so decisions never touch foreign arenas.
///
/// Per cycle, three phases over two barriers (plus one extra barrier at
/// watchdog epochs):
///
///   A. owner role — apply scheduled faults to the private DegradedView
///      copy, advance the credit ledger, land last cycle's wires (push
///      or eject), then send one *flit proposal* per non-empty VC of
///      each active channel to the channel's executor;
///   -- barrier 1 --
///   B. executor role — merge local + mailbox proposals into ascending
///      (channel, VC) order (each run arrives in that order), and replay
///      FlowSim::try_transmit's VC scan verbatim against local
///      claim/credit state; emit a *transmit
///      grant* (winner VC + per-VC stall masks) back to the owner, a
///      *credit return* for every pop from a switch buffer, and a local
///      wire for the moved flit;
///   -- barrier 2 --
///   C. owner role — apply grants in ascending channel order (pop the
///      winning flit, update out_alloc/next_vc, book stalls), drain
///      credit returns into the ledger's delay line (the ONLY driver of
///      schedule_return — credits flow opposite to flits, which is why
///      they need their own mailbox class), inject with the counter
///      RNG over owned terminals, latch on/off, record this cycle's
///      depth sum, and at watchdog epochs aggregate stuck-flit counts
///      across ALL shards before deciding (per-shard verdicts would
///      miss deadlocks whose cycle spans the cut).
///
/// Determinism contract: routing through the shared read-only
/// `RouteSource` (a `ChannelRouteCache` table or a pure arithmetic
/// router — both deterministic), counter-based injection, exact
/// integer statistic merges, and per-executor ascending channel order
/// (sorted prefix + merged tail; mailbox runs arrive ascending) make a
/// run **bit-identical to serial FlowSim with
/// `FlowConfig::counter_injection` at any shard count**, including under
/// mid-run fault schedules, for wormhole and VCT switching and credit
/// and on/off backpressure.  Per-executor order suffices because all
/// cross-channel interaction within a cycle — claims, credit
/// consumption — is confined to channels sharing a downstream vertex,
/// i.e. one executor.  tests/flow/test_flow_sharded.cpp asserts every
/// FlowResult field with EXPECT_EQ.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/config.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/sim/shard_exchange.hpp"
#include "nbclos/sim/traffic.hpp"

namespace nbclos::flow {

class ShardedFlowSim {
 public:
  /// Engine-health telemetry for one run (valid after run()).
  struct Telemetry {
    std::uint64_t cross_shard_flits = 0;    ///< flit proposals via mailboxes
    std::uint64_t cross_shard_credits = 0;  ///< credit returns via mailboxes
    std::uint64_t mailbox_peak = 0;  ///< max messages in one box drain
  };

  /// Same contract as FlowSim plus the shard count; `degraded` seeds one
  /// PRIVATE DegradedView copy per shard (the same `fault_events`
  /// schedule is applied to every copy at the same cycles, so they never
  /// diverge).  Injection always uses the counter-based RNG; pinning and
  /// first-touch arena placement follow `FlowConfig::pin_shards`.
  ShardedFlowSim(std::shared_ptr<const RouteSource> routes,
                 const sim::TrafficPattern& traffic, FlowConfig config,
                 std::uint32_t shards,
                 const fault::DegradedView* degraded = nullptr,
                 std::vector<fault::FaultEvent> fault_events = {});
  ~ShardedFlowSim();

  ShardedFlowSim(const ShardedFlowSim&) = delete;
  ShardedFlowSim& operator=(const ShardedFlowSim&) = delete;

  /// Run warmup + measurement across all shard workers; returns the
  /// merged aggregate results (bit-identical at any shard count).
  [[nodiscard]] FlowResult run();

  /// Flits transmitted per channel, summed across shards.  Valid after
  /// run() (FlowSim::link_busy_flits parity).
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const {
    return merged_link_busy_;
  }

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return plan_.shard_count;
  }
  [[nodiscard]] const sim::ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Telemetry& telemetry() const noexcept {
    return telemetry_;
  }
  /// Resident bytes of the per-shard flit/credit arenas.
  [[nodiscard]] std::size_t arena_bytes() const noexcept;
  /// Flit/packet arena accounting summed over shards (FlowSim parity).
  /// Valid after run() — pools live until the engine is destroyed.
  [[nodiscard]] ArenaStats arena_stats() const noexcept;

  /// The per-epoch time-series recorder (inactive unless
  /// FlowConfig::record_timeseries).  Every shard samples the same
  /// global cycles into its own slot; the kInvariant series merge
  /// bit-identically to a serial FlowSim recording at any shard count.
  /// Valid after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

  /// Deadlock forensics, merged across shards into serial FlowSim's
  /// global buffer id space — valid (forensics().valid) only when the
  /// watchdog tripped.  Valid after run().
  [[nodiscard]] const DeadlockForensics& forensics() const {
    return forensics_;
  }

 private:
  struct Shard;

  /// Owner -> executor, one per non-empty VC of an active channel: the
  /// VC's front flit (packet inline — flit storage never crosses the
  /// cut) plus the owner-side state the executor's replayed VC scan
  /// needs.
  struct FlitProposal {
    std::uint32_t channel = 0;
    std::uint32_t flit_index = 0;
    std::uint32_t out_alloc = 0;  ///< body flits: global downstream buffer
    sim::Packet packet;
    std::uint8_t vc = 0;
    std::uint8_t start_vc = 0;  ///< owner's next_vc round-robin start
  };

  /// Executor -> owner: the arbitration outcome for one channel this
  /// cycle — which VC won (if any) and which attempted VCs stalled, and
  /// why (masks indexed by VC).
  struct TransmitGrant {
    std::uint32_t channel = 0;
    std::uint32_t new_out_alloc = 0;  ///< head transmit: claimed buffer
    std::uint32_t credit_block_mask = 0;
    std::uint32_t vc_block_mask = 0;
    std::uint8_t winner_vc = 0;  ///< kNoWinner when every VC stalled
  };

  /// Executor -> owner, one per flit popped from a switch buffer: the
  /// freed slot's credit flows back upstream — opposite to the flit —
  /// and is the ONLY driver of the owner's CreditLedger::schedule_return
  /// (and OnOffSignal::mark_dirty in on/off mode).
  struct CreditReturn {
    std::uint32_t buffer = 0;  ///< global buffer id
  };

  void run_shard(std::uint32_t s);
  void init_shard_arena(std::uint32_t s);
  void phase_owner_pre(Shard& sh, std::uint64_t now, bool measuring);
  void phase_execute(Shard& sh, std::uint64_t now);
  void phase_owner_post(Shard& sh, std::uint64_t now);
  [[nodiscard]] bool epoch_watchdog(Shard& sh, std::uint64_t now);
  void eject_flit(Shard& sh, const sim::Packet& packet,
                  std::uint32_t flit_index, std::uint64_t now, bool measuring);
  /// Executor-side head-flit downstream (channel, VC) allocation against
  /// local claim/backpressure state; FlowSim::allocate_downstream replica.
  std::uint32_t allocate_downstream(Shard& sh, std::uint32_t from_vc,
                                    const sim::Packet& packet,
                                    std::uint32_t at_vertex,
                                    bool* credit_block);
  void apply_grant(Shard& sh, const TransmitGrant& grant, std::uint64_t now);
  void note_blocked(Shard& sh, std::uint32_t global_b, bool credit_block,
                    std::uint64_t now);
  void note_unblocked(Shard& sh, std::uint32_t global_b, std::uint64_t now);
  [[nodiscard]] bool backpressure_ok(const Shard& sh, std::uint32_t local_b,
                                     std::uint32_t reservation) const;
  /// Audits live slots only (never-activated buffers hold full credits
  /// trivially); uses the shard's hoisted audit scratch, hence non-const.
  [[nodiscard]] bool local_credit_conservation_holds(Shard& sh) const;
  [[nodiscard]] FlowResult merge_results();
  void flush_obs(double wall_seconds);
  void arm_recorder();
  void sample_recorder(Shard& sh, std::uint64_t now);
  /// Merge every shard's frozen blocked-FIFO picture (after the workers
  /// have joined) into one global forensics report.
  void capture_forensics();

  std::shared_ptr<const RouteSource> routes_;
  const Network* net_;
  const sim::TrafficPattern* traffic_;
  FlowConfig config_;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  const fault::DegradedView* degraded_ = nullptr;  ///< copied per shard
  sim::ShardPlan plan_;
  std::uint32_t terminal_count_ = 0;
  double packet_rate_ = 0.0;
  std::uint32_t head_reservation_ = 1;

  // Shared read-only per-channel / per-buffer facts, computed once in
  // the constructor (the GLOBAL buffer id space is exactly serial
  // FlowSim's assignment, so diagnostics and messages agree with it).
  std::vector<std::uint32_t> buf_base_;
  std::vector<std::uint8_t> is_nic_;
  std::vector<std::uint32_t> channel_dst_;
  std::vector<std::uint8_t> dst_is_terminal_;
  std::vector<std::uint8_t> channel_executor_;  ///< shard_of(dst(c))
  /// Dense index of c among its executor's executed channels (ascending
  /// c) — per-shard link-busy tallies are executor-local so their size
  /// tracks channels / S, not S full copies of the fabric.
  std::vector<std::uint32_t> exec_index_;
  std::vector<std::uint32_t> buf_local_of_global_;
  std::uint32_t switch_buffer_count_ = 0;
  std::uint64_t switch_channel_count_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  sim::MailboxGrid<FlitProposal> proposal_box_;
  sim::MailboxGrid<TransmitGrant> grant_box_;
  sim::MailboxGrid<CreditReturn> credit_box_;

  /// Watchdog epoch aggregation slots: shard s writes its local
  /// {flits in system, flits moved} here, one extra barrier makes them
  /// visible, and every shard reduces the SAME totals — the aggregated
  /// verdict a per-shard scan would get wrong for deadlock cycles that
  /// span the cut.  (Per-shard in-system counts can be negative: a
  /// shard that ejects packets injected elsewhere only ever decrements.)
  struct EpochStat {
    std::int64_t flits_in_system = 0;
    std::uint64_t flits_moved = 0;
  };
  std::vector<EpochStat> epoch_stats_;

  std::unique_ptr<sim::ShardSync> sync_;
  sim::NumaTopology numa_;
  Telemetry telemetry_;
  std::vector<std::uint64_t> merged_link_busy_;
  obs::FlightRecorder recorder_;
  obs::FlightRecorder::SeriesId rec_in_system_ = 0;
  obs::FlightRecorder::SeriesId rec_buffer_occupancy_ = 0;
  obs::FlightRecorder::SeriesId rec_credit_stalls_ = 0;
  obs::FlightRecorder::SeriesId rec_vc_stalls_ = 0;
  obs::FlightRecorder::SeriesId rec_blocked_heads_ = 0;
  obs::FlightRecorder::SeriesId rec_injected_ = 0;
  obs::FlightRecorder::SeriesId rec_delivered_ = 0;
  obs::FlightRecorder::SeriesId rec_mailbox_flits_ = 0;
  obs::FlightRecorder::SeriesId rec_mailbox_credits_ = 0;
  obs::FlightRecorder::SeriesId rec_mailbox_peak_ = 0;
  DeadlockForensics forensics_;
  bool ran_ = false;
};

}  // namespace nbclos::flow
