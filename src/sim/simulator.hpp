// Cycle-accurate flit-level wormhole-routing simulator.
//
// Implements exactly the model of the paper's Section 3:
//   1. nodes generate messages of arbitrary length at any rate (the caller
//      supplies any multiset of MessageSpecs);
//   2. a message arriving at its destination is eventually consumed (the
//      sink accepts one flit per cycle, unconditionally);
//   3/4. atomic buffer allocation — a channel queue holds flits of at most
//      one message, and must transmit the current message's last flit before
//      accepting another header;
//   5. arbitration among simultaneous requests is a pluggable policy; the
//      default (FIFO) is starvation-free, and PriorityArbitration realizes
//      the paper's adversarial tie-breaking.
//
// Timing model (synchronous, one network clock — Section 3's "same network
// cycle time"; a message's release_time is its only timing input, and
// Section 6's delay adversary lives in the deadlock search, which withholds
// grants through step_with_grants):
//   - each channel transmits at most one flit per cycle;
//   - a flit may enter a buffer slot vacated in the same cycle by the flit
//     ahead of it in the same worm (standard wormhole pipelining), because
//     data shifts are processed downstream-first;
//   - a channel released by a *tail* flit this cycle accepts a new header
//     no earlier than the next cycle (atomic allocation);
//   - header acquisition of a free channel is decided by arbitration among
//     the headers requesting it this cycle.
//
// Deadlock detection: the simulation is deterministic, so if a cycle passes
// with no state change (no flit moved/injected/consumed, no pending release
// times in the future), the state is frozen forever; if undelivered
// messages remain this is precisely a deadlock (Definition 6). The detector
// also reports the wait-for cycle among the frozen messages for diagnostics.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/adaptive.hpp"
#include "routing/routing.hpp"
#include "sim/arbitration.hpp"
#include "sim/types.hpp"

namespace wormsim::sim {

/// run() has one engine, the event-driven loop. This enum and
/// SimConfig::core stay only because the end-to-end benchmark (bench/e2e)
/// assigns `config.core = SimCore::kEvent`; nothing reads the field.
enum class SimCore : std::uint8_t {
  kEvent,
};

struct SimConfig {
  /// Flit-buffer depth of every channel queue. The paper's deadlock
  /// arguments use depth 1 as the adversarial worst case.
  std::uint32_t buffer_depth = 1;
  /// Hard cycle limit for run().
  Cycle max_cycles = 1'000'000;
  /// Run per-cycle structural invariant checks (tests enable this; costs
  /// O(messages + channels) per cycle).
  bool check_invariants = false;
  /// Inert: kept only for the benchmark's assignment (see SimCore).
  SimCore core = SimCore::kEvent;
};

/// The event-driven run core's scheduler counters, declared in obs with
/// their counter table so the heartbeat and the reports loop over it.
using EventCoreStats = obs::EventCoreStats;

/// Per-message outcome statistics.
struct MessageStats {
  MessageStatus status = MessageStatus::kPending;
  Cycle inject_cycle = 0;   ///< header entered its first channel
  Cycle deliver_cycle = 0;  ///< header consumed at the destination
  Cycle consume_cycle = 0;  ///< tail flit consumed
  std::uint32_t hops = 0;   ///< channels traversed by the header
};

/// Result of a completed run().
struct RunResult {
  RunOutcome outcome = RunOutcome::kHorizon;
  Cycle cycles = 0;
  /// Messages participating in a wait-for cycle at deadlock (empty unless
  /// outcome == kDeadlock and a cycle was identified).
  std::vector<MessageId> deadlock_cycle;
};

/// Snapshot of one message's channel occupancy (analysis::Configuration is
/// built from these).
struct MessageOccupancy {
  MessageId message;
  MessageStatus status;
  /// Channels currently holding flits of this message (path order,
  /// upstream -> downstream). The last one is the leading channel while the
  /// header is in flight.
  std::vector<ChannelId> held;
  /// Flits buffered in each held channel (parallel to `held`).
  std::vector<std::uint32_t> counts;
  /// The channel the header is blocked on, if blocked on an occupied channel.
  ChannelId blocked_on = ChannelId::invalid();
};

/// One header's request set for this cycle: the free channels it may enter.
/// Used by the model-checking interface (analysis::find_deadlock) to
/// enumerate adversarial arbitration outcomes. In the paper's synchronous
/// model an in-flight (moving) header with a free candidate MUST be granted
/// one of them; pending headers may stay ungranted (the adversary controls
/// generation times). Oblivious algorithms always have exactly one
/// candidate; adaptive algorithms may offer several.
struct MessageRequests {
  MessageId message;
  bool moving = false;   ///< kMoving (vs kPending injection request)
  std::vector<ChannelId> channels;  ///< free candidates, sorted
};

class WormholeSimulator {
 public:
  /// The network/algorithm/policy must outlive the simulator. Simulators are
  /// copyable so reachability searches can fork states.
  WormholeSimulator(const routing::RoutingAlgorithm& alg, SimConfig config,
                    const ArbitrationPolicy& policy);

  /// Constructs without a policy; only step_with_grants() may be used.
  WormholeSimulator(const routing::RoutingAlgorithm& alg, SimConfig config);

  /// Adaptive-routing variants of the two constructors above.
  WormholeSimulator(const routing::AdaptiveRouting& alg, SimConfig config,
                    const ArbitrationPolicy& policy);
  WormholeSimulator(const routing::AdaptiveRouting& alg, SimConfig config);

  [[nodiscard]] const topo::Network& net() const { return alg_->net(); }

  /// Adds a message before or during simulation; returns its id (dense,
  /// in insertion order). Messages whose release_time is in the past are
  /// eligible immediately.
  MessageId add_message(MessageSpec spec);

  /// Advances one cycle using the arbitration policy. Returns true if any
  /// state changed.
  bool step();

  /// The requests that would be raised next cycle, grouped by message.
  /// Non-mutating (works on an internal copy).
  [[nodiscard]] std::vector<MessageRequests> peek_requests() const;

  /// peek_requests() into a caller-owned buffer: `out` is overwritten (its
  /// entries — and their channel vectors — are reused in place, so a search
  /// that recycles the buffer across states stops allocating once warm).
  void peek_requests_into(std::vector<MessageRequests>& out) const;

  /// Advances one cycle with an explicit grant assignment instead of the
  /// policy: `grants` maps channel -> winning message, and every entry must
  /// correspond to an actual request this cycle. Channels absent from the
  /// map are granted to nobody. Returns true if any state changed.
  bool step_with_grants(
      std::span<const std::pair<ChannelId, MessageId>> grants);

  /// step_with_grants() for callers whose grants are legal by construction
  /// — the deadlock search, whose assignment generator only emits grant
  /// tuples drawn from peek_requests(). Skips the per-cycle request
  /// re-derivation, grant validation, and arbitration bookkeeping (waiting
  /// flags, busy-cycle counters, the request list), none of which affect
  /// the state key or future transitions. Requires release_time == 0 on
  /// every message (the search's scenario contract; asserted in debug
  /// builds) — under that contract the return value and the resulting
  /// state are identical to the checked step. Witness replays keep using
  /// the checked step_with_grants, so every reported deadlock is still
  /// revalidated grant by grant.
  bool step_with_grants_trusted(
      std::span<const std::pair<ChannelId, MessageId>> grants);

  /// True when every message has been fully consumed.
  [[nodiscard]] bool all_consumed() const;

  /// Canonical serialization of the time-independent simulation state: one
  /// segment per message, in message order — a status byte, then LEB128
  /// varints of flits_injected, flits_consumed, released and the acquired
  /// path length, then a (channel id, flits exited) varint pair for each
  /// channel the message still holds. Channel ownership and occupancy are
  /// not stored: a channel's owner is the message whose held suffix lists
  /// it, and its flit count is the flits that entered it minus those that
  /// left. Varints are prefix-free, so equal keys mean equal field
  /// sequences. Two states with equal keys behave identically under
  /// identical future grant choices, so reachability searches may memoize
  /// on it. Release times must be in the past for the key to be sound; the
  /// model checker enforces that by construction.
  [[nodiscard]] std::string state_key() const;

  /// The one key writer: serializes the key from scratch and appends its
  /// bytes to `out` without clearing it. The deadlock search calls it once
  /// per registered state, into one scratch buffer per worker that it
  /// reuses across millions of states (the bounded-delay model appends its
  /// spent-delay suffix after it), so a lookup allocates no heap string.
  void append_state_key(std::string& out) const;

  /// Runs until every message is consumed, a deadlock, or max_cycles.
  /// Event-driven: only messages with pending work (requests, draining
  /// flits, release expirations) are visited, idle spans are jumped over,
  /// and parked headers wake on channel release. The result, trace stream
  /// and final state are those of a loop of step() calls that stops at the
  /// first cycle with no progress (tests/sim/event_core_test.cpp pins
  /// them against that loop).
  RunResult run();

  [[nodiscard]] Cycle now() const { return cycle_; }
  /// The cycle limit run() stops at (SimConfig::max_cycles).
  [[nodiscard]] Cycle max_cycles() const { return config_.max_cycles; }
  [[nodiscard]] std::size_t message_count() const { return messages_.size(); }
  [[nodiscard]] const MessageStats& stats(MessageId m) const;
  [[nodiscard]] MessageStatus status(MessageId m) const;
  [[nodiscard]] const MessageSpec& spec(MessageId m) const;

  /// Occupancy snapshot for all in-flight messages.
  [[nodiscard]] std::vector<MessageOccupancy> occupancy() const;

  /// Owner of channel `c`, or invalid if free.
  [[nodiscard]] MessageId channel_owner(ChannelId c) const;

  /// Buffered flit count of channel `c`.
  [[nodiscard]] std::uint32_t channel_count(ChannelId c) const;

  /// Total flits moved across all channels so far: every channel entry,
  /// so a flit counts once per hop (activity metric).
  [[nodiscard]] std::uint64_t flits_moved() const { return flits_moved_; }

  /// Flits consumed by their destinations so far, partly drained worms
  /// included. Summed over the messages on each call.
  [[nodiscard]] std::uint64_t flits_consumed() const;

  /// Cycles channel `c` has spent allocated to some message (utilization
  /// numerator; divide by now() for the utilization fraction).
  [[nodiscard]] std::uint64_t channel_busy_cycles(ChannelId c) const;

  /// run()'s scheduler counters (see EventCoreStats). All zero until
  /// run() has executed.
  [[nodiscard]] const EventCoreStats& event_stats() const {
    return event_stats_;
  }

  /// Typed trace sink, the simulator's one trace consumer; receives every
  /// obs::TraceEvent (including blocked / channel-acquire /
  /// channel-release, which obs::narrate leaves silent). The sink must
  /// outlive the simulator or be cleared with nullptr. Disabled tracing
  /// costs one branch per event site.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

 private:
  /// One acquired channel of a message's path.
  struct Hop {
    ChannelId channel;
    std::uint32_t exited = 0;  ///< flits that have left the channel
  };

  struct MessageState {
    MessageSpec spec;
    MessageStatus status = MessageStatus::kPending;
    std::vector<Hop> path;              ///< acquired channels in order
    std::size_t released = 0;           ///< prefix of path released
    std::uint32_t flits_injected = 0;   ///< flits that left the source
    std::uint32_t flits_consumed = 0;
    /// The header's one candidate for its next hop, once routed; cleared
    /// by acquire(). R(in, dst) depends only on the leading channel and
    /// the destination, so it stays valid until the path grows. Invalid
    /// while unrouted and for headers R offers several channels.
    ChannelId next_hop = ChannelId::invalid();
    Cycle waiting_since = 0;     ///< for FIFO arbitration fairness
    bool waiting = false;
    MessageStats stats;
  };

  struct ChannelState {
    MessageId owner;          ///< invalid when free
    std::uint32_t count = 0;  ///< buffered flits
    /// Cycle stamp of the last flit to enter this channel; a channel has
    /// transmitted this cycle iff entered_cycle == cycle_. A stamp instead
    /// of a bool removes the per-cycle O(channels) reset the old flag
    /// needed (the clock is strictly increasing, so stale stamps can never
    /// read as "transmitted"). 0 is safe as "never": moves start at cycle 1.
    Cycle entered_cycle = 0;
    /// Completed allocation intervals, in cycles. The live interval of a
    /// currently-owned channel is accounted lazily: acquire() records
    /// acquired_cycle, release adds (cycle_ - acquired_cycle), and
    /// channel_busy_cycles() adds the open interval on read — equivalent to
    /// the old per-cycle increment without the O(channels) sweep.
    std::uint64_t busy_cycles = 0;
    Cycle acquired_cycle = 0;  ///< start of the live interval (owner valid)
  };

  /// True when a flit entered `ch` this cycle (one flit per channel/cycle).
  [[nodiscard]] bool transmitted(const ChannelState& ch) const {
    return ch.entered_cycle == cycle_;
  }

  /// The channels the header of `m` may enter next; empty if the message is
  /// at its destination / not applicable.
  [[nodiscard]] std::vector<ChannelId> desired_channels(
      const MessageState& m) const;

  /// desired_channels into a reusable buffer (cleared first). The per-cycle
  /// request loops run this once per message; reusing one scratch vector
  /// keeps the search's innermost loop allocation-free. Reads m.next_hop
  /// when it is set instead of asking the routing algorithm again.
  void desired_channels_into(const MessageState& m,
                             std::vector<ChannelId>& out) const;

  /// What request_message decided for one message this cycle. step() folds
  /// these into a progress bit; run() additionally uses them to decide
  /// whether the message stays scheduled or goes dormant.
  enum class RequestOutcome : std::uint8_t {
    kIdle,           ///< Delivered/Consumed: no routing request possible
    kNotReleased,    ///< pending with release_time still in the future
    kAtDestination,  ///< header at its destination (consumption is a move)
    kRequested,      ///< >= 1 free candidate pushed into requests_
    kAllBusy,        ///< wants channels but every candidate is owned
  };

  /// Per-message request phase: gate on release time, maintain waiting
  /// bookkeeping, push free-candidate requests into requests_, emit the
  /// blocked trace event, and keep a single candidate in next_hop. Shared
  /// verbatim by step() and run() — this is what makes run() cycle-exact
  /// against a step() loop by construction.
  RequestOutcome request_message(std::size_t i);

  /// Phase 1 of step(): advance the clock, run request_message for every
  /// message. Returns whether any message is still waiting for its release.
  bool compute_requests();

  /// Resolves requests_ into per-message grants (set_grant) exactly like
  /// the policy arbitration documented at step(): one winner per contested
  /// channel, channels in ascending id order, requesters that already won
  /// a channel this cycle dropped. Reorders requests_ in place.
  void arbitrate_requests();

  /// Grants are stored cycle-stamped so neither step() nor run() pays an
  /// O(messages) clear per cycle: a grant is live only when its stamp
  /// equals cycle_.
  void ensure_grant_capacity() {
    if (granted_stamp_.size() < messages_.size()) {
      granted_scratch_.resize(messages_.size(), ChannelId::invalid());
      granted_stamp_.resize(messages_.size(), 0);
    }
  }
  void set_grant(std::size_t i, ChannelId c) {
    granted_scratch_[i] = c;
    granted_stamp_[i] = cycle_;
  }
  [[nodiscard]] ChannelId grant_of(std::size_t i) const {
    return granted_stamp_[i] == cycle_ ? granted_scratch_[i]
                                       : ChannelId::invalid();
  }

  /// Phase 2: execute header grants, consumption, data shifts, injection
  /// for every message (grants read via grant_of).
  bool execute_moves();

  /// Phase 2 for one message; returns whether any of its flits moved.
  /// Message moves are independent within a cycle (grants are precomputed,
  /// and shift/injection state is confined to channels the message owns),
  /// so run() may call this for scheduled messages only.
  bool move_message(std::size_t i);

  /// run()'s deadlock epilogue: fills outcome/cycles/deadlock_cycle.
  void fill_deadlock_result(RunResult& result);

  void acquire(MessageId id, MessageState& m, ChannelId c);
  void note_exit(MessageId id, MessageState& m, std::size_t path_index);
  /// Appends a just-released channel to the live run's freed list so
  /// parked headers waiting on it wake next cycle. Out of line because
  /// EventScheduler is opaque here; only reached when sched_.p is set.
  void report_freed(ChannelId c);

  /// Writes message `m`'s key segment (the layout described at state_key)
  /// at `p` and returns its end; the caller provides key_segment_bound(m)
  /// bytes of room.
  static char* write_key_segment(const MessageState& m, char* p);
  /// Worst-case size of `m`'s key segment (every varint at full width).
  static std::size_t key_segment_bound(const MessageState& m);

  /// True when a trace sink is attached — the single guard every event
  /// site checks before constructing a TraceEvent, so the all-off fast path
  /// is one predictable branch even in congested cycles, where the
  /// blocked-message site fires for many messages per cycle.
  [[nodiscard]] bool tracing() const { return trace_sink_ != nullptr; }
  /// Hands one typed event to the sink. Out of line and cold: only reached
  /// when a sink is attached, keeping the instrumented call sites small in
  /// the hot loops.
#if defined(__GNUC__)
  [[gnu::cold]]
#endif
  void trace_event(const obs::TraceEvent& event);
  [[nodiscard]] obs::TraceEvent make_event(obs::TraceEventKind kind,
                                           MessageId message,
                                           ChannelId channel) const;
  void check_invariants() const;

  /// Unified adaptive view of the routing relation; oblivious constructors
  /// share an ObliviousAsAdaptive adapter across simulator copies.
  const routing::AdaptiveRouting* alg_;
  std::shared_ptr<const routing::AdaptiveRouting> owned_adapter_;
  SimConfig config_;
  const ArbitrationPolicy* policy_;

  Cycle cycle_ = 0;
  std::vector<MessageState> messages_;
  std::vector<ChannelState> channels_;
  std::uint64_t flits_moved_ = 0;

  /// Per-cycle scratch buffers (desired-channel probe; the cycle-stamped
  /// message -> granted-channel table behind grant_of). Contents are
  /// transient; the members exist so the request/step hot loops reuse
  /// capacity instead of allocating per cycle. wants_scratch_ is mutable
  /// for peek_requests.
  mutable std::vector<ChannelId> wants_scratch_;
  std::vector<ChannelId> granted_scratch_;
  std::vector<Cycle> granted_stamp_;

  /// run()'s scheduler state (defined in simulator.cpp); sched_
  /// points at it only while that run is live, so note_exit can report
  /// released channels for waiter wake-up. Deliberately not copied: a
  /// forked simulator is never inside its parent's run.
  struct EventScheduler;
  struct SchedulerRef {
    EventScheduler* p = nullptr;
    SchedulerRef() = default;
    SchedulerRef(const SchedulerRef&) noexcept {}
    SchedulerRef& operator=(const SchedulerRef&) noexcept { return *this; }
  };
  SchedulerRef sched_;
  EventCoreStats event_stats_;

  obs::TraceSink* trace_sink_ = nullptr;

  /// Per-cycle request scratch. Copying a simulator deliberately does NOT
  /// copy it: every reader runs compute_requests() first, so a forked
  /// simulator's copy of the parent's list is pure allocation waste — and
  /// the deadlock search forks once per explored transition.
  struct RequestScratch {
    std::vector<ChannelRequest> v;
    RequestScratch() = default;
    RequestScratch(const RequestScratch&) noexcept {}
    RequestScratch& operator=(const RequestScratch& other) noexcept {
      if (this != &other) v.clear();
      return *this;
    }
    RequestScratch(RequestScratch&&) = default;
    RequestScratch& operator=(RequestScratch&&) = default;
  };
  RequestScratch requests_;
};

/// Finds a cycle among messages blocked on channels owned by other blocked
/// messages in the given occupancy snapshot; empty if none. Used to report
/// Definition-6 deadlock cycles and validated against quiescence detection.
std::vector<MessageId> find_wait_cycle(
    std::span<const MessageOccupancy> occupancy,
    const std::function<MessageId(ChannelId)>& owner_of);

}  // namespace wormsim::sim
