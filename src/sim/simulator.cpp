#include "sim/simulator.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/varint.hpp"

namespace wormsim::sim {

WormholeSimulator::WormholeSimulator(const routing::RoutingAlgorithm& alg,
                                     SimConfig config,
                                     const ArbitrationPolicy& policy)
    : owned_adapter_(
          std::make_shared<routing::ObliviousAsAdaptive>(alg)),
      config_(config),
      policy_(&policy) {
  alg_ = owned_adapter_.get();
  WORMSIM_EXPECTS(config_.buffer_depth >= 1);
  channels_.resize(alg.net().channel_count());
}

WormholeSimulator::WormholeSimulator(const routing::RoutingAlgorithm& alg,
                                     SimConfig config)
    : owned_adapter_(
          std::make_shared<routing::ObliviousAsAdaptive>(alg)),
      config_(config),
      policy_(nullptr) {
  alg_ = owned_adapter_.get();
  WORMSIM_EXPECTS(config_.buffer_depth >= 1);
  channels_.resize(alg.net().channel_count());
}

WormholeSimulator::WormholeSimulator(const routing::AdaptiveRouting& alg,
                                     SimConfig config,
                                     const ArbitrationPolicy& policy)
    : alg_(&alg), config_(config), policy_(&policy) {
  WORMSIM_EXPECTS(config_.buffer_depth >= 1);
  channels_.resize(alg.net().channel_count());
}

WormholeSimulator::WormholeSimulator(const routing::AdaptiveRouting& alg,
                                     SimConfig config)
    : alg_(&alg), config_(config), policy_(nullptr) {
  WORMSIM_EXPECTS(config_.buffer_depth >= 1);
  channels_.resize(alg.net().channel_count());
}

MessageId WormholeSimulator::add_message(MessageSpec spec) {
  WORMSIM_EXPECTS(spec.src != spec.dst);
  WORMSIM_EXPECTS(spec.length >= 1);
  WORMSIM_EXPECTS_MSG(alg_->routes(spec.src, spec.dst),
                      "routing algorithm does not route this pair");
  const MessageId id{messages_.size()};
  MessageState state;
  state.spec = spec;
  messages_.push_back(std::move(state));
  return id;
}

std::vector<ChannelId> WormholeSimulator::desired_channels(
    const MessageState& m) const {
  std::vector<ChannelId> wants;
  desired_channels_into(m, wants);
  return wants;
}

void WormholeSimulator::desired_channels_into(
    const MessageState& m, std::vector<ChannelId>& out) const {
  out.clear();
  if (m.next_hop.valid()) {  // routed since the last acquire
    out.push_back(m.next_hop);
    return;
  }
  switch (m.status) {
    case MessageStatus::kPending:
      alg_->append_initial_channels(m.spec.src, m.spec.dst, out);
      return;
    case MessageStatus::kMoving: {
      const ChannelId leading = m.path.back().channel;
      if (alg_->net().channel(leading).dst == m.spec.dst)
        return;  // at destination: consume, not route
      alg_->append_next_channels(leading, m.spec.dst, out);
      return;
    }
    case MessageStatus::kDelivered:
    case MessageStatus::kConsumed:
      return;
  }
  WORMSIM_UNREACHABLE("bad MessageStatus");
}

void WormholeSimulator::note_exit(MessageId id, MessageState& m,
                                  std::size_t path_index) {
  ++m.path[path_index].exited;
  WORMSIM_ASSERT(m.path[path_index].exited <= m.spec.length);
  // Release every fully drained prefix channel (tail has passed).
  while (m.released < m.path.size() &&
         m.path[m.released].exited == m.spec.length) {
    const ChannelId c = m.path[m.released].channel;
    ChannelState& ch = channels_[c.index()];
    WORMSIM_ASSERT(ch.count == 0);
    ch.owner = MessageId::invalid();
    ch.busy_cycles += cycle_ - ch.acquired_cycle;
    if (sched_.p != nullptr) report_freed(c);
    if (tracing())
      trace_event(make_event(obs::TraceEventKind::kChannelRelease, id, c));
    ++m.released;
  }
}

void WormholeSimulator::acquire(MessageId id, MessageState& m, ChannelId c) {
  ChannelState& ch = channels_[c.index()];
  WORMSIM_ASSERT(!ch.owner.valid() && ch.count == 0);
  ch.owner = id;
  ch.count = 1;
  ch.entered_cycle = cycle_;
  ch.acquired_cycle = cycle_;
  m.path.push_back({c, 0});
  m.next_hop = ChannelId::invalid();
  m.waiting = false;
  ++m.stats.hops;
  ++flits_moved_;
  if (tracing())
    trace_event(make_event(obs::TraceEventKind::kChannelAcquire, id, c));
}

WormholeSimulator::RequestOutcome WormholeSimulator::request_message(
    std::size_t i) {
  MessageState& m = messages_[i];
  if (m.status == MessageStatus::kDelivered ||
      m.status == MessageStatus::kConsumed)
    return RequestOutcome::kIdle;
  if (m.status == MessageStatus::kPending && cycle_ < m.spec.release_time)
    return RequestOutcome::kNotReleased;
  std::vector<ChannelId>& wants = wants_scratch_;
  desired_channels_into(m, wants);
  if (wants.empty())
    return RequestOutcome::kAtDestination;  // consume, don't route
  if (wants.size() == 1) m.next_hop = wants.front();
  if (!m.waiting) {
    m.waiting = true;
    m.waiting_since = cycle_;
  }
  bool any_free = false;
  for (const ChannelId want : wants)
    if (!channels_[want.index()].owner.valid()) {
      any_free = true;
      requests_.v.push_back(
          ChannelRequest{MessageId{i}, want, m.waiting_since});
    }
  if (any_free) return RequestOutcome::kRequested;
  if (tracing())
    trace_event(make_event(obs::TraceEventKind::kBlocked, MessageId{i},
                           wants.front()));
  return RequestOutcome::kAllBusy;
}

bool WormholeSimulator::compute_requests() {
  ++cycle_;
  bool progress = false;
  requests_.v.clear();
  // Time passing toward a release counts as progress so quiescence is not
  // declared prematurely.
  for (std::size_t i = 0; i < messages_.size(); ++i)
    if (request_message(i) == RequestOutcome::kNotReleased) progress = true;
  return progress;
}

void WormholeSimulator::arbitrate_requests() {
  // Arbitration: one winner per contested channel, channels in ascending
  // id order; a message that has already won a channel this cycle
  // (adaptive multi-candidate requests) is skipped and the surplus channel
  // stays idle for this cycle. Sorting in place groups each channel's
  // requests without a per-cycle container.
  std::vector<ChannelRequest>& reqs = requests_.v;
  std::sort(reqs.begin(), reqs.end(),
            [](const ChannelRequest& a, const ChannelRequest& b) {
              return a.channel != b.channel ? a.channel < b.channel
                                            : a.message < b.message;
            });
  for (auto run = reqs.begin(); run != reqs.end();) {
    const ChannelId chan = run->channel;
    const auto end = std::find_if(
        run, reqs.end(),
        [&](const ChannelRequest& r) { return r.channel != chan; });
    const auto open = std::remove_if(run, end, [&](const ChannelRequest& r) {
      return grant_of(r.message.index()).valid();
    });
    if (open != run) set_grant(policy_->pick({run, open}).index(), chan);
    run = end;
  }
}

bool WormholeSimulator::step() {
  WORMSIM_EXPECTS_MSG(policy_ != nullptr,
                      "step() requires an arbitration policy");
  bool progress = compute_requests();
  ensure_grant_capacity();
  arbitrate_requests();
  if (execute_moves()) progress = true;
  if (config_.check_invariants) check_invariants();
  return progress;
}

void WormholeSimulator::peek_requests_into(
    std::vector<MessageRequests>& out) const {
  // Replicates the request derivation of the NEXT compute_requests() cycle
  // without mutating the simulator (earlier versions probed by copying the
  // whole simulator, which dominated the deadlock search's per-state cost).
  // Must stay in lockstep with compute_requests: same release gating (the
  // probed cycle is cycle_ + 1), same free-channel filter.
  // `out` entries past `filled` are leftovers from the caller's previous
  // state; their channel capacity is reused in place.
  std::size_t filled = 0;
  std::vector<ChannelId>& wants = wants_scratch_;
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const MessageState& m = messages_[i];
    if (m.status == MessageStatus::kDelivered ||
        m.status == MessageStatus::kConsumed)
      continue;
    if (m.status == MessageStatus::kPending &&
        cycle_ + 1 < m.spec.release_time)
      continue;
    desired_channels_into(m, wants);
    if (wants.empty()) continue;  // header at destination
    if (filled == out.size()) out.emplace_back();
    MessageRequests& entry = out[filled];
    entry.message = MessageId{i};
    entry.moving = m.status == MessageStatus::kMoving;
    entry.channels.clear();
    for (const ChannelId want : wants)
      if (!channels_[want.index()].owner.valid())
        entry.channels.push_back(want);
    if (entry.channels.empty()) continue;  // all candidates busy
    std::sort(entry.channels.begin(), entry.channels.end());
    ++filled;
  }
  out.resize(filled);
}

std::vector<MessageRequests> WormholeSimulator::peek_requests() const {
  std::vector<MessageRequests> result;
  result.reserve(messages_.size());
  peek_requests_into(result);
  return result;
}

bool WormholeSimulator::step_with_grants(
    std::span<const std::pair<ChannelId, MessageId>> grants) {
  bool progress = compute_requests();
  ensure_grant_capacity();
  for (std::size_t gi = 0; gi < grants.size(); ++gi) {
    const auto& [channel, winner] = grants[gi];
    const bool is_request = std::any_of(
        requests_.v.begin(), requests_.v.end(), [&](const ChannelRequest& r) {
          return r.channel == channel && r.message == winner;
        });
    WORMSIM_EXPECTS_MSG(is_request, "grant does not match any request");
    WORMSIM_EXPECTS_MSG(!grant_of(winner.index()).valid(),
                        "message granted two channels in one cycle");
    // Quadratic duplicate scan: grant lists are at most one per message,
    // so this beats any per-call hash container on the search hot path.
    for (std::size_t gj = 0; gj < gi; ++gj)
      WORMSIM_EXPECTS_MSG(grants[gj].first != channel,
                          "channel granted to two messages in one cycle");
    set_grant(winner.index(), channel);
  }

  if (execute_moves()) progress = true;
  if (config_.check_invariants) check_invariants();
  return progress;
}

bool WormholeSimulator::step_with_grants_trusted(
    std::span<const std::pair<ChannelId, MessageId>> grants) {
  // Fast-path cycle for the deadlock search (header contract). Relative to
  // the checked step this skips compute_requests entirely: with
  // release_time == 0 — asserted below — the checked step's extra progress
  // source (pending release gating) can never fire, and the remaining
  // compute_requests work (request list, waiting flags) feeds only policy
  // arbitration, which the search never reads. The cycle-stamped grant
  // table and per-channel transmitted stamp mean no per-cycle reset is
  // needed at all; only the clock advance (delivery stats) remains.
#ifndef NDEBUG
  for (const MessageState& m : messages_)
    WORMSIM_ASSERT(m.spec.release_time == 0);
#endif
  ++cycle_;
  ensure_grant_capacity();
  for (const auto& [channel, winner] : grants) {
    WORMSIM_ASSERT(!grant_of(winner.index()).valid());
    set_grant(winner.index(), channel);
  }
  const bool progress = execute_moves();
  if (config_.check_invariants) check_invariants();
  return progress;
}

bool WormholeSimulator::all_consumed() const {
  return std::all_of(messages_.begin(), messages_.end(),
                     [](const MessageState& m) {
                       return m.status == MessageStatus::kConsumed;
                     });
}

std::string WormholeSimulator::state_key() const {
  std::string key;
  append_state_key(key);
  return key;
}

void WormholeSimulator::append_state_key(std::string& out) const {
  // Room for the worst case, one writing pass, then trim to what was
  // written: per-byte push_back was a measurable fraction of search time.
  const std::size_t base = out.size();
  std::size_t bound = 0;
  for (const MessageState& m : messages_) bound += key_segment_bound(m);
  out.resize(base + bound);
  char* p = out.data() + base;
  for (const MessageState& m : messages_) p = write_key_segment(m, p);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

std::size_t WormholeSimulator::key_segment_bound(const MessageState& m) {
  return 1 + (4 + 2 * (m.path.size() - m.released)) * util::kMaxVarint32Bytes;
}

char* WormholeSimulator::write_key_segment(const MessageState& m, char* p) {
  *p++ = static_cast<char>(m.status);
  p = util::put_varint(p, m.flits_injected);
  p = util::put_varint(p, m.flits_consumed);
  p = util::put_varint(p, static_cast<std::uint32_t>(m.released));
  p = util::put_varint(p, static_cast<std::uint32_t>(m.path.size()));
  for (std::size_t j = m.released; j < m.path.size(); ++j) {
    p = util::put_varint(p, m.path[j].channel.value());
    p = util::put_varint(p, m.path[j].exited);
  }
  return p;
}

bool WormholeSimulator::execute_moves() {
  bool progress = false;
  for (std::size_t i = 0; i < messages_.size(); ++i)
    if (move_message(i)) progress = true;
  return progress;
}

bool WormholeSimulator::move_message(std::size_t i) {
  MessageState& m = messages_[i];
  const MessageId id{i};
  if (m.status == MessageStatus::kConsumed) return false;
  bool moved = false;

  // Front operation: consume at destination, advance header, or inject.
  if (m.status == MessageStatus::kMoving) {
    const ChannelId leading = m.path.back().channel;
    if (alg_->net().channel(leading).dst == m.spec.dst) {
      // Header consumed by the destination node (Assumption 2).
      ChannelState& ch = channels_[leading.index()];
      WORMSIM_ASSERT(ch.count > 0);
      --ch.count;
      m.flits_consumed = 1;
      m.status = m.spec.length == 1 ? MessageStatus::kConsumed
                                    : MessageStatus::kDelivered;
      m.stats.deliver_cycle = cycle_;
      if (m.status == MessageStatus::kConsumed)
        m.stats.consume_cycle = cycle_;
      note_exit(id, m, m.path.size() - 1);
      if (tracing()) {
        obs::TraceEvent event =
            make_event(obs::TraceEventKind::kDelivered, id, leading);
        event.node = m.spec.dst;
        trace_event(event);
        if (m.status == MessageStatus::kConsumed)
          trace_event(make_event(obs::TraceEventKind::kConsumed, id,
                                 ChannelId::invalid()));
      }
      moved = true;
    } else if (grant_of(i).valid()) {
      const ChannelId next = grant_of(i);
      ChannelState& prev = channels_[leading.index()];
      WORMSIM_ASSERT(prev.count > 0);
      --prev.count;
      const std::size_t prev_index = m.path.size() - 1;
      acquire(id, m, next);
      note_exit(id, m, prev_index);
      if (tracing())
        trace_event(
            make_event(obs::TraceEventKind::kHeaderAdvance, id, next));
      moved = true;
    }
  } else if (m.status == MessageStatus::kPending && grant_of(i).valid()) {
    const ChannelId first = grant_of(i);
    acquire(id, m, first);
    m.flits_injected = 1;
    m.status = MessageStatus::kMoving;
    m.stats.inject_cycle = cycle_;
    if (tracing())
      trace_event(make_event(obs::TraceEventKind::kInject, id, first));
    moved = true;
  } else if (m.status == MessageStatus::kDelivered) {
    ChannelState& ch = channels_[m.path.back().channel.index()];
    if (ch.count > 0) {
      --ch.count;
      ++m.flits_consumed;
      note_exit(id, m, m.path.size() - 1);
      moved = true;
      if (m.flits_consumed == m.spec.length) {
        m.status = MessageStatus::kConsumed;
        m.stats.consume_cycle = cycle_;
        if (tracing())
          trace_event(make_event(obs::TraceEventKind::kConsumed, id,
                                 ChannelId::invalid()));
      }
    }
  }

  if (m.path.empty()) return moved;

  // Data-flit shifts, downstream-first so a worm pipelines in lockstep.
  if (m.path.size() >= 2) {
    for (std::size_t j = m.path.size() - 1; j > m.released; --j) {
      ChannelState& from = channels_[m.path[j - 1].channel.index()];
      ChannelState& to = channels_[m.path[j].channel.index()];
      if (from.count == 0) continue;
      if (to.count >= config_.buffer_depth || transmitted(to)) continue;
      --from.count;
      ++to.count;
      to.entered_cycle = cycle_;
      note_exit(id, m, j - 1);
      ++flits_moved_;
      moved = true;
    }
  }

  // Inject remaining body flits into the first path channel.
  if (m.flits_injected > 0 && m.flits_injected < m.spec.length) {
    WORMSIM_ASSERT(m.released == 0);  // first channel can't drain early
    ChannelState& first = channels_[m.path.front().channel.index()];
    if (first.count < config_.buffer_depth && !transmitted(first)) {
      ++first.count;
      first.entered_cycle = cycle_;
      ++m.flits_injected;
      ++flits_moved_;
      moved = true;
    }
  }

  return moved;
}

void WormholeSimulator::fill_deadlock_result(RunResult& result) {
  // Quiescent with unfinished messages: frozen forever => deadlock.
  result.outcome = RunOutcome::kDeadlock;
  result.cycles = cycle_;
  const auto occ = occupancy();
  result.deadlock_cycle =
      find_wait_cycle(occ, [this](ChannelId c) { return channel_owner(c); });
}

/// run()'s scheduler, message-granular. A cycle's work is the merge, in
/// message-id order, of three sorted runs:
///   - kept: the messages the previous cycle's retention phase kept ready,
///     in the id order that cycle processed them;
///   - due releases: a cursor into `releases`, the run's unreleased
///     messages sorted once by (release_time, id);
///   - woken: the headers the previous cycle's channel releases woke,
///     sorted before the merge (a handful per cycle).
/// No message is in two runs: a kept message was processed and not parked,
/// a woken one was parked, and a due release was never processed.
/// Parked headers wait in one min-heap per channel, in the arbiter's
/// (rank, message) order; a release wakes only the headers that can still
/// win the channel. Dormancy is sound because a message that made no move
/// in a cycle and raised no request cannot move again until a wanted
/// channel frees (its own shift/injection preconditions are unchanged —
/// nobody else can touch channels it owns), and parked headers are exactly
/// those messages.
struct WormholeSimulator::EventScheduler {
  /// One parked header in one channel's wait heap. A header with several
  /// candidates has an entry in each of their heaps; a wake bumps the
  /// message's generation, which turns its other entries stale.
  struct Waiter {
    std::uint64_t rank;  ///< the policy's rank of the request, fixed while
                         ///< the header stays blocked
    std::uint32_t message;
    std::uint32_t generation;  ///< the park it belongs to; wraps only after
                               ///< 2^32 parks of one message
  };
  static_assert(sizeof(Waiter) == 16);
  /// Heap order: std's heaps keep the greatest element in front, so
  /// "behind" puts the arbiter's lowest (rank, message) there.
  static bool behind(const Waiter& a, const Waiter& b) {
    return a.rank != b.rank ? a.rank > b.rank : a.message > b.message;
  }
  std::vector<std::uint32_t> kept;      ///< next cycle's keeps, id order
  std::vector<std::uint32_t> woken;     ///< next cycle's wake-ups
  std::vector<std::uint32_t> releases;  ///< by (release_time, id)
  std::size_t next_release = 0;         ///< first entry not yet due
  std::vector<std::vector<Waiter>> waiters;  ///< per channel, heap by behind
  std::vector<std::uint32_t> generation;     ///< per message
  std::vector<std::uint8_t> sole;  ///< per message: parked on one channel
  std::uint64_t parked = 0;        ///< messages currently parked
  std::vector<ChannelId> freed;    ///< channels released this cycle
};

void WormholeSimulator::report_freed(ChannelId c) {
  sched_.p->freed.push_back(c);
}

RunResult WormholeSimulator::run() {
  WORMSIM_EXPECTS_MSG(policy_ != nullptr,
                      "run() requires an arbitration policy");
  RunResult result;
  EventScheduler sched;
  sched.waiters.resize(channels_.size());
  sched.generation.assign(messages_.size(), 0);
  sched.sole.assign(messages_.size(), 0);
  sched_.p = &sched;
  ensure_grant_capacity();
  EventCoreStats& st = event_stats_;
  const auto release_of = [this](std::uint32_t m) {
    return messages_[m].spec.release_time;
  };

  // Messages released by the first cycle start ready; later ones wait in
  // the release list, where they cost nothing until they are due.
  std::size_t live = 0;
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const MessageState& m = messages_[i];
    if (m.status == MessageStatus::kConsumed) continue;
    ++live;
    ++st.events_scheduled;
    const bool later = m.status == MessageStatus::kPending &&
                       m.spec.release_time > cycle_ + 1;
    (later ? sched.releases : sched.kept)
        .push_back(static_cast<std::uint32_t>(i));
  }
  // Ids are pushed ascending, so a stable sort by release time yields
  // (release_time, id) order. Generated workloads are already in it.
  const auto released_before = [&](std::uint32_t a, std::uint32_t b) {
    return release_of(a) < release_of(b);
  };
  if (!std::is_sorted(sched.releases.begin(), sched.releases.end(),
                      released_before))
    std::stable_sort(sched.releases.begin(), sched.releases.end(),
                     released_before);

  const Cycle max = config_.max_cycles;
  std::vector<std::uint32_t> curr;
  std::vector<std::uint32_t> side;
  std::vector<RequestOutcome> outcomes;
  std::vector<std::uint8_t> moved_flags;

  while (true) {
    // Pick the next cycle with runnable work; idle spans cost nothing.
    Cycle next;
    if (!sched.kept.empty() || !sched.woken.empty()) {
      next = cycle_ + 1;
    } else if (sched.next_release < sched.releases.size()) {
      next = std::max(cycle_ + 1,
                      release_of(sched.releases[sched.next_release]));
    } else {
      // Nothing scheduled, nothing sleeping: the next cycle makes no
      // progress at all. With live messages that is exactly the
      // quiescence a step() loop observes (its blocked sweep finds no free
      // candidate, no release pending).
      if (cycle_ + 1 > max) break;  // the observation cycle is past the horizon
      ++cycle_;
      if (live == 0) {
        result.outcome = RunOutcome::kAllConsumed;
        result.cycles = cycle_;
      } else {
        fill_deadlock_result(result);
      }
      sched_.p = nullptr;
      return result;
    }
    if (next > max) {
      st.cycles_skipped += max - cycle_;
      cycle_ = max;
      break;
    }
    st.cycles_skipped += next - cycle_ - 1;
    cycle_ = next;
    ++st.cycles_executed;

    // The cycle's work in message-id order — the exact sweep order of
    // step()'s request and move phases — merged from its three runs. Every
    // due release has release_time == cycle_ (the clock never jumps past
    // one), so the due range is in id order too.
    const auto due_begin =
        sched.releases.begin() + static_cast<std::ptrdiff_t>(sched.next_release);
    const auto due_end =
        std::find_if(due_begin, sched.releases.end(),
                     [&](std::uint32_t m) { return release_of(m) > cycle_; });
    const auto due = static_cast<std::uint64_t>(due_end - due_begin);
    st.events_fired += due;      // each release fires once, when due,
    st.events_scheduled += due;  // and joins this cycle's work
    sched.next_release += due;
    std::sort(sched.woken.begin(), sched.woken.end());
    side.clear();
    std::merge(sched.woken.begin(), sched.woken.end(), due_begin, due_end,
               std::back_inserter(side));
    curr.clear();
    std::merge(sched.kept.begin(), sched.kept.end(), side.begin(), side.end(),
               std::back_inserter(curr));
    sched.kept.clear();
    sched.woken.clear();

    // Phase 1: requests (dormant messages raise none by construction).
    requests_.v.clear();
    outcomes.clear();
    for (const std::uint32_t m : curr) outcomes.push_back(request_message(m));
    arbitrate_requests();

    // Phase 2: moves, in id order over the scheduled messages only.
    st.events_fired += curr.size();
    moved_flags.clear();
    bool any_moved = false;
    for (const std::uint32_t m : curr) {
      const bool moved = move_message(m);
      moved_flags.push_back(moved ? 1 : 0);
      any_moved |= moved;
    }

    // Phase 3: retention — decide where each processed message lives next.
    for (std::size_t k = 0; k < curr.size(); ++k) {
      const std::uint32_t m = curr[k];
      MessageState& msg = messages_[m];
      if (msg.status == MessageStatus::kConsumed) {
        --live;
        continue;
      }
      if (outcomes[k] == RequestOutcome::kAllBusy && moved_flags[k] == 0 &&
          !tracing()) {
        // Fully blocked and quiescent: park until a wanted channel frees.
        // Under tracing the message stays ready instead, so the per-cycle
        // blocked events match step()'s. A single candidate comes from
        // phase 1's next_hop, with no second routing call.
        desired_channels_into(msg, wants_scratch_);
        sched.sole[m] = wants_scratch_.size() == 1 ? 1 : 0;
        ++sched.parked;
        for (const ChannelId want : wants_scratch_) {
          std::vector<EventScheduler::Waiter>& heap =
              sched.waiters[want.index()];
          heap.push_back(
              {policy_->rank({MessageId{m}, want, msg.waiting_since}), m,
               sched.generation[m]});
          std::push_heap(heap.begin(), heap.end(), EventScheduler::behind);
          ++st.events_scheduled;
        }
        continue;
      }
      // Delivered and draining, at its destination, or requesting: the
      // message has (or may have) work next cycle; it stays scheduled.
      sched.kept.push_back(m);
      ++st.events_scheduled;
    }

    // Phase 4: releases this cycle wake parked headers for the next cycle
    // (atomic allocation: a freed channel accepts a new header no earlier
    // than the cycle after its release — exactly what step()'s
    // start-of-next-cycle request sweep observes). A release wakes its
    // heap in arbitration order up to and including the first header
    // whose only candidate is this channel: that header requests it next
    // cycle and cannot have won a lower channel first, so the channel goes
    // to it or to a header ahead of it, and every header behind it would
    // only request, lose and park again, which changes no state.
    for (const ChannelId c : sched.freed) {
      std::vector<EventScheduler::Waiter>& heap = sched.waiters[c.index()];
      while (!heap.empty()) {
        const EventScheduler::Waiter w = heap.front();
        std::pop_heap(heap.begin(), heap.end(), EventScheduler::behind);
        heap.pop_back();
        if (w.generation != sched.generation[w.message]) {
          ++st.events_cancelled;  // woken since by another release
          continue;
        }
        ++sched.generation[w.message];
        --sched.parked;
        ++st.events_fired;
        ++st.events_scheduled;
        sched.woken.push_back(w.message);
        if (sched.sole[w.message]) break;
      }
    }
    sched.freed.clear();

    if (config_.check_invariants) check_invariants();
    const std::size_t unreleased = sched.releases.size() - sched.next_release;
    st.queue_peak = std::max<std::uint64_t>(
        st.queue_peak, sched.kept.size() + sched.woken.size() + unreleased +
                           sched.parked);

    // Unreleased messages are step() progress every cycle (time toward a
    // release); parked blocked headers are not.
    const bool progress = any_moved || unreleased > 0;
    if (live == 0) {
      result.outcome = RunOutcome::kAllConsumed;
      result.cycles = cycle_;
      sched_.p = nullptr;
      return result;
    }
    if (!progress) {
      fill_deadlock_result(result);
      sched_.p = nullptr;
      return result;
    }
  }

  result.outcome = RunOutcome::kHorizon;
  result.cycles = cycle_ = max;
  sched_.p = nullptr;
  return result;
}

const MessageStats& WormholeSimulator::stats(MessageId m) const {
  WORMSIM_EXPECTS(m.valid() && m.index() < messages_.size());
  return messages_[m.index()].stats;
}

MessageStatus WormholeSimulator::status(MessageId m) const {
  WORMSIM_EXPECTS(m.valid() && m.index() < messages_.size());
  return messages_[m.index()].status;
}

const MessageSpec& WormholeSimulator::spec(MessageId m) const {
  WORMSIM_EXPECTS(m.valid() && m.index() < messages_.size());
  return messages_[m.index()].spec;
}

std::vector<MessageOccupancy> WormholeSimulator::occupancy() const {
  std::vector<MessageOccupancy> result;
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const MessageState& m = messages_[i];
    if (m.status == MessageStatus::kConsumed ||
        m.status == MessageStatus::kPending)
      continue;
    MessageOccupancy occ;
    occ.message = MessageId{i};
    occ.status = m.status;
    for (std::size_t j = m.released; j < m.path.size(); ++j) {
      occ.held.push_back(m.path[j].channel);
      occ.counts.push_back(channels_[m.path[j].channel.index()].count);
    }
    if (m.status == MessageStatus::kMoving) {
      // Blocked only when EVERY candidate is occupied (an adaptive header
      // with any free alternative is not blocked). blocked_on reports the
      // first occupied candidate; for oblivious routing that is exact.
      const auto wants = desired_channels(m);
      const bool all_owned =
          !wants.empty() &&
          std::all_of(wants.begin(), wants.end(), [this](ChannelId c) {
            return channels_[c.index()].owner.valid();
          });
      if (all_owned) occ.blocked_on = wants.front();
    }
    result.push_back(std::move(occ));
  }
  return result;
}

MessageId WormholeSimulator::channel_owner(ChannelId c) const {
  WORMSIM_EXPECTS(c.valid() && c.index() < channels_.size());
  return channels_[c.index()].owner;
}

std::uint32_t WormholeSimulator::channel_count(ChannelId c) const {
  WORMSIM_EXPECTS(c.valid() && c.index() < channels_.size());
  return channels_[c.index()].count;
}

std::uint64_t WormholeSimulator::flits_consumed() const {
  std::uint64_t consumed = 0;
  for (const MessageState& m : messages_) consumed += m.flits_consumed;
  return consumed;
}

std::uint64_t WormholeSimulator::channel_busy_cycles(ChannelId c) const {
  WORMSIM_EXPECTS(c.valid() && c.index() < channels_.size());
  const ChannelState& ch = channels_[c.index()];
  // Completed intervals plus the still-open one (lazy accounting).
  return ch.busy_cycles +
         (ch.owner.valid() ? cycle_ - ch.acquired_cycle : 0);
}

obs::TraceEvent WormholeSimulator::make_event(obs::TraceEventKind kind,
                                              MessageId message,
                                              ChannelId channel) const {
  obs::TraceEvent event;
  event.cycle = cycle_;
  event.kind = kind;
  event.message = message;
  event.channel = channel;
  return event;
}

void WormholeSimulator::trace_event(const obs::TraceEvent& event) {
  trace_sink_->on_event(event);
}

void WormholeSimulator::check_invariants() const {
  // Channel-level: counts within capacity; free channels are empty.
  std::vector<std::uint32_t> expected_count(channels_.size(), 0);
  std::vector<MessageId> expected_owner(channels_.size());

  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const MessageState& m = messages_[i];
    WORMSIM_ASSERT(m.released <= m.path.size());
    std::uint32_t accounted = m.flits_consumed;
    for (std::size_t j = 0; j < m.path.size(); ++j) {
      const std::uint32_t entered =
          j == 0 ? m.flits_injected : m.path[j - 1].exited;
      WORMSIM_ASSERT_MSG(entered >= m.path[j].exited,
                         "flits exit a channel only after entering it");
      const std::uint32_t in_channel = entered - m.path[j].exited;
      accounted += in_channel;
      if (j >= m.released) {
        const std::size_t c = m.path[j].channel.index();
        WORMSIM_ASSERT(expected_owner[c] == MessageId::invalid());
        expected_owner[c] = MessageId{i};
        expected_count[c] = in_channel;
      } else {
        WORMSIM_ASSERT_MSG(in_channel == 0, "released channel still holds flits");
      }
    }
    accounted += m.spec.length - m.flits_injected;
    WORMSIM_ASSERT_MSG(accounted == m.spec.length, "flit conservation");
  }

  for (std::size_t c = 0; c < channels_.size(); ++c) {
    WORMSIM_ASSERT(channels_[c].count <= config_.buffer_depth);
    WORMSIM_ASSERT_MSG(channels_[c].owner == expected_owner[c],
                       "channel ownership book-keeping diverged");
    WORMSIM_ASSERT_MSG(channels_[c].count == expected_count[c],
                       "channel occupancy book-keeping diverged");
    if (!channels_[c].owner.valid()) WORMSIM_ASSERT(channels_[c].count == 0);
  }
}

std::vector<MessageId> find_wait_cycle(
    std::span<const MessageOccupancy> occupancy,
    const std::function<MessageId(ChannelId)>& owner_of) {
  // Functional successor graph: a blocked message points at the owner of the
  // channel it wants. Walk from each node with cycle detection.
  std::unordered_map<std::uint32_t, MessageId> successor;
  for (const MessageOccupancy& occ : occupancy) {
    if (!occ.blocked_on.valid()) continue;
    const MessageId owner = owner_of(occ.blocked_on);
    if (owner.valid()) successor.emplace(occ.message.value(), owner);
  }

  for (const auto& [start, _] : successor) {
    std::vector<MessageId> walk;
    std::unordered_map<std::uint32_t, std::size_t> position;
    MessageId at{start};
    while (true) {
      const auto seen = position.find(at.value());
      if (seen != position.end()) {
        // Cycle: the suffix of the walk from the first repeat.
        return {walk.begin() + static_cast<std::ptrdiff_t>(seen->second),
                walk.end()};
      }
      position.emplace(at.value(), walk.size());
      walk.push_back(at);
      const auto next = successor.find(at.value());
      if (next == successor.end()) break;
      at = next->second;
    }
  }
  return {};
}

}  // namespace wormsim::sim
