#include "analysis/deadlock_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/search_status.hpp"
#include "analysis/state_table.hpp"
#include "routing/routing.hpp"
#include "util/assert.hpp"
#include "util/varint.hpp"

namespace wormsim::analysis {

namespace {

/// One per-cycle adversary choice: which channel goes to which message, and
/// which in-flight headers idled beside a free candidate (delay model).
struct Assignment {
  std::vector<std::pair<ChannelId, MessageId>> grants;
  std::vector<MessageId> stalled_moving;

  void clear() {
    grants.clear();
    stalled_moving.clear();
  }
};

/// Channel-indexed "granted this combo" membership with O(1) reset:
/// membership is stamp equality, so starting a new combo is one counter
/// increment instead of rebuilding a hash set per combo (which is what the
/// pre-generator enumeration did). reset() must be called before each
/// combo's first try_take/contains.
class TakenSet {
 public:
  explicit TakenSet(std::size_t channel_count) : stamp_(channel_count, 0) {}

  void reset() { ++current_; }

  /// Marks `c` taken; returns false when it already was this combo.
  bool try_take(ChannelId c) {
    std::uint64_t& s = stamp_[c.index()];
    if (s == current_) return false;
    s = current_;
    return true;
  }

  [[nodiscard]] bool contains(ChannelId c) const {
    return stamp_[c.index()] == current_;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t current_ = 0;
};

/// Lazily enumerates the legal grant assignments for one state's
/// per-message request sets, one at a time. A legal assignment gives each
/// requesting message at most one of its free candidate channels, with all
/// granted channels distinct. Synchronous model: a *moving* header must take
/// a channel whenever one of its candidates is left untaken — it may lose
/// every candidate to others (normal contention) but may not idle beside a
/// free channel; pending headers may always stay ungranted (the adversary
/// controls generation times). Delay model: moving headers may additionally
/// idle beside free candidates, which counts as a stall for the budget.
///
/// The generator is a mixed-radix odometer over per-message options
/// (option k < |channels| grants channel k; the LAST option is skip, so
/// depth-first exploration tries granting before idling — idle-heavy
/// prefixes explode the search). A DFS frame holds only this cursor, not a
/// materialized branch vector, so memory stays flat at high branch factors
/// and each branch is costed only when the DFS actually reaches it.
///
/// Twin symmetry (DESIGN.md §12): the engine may hand the generator twin
/// chains (per request, the next twin's index or kNoTwin; empty when the
/// state has none). Each twin's odometer digit is capped at its next
/// sibling's current value, so only canonical (non-decreasing) option
/// tuples within each chain are enumerated — every pruned combo is the
/// image of a canonical one under a twin transposition, which is an
/// automorphism of the transition system.
class AssignmentGenerator {
 public:
  AssignmentGenerator(std::vector<sim::MessageRequests> requests,
                      AdversaryModel model,
                      std::vector<std::uint32_t> twin_next = {})
      : requests_(std::move(requests)),
        odometer_(requests_.size(), 0),
        twin_next_(std::move(twin_next)),
        model_(model) {}

  /// Fills `out` with the next legal assignment; returns false when the
  /// combos are exhausted or the branch cap was hit (see truncated()).
  /// `taken` is caller-owned scratch, reusable across generators.
  bool next(Assignment& out, TakenSet& taken) {
    const std::size_t m = requests_.size();
    while (!done_) {
      if (yielded_ >= kMaxBranchesPerState) {
        truncated_ = true;  // unexplored combos remain beyond the cap
        return false;
      }
      bool valid = true;
      out.clear();
      taken.reset();
      for (std::size_t i = 0; i < m && valid; ++i) {
        if (is_skip(i)) continue;
        const ChannelId c = requests_[i].channels[odometer_[i]];
        if (!taken.try_take(c)) valid = false;  // collision
        else out.grants.emplace_back(c, requests_[i].message);
      }
      if (valid) {
        for (std::size_t i = 0; i < m && valid; ++i) {
          if (!is_skip(i) || !requests_[i].moving) continue;
          // A moving skipper: does it still see an untaken candidate?
          const bool has_free_alternative = std::any_of(
              requests_[i].channels.begin(), requests_[i].channels.end(),
              [&](ChannelId c) { return !taken.contains(c); });
          if (has_free_alternative) {
            if (model_ == AdversaryModel::kSynchronous)
              valid = false;  // must progress
            else
              out.stalled_moving.push_back(requests_[i].message);
          }
        }
      }
      advance();
      if (valid) {
        ++yielded_;
        return true;
      }
    }
    return false;
  }

  /// True when enumeration stopped at the branch cap with combos remaining.
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Legal assignments produced so far.
  [[nodiscard]] std::size_t yielded() const { return yielded_; }

  /// Donates the generator's heap structures (request list, twin chains)
  /// back to the caller's pools for reuse by the next state's generator.
  /// The generator must not be used afterwards.
  void recycle_into(std::vector<std::vector<sim::MessageRequests>>& groups,
                    std::vector<std::vector<std::uint32_t>>& twins) {
    if (groups.size() < 64) groups.push_back(std::move(requests_));
    if (twins.size() < 64) twins.push_back(std::move(twin_next_));
  }

 private:
  [[nodiscard]] bool is_skip(std::size_t i) const {
    return odometer_[i] == requests_[i].channels.size();
  }

  /// Highest option digit i may hold: skip, further capped by the next twin
  /// sibling's current digit (canonical tuples are non-decreasing along
  /// each chain; equal grant digits collide and are filtered like any
  /// other collision).
  [[nodiscard]] std::size_t limit(std::size_t i) const {
    std::size_t cap = requests_[i].channels.size();
    if (!twin_next_.empty() && twin_next_[i] != kNoTwin)
      cap = std::min(cap, odometer_[twin_next_[i]]);
    return cap;
  }

  void advance() {
    const std::size_t m = requests_.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (++odometer_[i] <= limit(i)) return;
      odometer_[i] = 0;
    }
    done_ = true;  // the odometer wrapped around
  }

  std::vector<sim::MessageRequests> requests_;
  std::vector<std::size_t> odometer_;
  std::vector<std::uint32_t> twin_next_;
  AdversaryModel model_;
  std::size_t yielded_ = 0;
  bool done_ = false;
  bool truncated_ = false;
};

/// The forced-move predicate (DESIGN.md §9): true when the synchronous model
/// leaves the state exactly one legal assignment. That holds when every
/// request is a moving header with one free candidate and no two share it,
/// so the one tuple AssignmentGenerator would yield grants them all; an
/// empty list is the idle step. Fills `grants` with that tuple, in the
/// generator's request order.
bool forced_grants(std::span<const sim::MessageRequests> groups,
                   TakenSet& taken,
                   std::vector<std::pair<ChannelId, MessageId>>& grants) {
  grants.clear();
  taken.reset();
  for (const sim::MessageRequests& g : groups) {
    if (!g.moving || g.channels.size() != 1 ||
        !taken.try_take(g.channels.front()))
      return false;
    grants.emplace_back(g.channels.front(), g.message);
  }
  return true;
}

std::string describe_assignment(const topo::Network& net,
                                const Assignment& a) {
  std::ostringstream os;
  if (a.grants.empty() && a.stalled_moving.empty()) return "idle";
  bool first = true;
  for (const auto& [channel, message] : a.grants) {
    if (!first) os << "; ";
    first = false;
    os << "grant " << net.channel(channel).name << " -> m"
       << message.value();
  }
  for (const MessageId m : a.stalled_moving) {
    if (!first) os << "; ";
    first = false;
    os << "stall m" << m.value();
  }
  return os.str();
}

/// The Definition-6 epilogue of every deadlock result, whichever replay
/// reached `frozen`: it must be frozen under the idle transition with
/// unfinished messages. Records its configuration and wait cycle, and says
/// so when the witness reaches it in zero cycles.
void finish_deadlock(DeadlockSearchResult& result,
                     const sim::WormholeSimulator& frozen, bool build_witness) {
  result.deadlock_found = true;
  WORMSIM_ASSERT(!frozen.all_consumed());
#ifndef NDEBUG
  {
    sim::WormholeSimulator probe(frozen);
    WORMSIM_ASSERT(!probe.step_with_grants({}));
  }
#endif
  if (build_witness && result.witness.empty())
    result.witness.push_back("initial state is frozen");
  result.deadlock_configuration = snapshot(frozen);
  const auto occ = frozen.occupancy();
  result.deadlock_cycle = find_wait_cycle(
      occ, [&frozen](ChannelId c) { return frozen.channel_owner(c); });
}

void check_specs(std::span<const sim::MessageSpec> messages) {
  for (const sim::MessageSpec& spec : messages)
    WORMSIM_EXPECTS_MSG(spec.release_time == 0,
                        "the adversary controls generation times; use 0");
}

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// How often a worker copies its local profile into its status-board shard:
/// every this-many fresh states (power of two; the check is a mask). Large
/// enough that the publish mutex is uncontended noise, small enough that a
/// heartbeat a second behind real time still tells the truth.
constexpr std::uint64_t kStatusPublishStride = 1024;

/// Cap on one worker's deque of splittable work items. Once a worker has
/// this many parked subtrees, further splitting only adds bookkeeping —
/// starving peers will drain the deque long before then.
constexpr std::size_t kDequeCap = 64;

/// How many sibling branches a worker materializes into its deque per
/// split when peers starve. Larger values amortize split overhead; smaller
/// values spread work sooner. Verdicts, witnesses and exhaustive state
/// counts do not depend on it.
constexpr std::size_t kStealGranularity = 8;

/// The DFS engine shared by the oblivious and adaptive entry points.
///
/// Serial mode (threads == 1) is one DFS over the whole space. Parallel
/// mode runs a work-stealing DFS (DESIGN.md §16): every worker owns a
/// bounded deque of work items (subtree roots), pops its own from the back
/// (LIFO — deepest, most recently split), and steals from the front of the
/// next non-empty peer's deque (the shallowest, largest subtrees). A worker
/// whose DFS stack is deep splits off pending sibling branches of its
/// *shallowest* unexhausted frame into new items when some peer is starving
/// — so the one deep subtree of a skewed tree keeps getting re-divided
/// instead of pinning a single worker. All workers memoize through one
/// striped StateTable. Soundness of "exhausted": a state is recorded in
/// the table exactly once, by a worker that then expands it,
/// so when every item completes without hitting a limit the union of the
/// explorations covers every reachable state, whoever reached each one,
/// and the counts are the serial search's. A run that stops early — on a
/// deadlock, max_states or the memo budget — holds whichever states its
/// schedule reached first, so its workers only raise the stop flag and
/// run() returns the serial search's result instead. The witness
/// is rebuilt by a serial step_with_grants replay from the initial state,
/// which revalidates every grant.
///
/// Forced-move fast path (DESIGN.md §9): in the synchronous model a state
/// with one legal assignment (forced_grants) is stepped in place and its
/// child registered, with no generator or frame. Frames exist only at
/// branching states, so the deadlock path holds branching choices alone,
/// and the replay re-derives every forced step.
class SearchEngine {
 public:
  /// `twin_specs` (indexed by MessageId) enables twin symmetry; empty runs
  /// the unreduced enumeration. It must outlive the engine.
  SearchEngine(const topo::Network& net, AdversaryModel model,
               const SearchLimits& limits,
               std::span<const sim::MessageSpec> twin_specs)
      : net_(net),
        model_(model),
        limits_(limits),
        twin_specs_(twin_specs),
        delay_mode_(model == AdversaryModel::kBoundedDelay),
        threads_(resolve_threads(limits.threads)),
        status_(limits.status),
        visited_(StateTable::Config{
            threads_ <= 1
                ? std::size_t{1}
                : std::min<std::size_t>(256, std::size_t{threads_} * 8),
            limits.memo_budget_bytes}) {}

  DeadlockSearchResult run(sim::WormholeSimulator root,
                           std::size_t message_count) {
    if (status_ != nullptr) status_->begin_segment(&visited_);
    // Kept pristine for the witness replay and the serial re-derivation
    // (the search mutates copies).
    const sim::WormholeSimulator pristine(root);
    const std::size_t channel_count = net_.channel_count();
    workers_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t)
      workers_.emplace_back(channel_count, t);

    // The spent-delay vector only exists in the bounded-delay model; the
    // synchronous search carries an empty one instead of copying a zero
    // vector per transition.
    std::vector<std::uint32_t> spent0(delay_mode_ ? message_count : 0, 0);
    deques_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t)
      deques_.push_back(std::make_unique<ItemDeque>());

    if (register_state(root, spent0, workers_.front()) == Lookup::kFresh) {
      outstanding_.store(1, std::memory_order_relaxed);
      items_created_.store(1, std::memory_order_relaxed);
      deques_[0]->items.push_back(
          WorkItem{std::move(root), std::move(spent0), 0});
      if (status_ != nullptr) status_->set_frontier(1);

      std::vector<std::thread> pool;
      pool.reserve(threads_ - 1);
      for (unsigned t = 1; t < threads_; ++t)
        pool.emplace_back([this, t] { worker_loop(workers_[t]); });
      worker_loop(workers_.front());
      for (std::thread& th : pool) th.join();
    }

    const bool found = deadlock_found_.load(std::memory_order_relaxed);
    DeadlockSearchResult result;
    if (threads_ > 1 &&
        (found || over_budget_.load(std::memory_order_relaxed))) {
      // Stopped early: the registered states depend on the schedule, so
      // the serial search's result, whatever it finds, is the answer.
      SearchLimits serial_limits = limits_;
      serial_limits.threads = 1;
      serial_limits.status = nullptr;
      result = SearchEngine(net_, model_, serial_limits, twin_specs_)
                   .run(sim::WormholeSimulator(pristine), message_count);
    } else {
      for (const Worker& w : workers_) {
        result.profile.merge_from(w.profile);
        result.worker_profiles.push_back(w.profile);
      }
      result.profile.table_peak_resident_bytes = visited_.resident_bytes();
      result.states_explored = states_.load(std::memory_order_relaxed);
      result.exhausted =
          !over_budget_.load(std::memory_order_relaxed) &&
          std::all_of(workers_.begin(), workers_.end(),
                      [](const Worker& w) { return w.exhausted; });
      if (found)
        replay_deadlock(result, pristine, workers_.front().deadlock_path,
                        message_count);
    }

    if (status_ != nullptr) {
      // Final shard publication (workers have joined), then detach — the
      // board folds this run into the search's totals. The shards describe
      // the returned result: a re-derived one has a single shard.
      for (const Worker& w : workers_)
        status_->publish_worker(w.index,
                                w.index < result.worker_profiles.size()
                                    ? result.worker_profiles[w.index]
                                    : SearchProfile{});
      status_->end_segment(result.states_explored);
    }
    return result;
  }

 private:
  using Lookup = StateTable::Lookup;

  /// One DFS execution context; the serial search uses exactly one.
  struct Worker {
    Worker(std::size_t channel_count, std::size_t idx)
        : taken(channel_count), index(idx) {}
    TakenSet taken;
    std::size_t index;  ///< status-board shard this worker publishes to
    std::string key_scratch;
    Assignment branch_scratch;
    /// open_frame's request list and forced-step grants, reused per state.
    std::vector<sim::MessageRequests> requests;
    std::vector<std::pair<ChannelId, MessageId>> forced;
    /// Retired simulators waiting for reuse by fork_sim: copy-assignment
    /// into a warm simulator keeps its heap buffers, so the DFS hot loop
    /// stops allocating per fork once the pool fills.
    std::vector<sim::WormholeSimulator> sim_pool;
    /// Retired generator internals (request lists, twin chains) from
    /// retire_frame, reused by open_frame so per-state expansion stops
    /// allocating once the DFS warms up. Same idea as sim_pool.
    std::vector<std::vector<sim::MessageRequests>> groups_pool;
    std::vector<std::vector<std::uint32_t>> twin_pool;
    SearchProfile profile;
    bool exhausted = true;
    /// The branching choices from the item root to the deadlock it found:
    /// the whole execution in a serial search, whose one item is the
    /// initial state. A parallel run never reads it (it re-derives).
    std::vector<Assignment> deadlock_path;
    /// Busy-phase bookkeeping so the stride publisher can report live
    /// busy_ns mid-item (the profile field is only folded at item end).
    std::chrono::steady_clock::time_point busy_phase_start{};
    bool in_busy_phase = false;
  };

  /// One DFS node at a branching state (forced states get none). The
  /// generator runs one assignment ahead (`pending`), so the loop knows
  /// whether the branch it is about to take is the last one: the last
  /// branch steals the frame's simulator by move instead of copying it.
  /// A frame whose simulator was stolen stays on the stack as an entry-edge
  /// tombstone until its subtree finishes (the deadlock path
  /// reconstruction walks those edges).
  struct Frame {
    Frame(sim::WormholeSimulator&& s, AssignmentGenerator&& g,
          std::vector<std::uint32_t>&& sp, std::uint32_t d)
        : sim(std::move(s)), gen(std::move(g)), spent(std::move(sp)),
          depth(d) {}

    sim::WormholeSimulator sim;
    AssignmentGenerator gen;
    std::vector<std::uint32_t> spent;
    /// Tree depth of this frame's state: transitions from the initial
    /// state, forced ones included.
    std::uint32_t depth;
    /// The branching choice that led into this frame's state, through any
    /// forced steps after it.
    Assignment entry;
    Assignment pending;  ///< next branch to take; valid when has_pending
    bool has_pending = false;
  };

  /// A subtree root: a registered, not-yet-expanded state and its tree
  /// depth.
  struct WorkItem {
    sim::WormholeSimulator sim;
    std::vector<std::uint32_t> spent;
    std::uint32_t depth;
  };

  /// One worker's deque of work items. The mutex is taken for pushes, own
  /// pops (back) and steals (front) — all O(1) critical sections; the deep
  /// DFS work happens outside it.
  struct ItemDeque {
    std::mutex mutex;
    std::deque<WorkItem> items;
  };

  [[nodiscard]] bool stop_requested() const {
    return deadlock_found_.load(std::memory_order_relaxed) ||
           over_budget_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool budget_ok(
      std::span<const std::uint32_t> spent) const {
    if (!delay_mode_) return true;
    if (limits_.metric == DelayMetric::kTotal) {
      const std::uint64_t total =
          std::accumulate(spent.begin(), spent.end(), std::uint64_t{0});
      return total <= limits_.delay_budget;
    }
    return std::all_of(spent.begin(), spent.end(), [&](std::uint32_t v) {
      return v <= limits_.delay_budget;
    });
  }

  /// Memoizes one state: one key write, one hash, one striped-table
  /// insert, one atomic count. The key is written from scratch into the
  /// worker's scratch buffer, followed in the delay model by the spent-delay
  /// suffix, one varint per message (`spent` is empty in the synchronous
  /// model).
  Lookup register_state(const sim::WormholeSimulator& sim,
                        std::span<const std::uint32_t> spent, Worker& w) {
    w.key_scratch.clear();
    sim.append_state_key(w.key_scratch);
    for (const std::uint32_t v : spent) util::append_varint(w.key_scratch, v);
    const Lookup look = visited_.lookup_or_insert(w.key_scratch);
    if (look == Lookup::kSeen) {
      ++w.profile.memo_hits;
      return look;
    }
    if (look == Lookup::kOverBudget) {
      // The memo table hit its resident-bytes budget: the state was not
      // recorded, so exploring past it could not be memoized soundly. Ends
      // the search non-exhausted, exactly like a max_states overflow.
      over_budget_.store(true, std::memory_order_relaxed);
      return look;
    }
    const std::uint64_t count =
        states_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (count > limits_.max_states) {
      states_.fetch_sub(1, std::memory_order_relaxed);
      over_budget_.store(true, std::memory_order_relaxed);
      return Lookup::kOverBudget;
    }
    // Every expansion is charged to the registering worker, so the
    // per-worker shards partition states_explored exactly: folding every
    // worker's memo_misses reproduces the global count.
    ++w.profile.memo_misses;
    if (status_ != nullptr &&
        (w.profile.memo_misses & (kStatusPublishStride - 1)) == 0) {
      SearchProfile live = w.profile;
      if (w.in_busy_phase)
        live.busy_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - w.busy_phase_start)
                .count());
      status_->publish_worker(w.index, live);
      status_->publish_states(count);
    }
    return Lookup::kFresh;
  }

  /// Forks a child off `parent`. Reuses a pooled retired simulator when one
  /// is available: copy-assignment overwrites its contents but keeps the
  /// vector/string capacity it already grew.
  [[nodiscard]] sim::WormholeSimulator fork_sim(
      const sim::WormholeSimulator& parent, Worker& w) {
    if (w.sim_pool.empty()) return sim::WormholeSimulator(parent);
    sim::WormholeSimulator child = std::move(w.sim_pool.back());
    w.sim_pool.pop_back();
    child = parent;
    return child;
  }

  static void donate_sim(sim::WormholeSimulator&& sim, Worker& w) {
    if (w.sim_pool.size() < 64) w.sim_pool.push_back(std::move(sim));
  }

  enum class Open { kPushed, kTerminal, kDeadlock };

  /// Opens a freshly registered state at tree depth `depth`. While the
  /// state is forced (synchronous model only), its one successor is
  /// stepped in place and registered, with no generator or frame; the
  /// first branching state gets a frame emplaced directly on `stack`.
  /// Every opened state counts towards peak_depth, and a forced one
  /// observes 1 in branch_factor, as its frame's generator would have.
  /// kDeadlock: the state reached is frozen with unfinished messages (the
  /// caller owns the branching path that reached it). kTerminal: an
  /// all-consumed safe terminal, or a forced chain that ended at a seen or
  /// over-budget child; the caller still owns the simulator and may
  /// recycle it.
  Open open_frame(std::vector<Frame>& stack, sim::WormholeSimulator&& sim,
                  std::vector<std::uint32_t>&& spent, std::uint32_t depth,
                  Worker& w) {
    std::vector<sim::MessageRequests>& groups = w.requests;
    for (;; ++depth) {
      if (sim.all_consumed()) return Open::kTerminal;  // safe terminal
      sim.peek_requests_into(groups);
      if (delay_mode_ || !forced_grants(groups, w.taken, w.forced)) break;
      // Only the idle step can make no progress: the state is then frozen
      // forever with unfinished messages, a deadlock.
      if (!sim.step_with_grants_trusted(w.forced)) return Open::kDeadlock;
      w.profile.peak_depth =
          std::max<std::uint64_t>(w.profile.peak_depth, depth + 1);
      w.profile.branch_factor.observe(1.0);
      const Lookup reg = register_state(sim, spent, w);
      if (reg == Lookup::kOverBudget) w.exhausted = false;
      if (reg != Lookup::kFresh) return Open::kTerminal;
    }
    if (groups.empty()) {
      // Delay model: only the idle transition exists. If it makes no
      // progress the state is a deadlock; otherwise the generator over
      // zero requests yields exactly the idle branch.
      sim::WormholeSimulator probe(sim);
      if (!probe.step_with_grants({})) return Open::kDeadlock;
    }
    // Twin chains (reduction.hpp); kept only when the state has a twin.
    std::vector<std::uint32_t> twin_next = take_pooled(w.twin_pool);
    twin_next.clear();
    if (!twin_specs_.empty()) {
      twin_next_siblings(groups, twin_specs_, spent, twin_next);
      if (std::all_of(twin_next.begin(), twin_next.end(),
                      [](std::uint32_t t) { return t == kNoTwin; }))
        twin_next.clear();
    }
    // The generator takes the filled request list; the worker keeps a
    // pooled buffer in its place for the next state.
    std::vector<sim::MessageRequests> requests = take_pooled(w.groups_pool);
    requests.swap(groups);
    Frame& frame = stack.emplace_back(
        std::move(sim),
        AssignmentGenerator(std::move(requests), model_, std::move(twin_next)),
        std::move(spent), depth);
    frame.has_pending = frame.gen.next(frame.pending, w.taken);
    w.profile.peak_depth =
        std::max<std::uint64_t>(w.profile.peak_depth, depth + 1);
    return Open::kPushed;
  }

  template <typename T>
  static T take_pooled(std::vector<T>& pool) {
    if (pool.empty()) return T{};
    T value = std::move(pool.back());
    pool.pop_back();
    return value;
  }

  /// Retires a frame: truncation bookkeeping, the branch-factor sample, and
  /// donating the generator's heap structures back to the worker pools.
  void retire_frame(Frame& frame, Worker& w) {
    if (frame.gen.truncated()) {
      ++w.profile.branch_truncations;
      w.exhausted = false;
    }
    w.profile.branch_factor.observe(
        static_cast<double>(frame.gen.yielded()));
    frame.gen.recycle_into(w.groups_pool, w.twin_pool);
  }

  /// Takes `frame`'s pending branch into w.branch_scratch and steps it:
  /// the generator moves one ahead, the delay budget is checked, and the
  /// child is forked — or, on the last branch, takes the frame's simulator
  /// by move, leaving the frame a tombstone that carries its entry edge.
  /// A fresh child goes to `fresh` with its spent-delay vector (`frame`
  /// may dangle once it returns); a seen one is recycled; an over-budget
  /// one marks the worker unexhausted, and the stop flag is already up.
  template <typename Fresh>
  void take_branch(Frame& frame, Worker& w, Fresh&& fresh) {
    Assignment& choice = w.branch_scratch;
    choice = std::move(frame.pending);
    frame.has_pending = frame.gen.next(frame.pending, w.taken);
    std::vector<std::uint32_t> child_spent;
    if (delay_mode_) {
      child_spent = frame.spent;
      for (const MessageId m : choice.stalled_moving) ++child_spent[m.index()];
      if (!budget_ok(child_spent)) {
        ++w.profile.budget_prunes;
        return;
      }
    }
    sim::WormholeSimulator child =
        frame.has_pending ? fork_sim(frame.sim, w) : std::move(frame.sim);
    child.step_with_grants_trusted(choice.grants);
    const Lookup reg = register_state(child, child_spent, w);
    if (reg == Lookup::kFresh)
      fresh(std::move(child), std::move(child_spent));
    else if (reg == Lookup::kSeen)
      donate_sim(std::move(child), w);
    else
      w.exhausted = false;
  }

  /// Pops the worker's own newest item (back), else sweeps the peers'
  /// deques from the next index up and steals the oldest item (front) of
  /// the first non-empty one — front items are the earliest splits, i.e.
  /// the shallowest subtree roots, the largest expected work.
  std::optional<WorkItem> acquire_item(Worker& w) {
    {
      ItemDeque& mine = *deques_[w.index];
      std::lock_guard<std::mutex> lock(mine.mutex);
      if (!mine.items.empty()) {
        std::optional<WorkItem> item(std::move(mine.items.back()));
        mine.items.pop_back();
        return item;
      }
    }
    for (unsigned k = 1; k < threads_; ++k) {
      const std::size_t victim = (w.index + k) % threads_;
      ++w.profile.steal_attempts;
      ItemDeque& deque = *deques_[victim];
      std::lock_guard<std::mutex> lock(deque.mutex);
      if (deque.items.empty()) continue;
      std::optional<WorkItem> item(std::move(deque.items.front()));
      deque.items.pop_front();
      ++w.profile.steals;
      return item;
    }
    return std::nullopt;
  }

  /// Splits pending sibling branches of the shallowest unexhausted frame of
  /// `stack` into new work items on the worker's own deque, so starving
  /// peers can steal them. Called from run_item only when starving_ > 0.
  /// The shallowest frame holds the largest remaining subtrees, and — key
  /// invariant — a frame with has_pending still owns its simulator (the
  /// move-out only happens on the *last* branch, which clears has_pending),
  /// so its children can always be forked.
  void maybe_split(Worker& w, std::vector<Frame>& stack) {
    std::size_t f = 0;
    while (f < stack.size() && !stack[f].has_pending) ++f;
    if (f == stack.size()) return;
    {
      ItemDeque& mine = *deques_[w.index];
      std::lock_guard<std::mutex> lock(mine.mutex);
      if (mine.items.size() >= kDequeCap) return;
    }
    Frame& frame = stack[f];
    std::vector<WorkItem> batch;
    while (frame.has_pending && batch.size() < kStealGranularity &&
           !stop_requested()) {
      take_branch(frame, w,
                  [&](sim::WormholeSimulator&& child,
                      std::vector<std::uint32_t>&& spent) {
                    batch.push_back(WorkItem{std::move(child),
                                             std::move(spent),
                                             frame.depth + 1});
                  });
    }
    if (batch.empty()) return;
    // outstanding_ rises before the items become stealable; it cannot hit
    // zero meanwhile because this worker's own running item is still
    // outstanding.
    outstanding_.fetch_add(batch.size(), std::memory_order_relaxed);
    items_created_.fetch_add(batch.size(), std::memory_order_relaxed);
    ++w.profile.splits;
    w.profile.split_items += batch.size();
    {
      ItemDeque& mine = *deques_[w.index];
      std::lock_guard<std::mutex> lock(mine.mutex);
      for (WorkItem& wi : batch) mine.items.push_back(std::move(wi));
    }
  }

  void worker_loop(Worker& w) {
    const auto elapsed_ns = [](std::chrono::steady_clock::time_point from,
                               std::chrono::steady_clock::time_point to) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
              .count());
    };
    auto phase_start = std::chrono::steady_clock::now();
    bool starving = false;
    unsigned failures = 0;
    while (!stop_requested() && !done_.load(std::memory_order_acquire)) {
      std::optional<WorkItem> item = acquire_item(w);
      if (!item) {
        // Flag starvation so busy workers split their stacks, then back
        // off: yield first, sleep once the drought persists.
        if (!starving) {
          starving_.fetch_add(1, std::memory_order_relaxed);
          starving = true;
        }
        if (++failures > 16)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        else
          std::this_thread::yield();
        continue;
      }
      if (starving) {
        starving_.fetch_sub(1, std::memory_order_relaxed);
        starving = false;
      }
      failures = 0;
      const auto acquired_at = std::chrono::steady_clock::now();
      w.profile.idle_ns += elapsed_ns(phase_start, acquired_at);
      w.busy_phase_start = acquired_at;
      w.in_busy_phase = true;
      run_item(w, std::move(*item));
      w.in_busy_phase = false;
      phase_start = std::chrono::steady_clock::now();
      w.profile.busy_ns += elapsed_ns(w.busy_phase_start, phase_start);
      items_completed_.fetch_add(1, std::memory_order_relaxed);
      if (status_ != nullptr) {
        status_->set_frontier(items_created_.load(std::memory_order_relaxed));
        status_->publish_frontier_next(
            items_completed_.load(std::memory_order_relaxed));
        status_->publish_worker(w.index, w.profile);
      }
      // Last finished item flips done_: every created item was completed,
      // so every registered state was expanded — the space is covered.
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        done_.store(true, std::memory_order_release);
    }
    if (starving) starving_.fetch_sub(1, std::memory_order_relaxed);
    w.profile.idle_ns +=
        elapsed_ns(phase_start, std::chrono::steady_clock::now());
  }

  /// DFS over one subtree. Frames carry generator cursors; each branch is
  /// materialized once into the worker's scratch Assignment, and copied
  /// only when its child state turns out to be fresh. A stop leaves the
  /// unfinished frames on the stack, and each observes the branches it
  /// generated so far.
  void run_item(Worker& w, WorkItem&& item) {
    std::vector<Frame> stack;
    if (open_frame(stack, std::move(item.sim), std::move(item.spent),
                   item.depth, w) == Open::kDeadlock)
      deadlock_found_.store(true, std::memory_order_relaxed);
    while (!stack.empty() && !stop_requested()) {
      if (threads_ > 1 &&
          starving_.load(std::memory_order_relaxed) > 0)
        maybe_split(w, stack);
      Frame& top = stack.back();
      if (!top.has_pending) {
        retire_frame(top, w);
        stack.pop_back();
        continue;
      }
      const std::uint32_t child_depth = top.depth + 1;
      take_branch(top, w, [&](sim::WormholeSimulator&& child,
                              std::vector<std::uint32_t>&& spent) {
        // `top` dangles from here on if the push reallocates.
        switch (open_frame(stack, std::move(child), std::move(spent),
                           child_depth, w)) {
          case Open::kPushed:
            // The frame adopts the scratch assignment as its entry edge
            // (the generator clears moved-from scratch before reusing it);
            // copying the grant vector per fresh state showed up in the
            // profile.
            stack.back().entry = std::move(w.branch_scratch);
            break;
          case Open::kTerminal:
            // Safe terminal or an ended forced chain: open_frame left
            // `child` intact; recycle it.
            donate_sim(std::move(child), w);
            break;
          case Open::kDeadlock:
            // The deadlock path: every entry choice on the DFS stack (item
            // root excluded), then the final choice. The raised flag ends
            // the loop.
            for (std::size_t f = 1; f < stack.size(); ++f)
              w.deadlock_path.push_back(stack[f].entry);
            w.deadlock_path.push_back(w.branch_scratch);
            deadlock_found_.store(true, std::memory_order_relaxed);
            break;
        }
      });
    }
    for (const Frame& f : stack)
      w.profile.branch_factor.observe(static_cast<double>(f.gen.yielded()));
  }

  /// Rebuilds the authoritative deadlock artifacts by replaying the serial
  /// search's branching choices from the initial state. Each forced step
  /// between them is re-derived from the replayed state with the search's
  /// own predicate, up to the frozen terminal. step_with_grants revalidates
  /// every grant, forced or chosen, against the actual per-cycle requests,
  /// so the machine witness is verified, not just recorded.
  void replay_deadlock(DeadlockSearchResult& result,
                       const sim::WormholeSimulator& pristine,
                       std::span<const Assignment> path,
                       std::size_t message_count) {
    sim::WormholeSimulator replay(pristine);
    std::vector<std::uint32_t> spent(message_count, 0);
    TakenSet taken(net_.channel_count());
    std::vector<sim::MessageRequests> groups;
    Assignment forced;
    std::size_t next = 0;
    for (;;) {
      const Assignment* a = nullptr;
      if (!delay_mode_) {
        replay.peek_requests_into(groups);
        if (forced_grants(groups, taken, forced.grants)) {
          if (forced.grants.empty() &&
              !sim::WormholeSimulator(replay).step_with_grants({}))
            break;  // frozen: the deadlock
          a = &forced;
        }
      }
      if (a == nullptr) {
        if (next == path.size()) break;
        a = &path[next++];
      }
      for (const MessageId m : a->stalled_moving) ++spent[m.index()];
      replay.step_with_grants(a->grants);
      if (limits_.build_witness)
        result.witness.push_back(describe_assignment(net_, *a));
      result.witness_grants.push_back(a->grants);
    }
    WORMSIM_ASSERT(next == path.size());
    finish_deadlock(result, replay, limits_.build_witness);
    result.delay_used_total = static_cast<std::uint32_t>(
        std::accumulate(spent.begin(), spent.end(), std::uint64_t{0}));
    result.delay_used_max =
        spent.empty() ? 0u : *std::max_element(spent.begin(), spent.end());
  }

  const topo::Network& net_;
  const AdversaryModel model_;
  const SearchLimits& limits_;
  const std::span<const sim::MessageSpec> twin_specs_;
  const bool delay_mode_;
  const unsigned threads_;
  SearchStatusBoard* const status_;

  StateTable visited_;
  std::atomic<std::uint64_t> states_{0};
  std::atomic<bool> deadlock_found_{false};
  std::atomic<bool> over_budget_{false};
  /// Work-stealing scheduler state. outstanding_ counts created-but-not-
  /// completed items (root = 1, +n per split, -1 per completion); the
  /// worker that drops it to zero sets done_. starving_ counts workers
  /// whose acquire sweep came up empty — busy workers split their stacks
  /// while it is nonzero. items_created_/items_completed_ are telemetry
  /// (published as the status board's frontier size / consumed counters).
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<int> starving_{0};
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> items_created_{0};
  std::atomic<std::uint64_t> items_completed_{0};
  std::vector<std::unique_ptr<ItemDeque>> deques_;
  std::vector<Worker> workers_;
};

/// One engine run over `messages`. kSafe hands the engine the specs for
/// twin symmetry; root decomposition is the caller's business.
template <typename Routing>
DeadlockSearchResult run_engine(const Routing& alg,
                                std::span<const sim::MessageSpec> messages,
                                AdversaryModel model,
                                const SearchLimits& limits) {
  std::span<const sim::MessageSpec> twin_specs;
  if (limits.reduction != ReductionMode::kOff) twin_specs = messages;
  sim::SimConfig config;
  config.buffer_depth = limits.buffer_depth;
  sim::WormholeSimulator root(alg, config);
  for (const sim::MessageSpec& spec : messages) root.add_message(spec);
  SearchEngine engine(alg.net(), model, limits, twin_specs);
  return engine.run(std::move(root), messages.size());
}

/// Brackets one find_deadlock call as exactly one search on the status
/// board, however many engine runs (root components) it takes: each run is
/// a segment the board folds into the search's totals. Also stamps the
/// call's wall-clock figures, once, serial re-derivations included.
template <typename Search>
DeadlockSearchResult observed(const SearchLimits& limits, Search&& search) {
  SearchStatusBoard* const board = limits.status;
  if (board != nullptr)
    board->begin_search(resolve_threads(limits.threads), limits.max_states);
  const auto start = std::chrono::steady_clock::now();
  DeadlockSearchResult result = search();
  // Clamp: steady_clock quantization can report 0 elapsed on tiny
  // searches, which used to surface as 0 states/sec on warm fixtures.
  const double secs = std::max(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count(),
      1e-9);
  result.profile.elapsed_seconds = secs;
  result.profile.states_per_second =
      static_cast<double>(result.states_explored) / secs;
  if (board != nullptr) board->end_search();
  return result;
}

/// Component ids (dense, by first appearance) of each message when two
/// messages are connected iff their full routes share a channel, directly
/// or through a chain of other messages. Returns the component count.
std::uint32_t route_components(std::span<const std::vector<ChannelId>> routes,
                               std::size_t channel_count,
                               std::vector<std::uint32_t>& comp_of) {
  const std::size_t n = routes.size();
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<std::uint32_t> claim(channel_count, kNoTwin);
  for (std::size_t i = 0; i < n; ++i) {
    for (const ChannelId c : routes[i]) {
      std::uint32_t& slot = claim[c.index()];
      if (slot == kNoTwin) {
        slot = static_cast<std::uint32_t>(i);
        continue;
      }
      const std::uint32_t a = find(slot);
      const std::uint32_t b = find(static_cast<std::uint32_t>(i));
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  comp_of.assign(n, 0);
  std::vector<std::uint32_t> renumber(n, kNoTwin);
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t root = find(static_cast<std::uint32_t>(i));
    if (renumber[root] == kNoTwin) renumber[root] = count++;
    comp_of[i] = renumber[root];
  }
  return count;
}

/// Finishes a decomposed search that found a deadlock inside one component:
/// remaps the component witness onto the original message ids, replays it
/// on the full network, then greedily drains the untouched components so
/// the terminal state is frozen under the idle transition — the same
/// Definition-6 shape an engine-found deadlock replays to.
void finish_decomposed_witness(DeadlockSearchResult& total,
                               const routing::RoutingAlgorithm& alg,
                               std::span<const sim::MessageSpec> messages,
                               const SearchLimits& limits,
                               const DeadlockSearchResult& sub,
                               std::span<const std::uint32_t> to_orig) {
  sim::SimConfig config;
  config.buffer_depth = limits.buffer_depth;
  sim::WormholeSimulator replay(alg, config);
  for (const sim::MessageSpec& spec : messages) replay.add_message(spec);

  for (const auto& cycle : sub.witness_grants) {
    std::vector<std::pair<ChannelId, MessageId>> grants;
    grants.reserve(cycle.size());
    for (const auto& [channel, message] : cycle)
      grants.emplace_back(channel, MessageId{to_orig[message.index()]});
    replay.step_with_grants(grants);
    total.witness_grants.push_back(std::move(grants));
  }

  // The deadlocked component is frozen: its messages see only busy channels
  // (channel-disjointness keeps the other components off them), so they
  // raise no requests. Drain everything else to consumption or freeze.
  TakenSet taken(alg.net().channel_count());
  for (;;) {
    const std::vector<sim::MessageRequests> groups = replay.peek_requests();
    std::vector<std::pair<ChannelId, MessageId>> grants;
    taken.reset();
    for (const sim::MessageRequests& g : groups) {
      for (const ChannelId c : g.channels) {
        if (taken.try_take(c)) {
          grants.emplace_back(c, g.message);
          break;
        }
      }
    }
    if (grants.empty()) {
      sim::WormholeSimulator probe(replay);
      if (!probe.step_with_grants({})) break;  // frozen: done
      replay.step_with_grants({});  // idle progress (delivered worms drain)
      total.witness_grants.emplace_back();
      continue;
    }
    replay.step_with_grants(grants);
    total.witness_grants.push_back(std::move(grants));
  }

  if (limits.build_witness) {
    Assignment describe;
    for (const auto& cycle : total.witness_grants) {
      describe.clear();
      describe.grants = cycle;
      total.witness.push_back(describe_assignment(alg.net(), describe));
    }
  }
  finish_deadlock(total, replay, limits.build_witness);
}

/// Root component decomposition (DESIGN.md §12.3): when the messages split
/// into route-disjoint components, the product state space factors and each
/// component is searched on its own — a deadlock exists iff some component
/// deadlocks, and the space is exhausted iff every component search is.
/// nullopt when some route cannot be traced (e.g. a livelocking table) or
/// the messages form a single component (caller runs the plain engine).
/// Synchronous model only: witnesses stay stall-free, so the
/// remap-and-replay above reproduces the deadlock exactly.
std::optional<DeadlockSearchResult> decomposed_find_deadlock(
    const routing::RoutingAlgorithm& alg,
    std::span<const sim::MessageSpec> messages, const SearchLimits& limits) {
  std::vector<std::vector<ChannelId>> routes;
  routes.reserve(messages.size());
  for (const sim::MessageSpec& spec : messages) {
    auto route = routing::trace_path(alg, spec.src, spec.dst);
    if (!route) return std::nullopt;
    routes.push_back(std::move(*route));
  }
  std::vector<std::uint32_t> comp_of;
  const std::uint32_t count =
      route_components(routes, alg.net().channel_count(), comp_of);
  if (count < 2) return std::nullopt;

  DeadlockSearchResult total;
  for (std::uint32_t c = 0; c < count; ++c) {
    std::vector<sim::MessageSpec> sub;
    std::vector<std::uint32_t> to_orig;
    for (std::size_t m = 0; m < messages.size(); ++m) {
      if (comp_of[m] != c) continue;
      sub.push_back(messages[m]);
      to_orig.push_back(static_cast<std::uint32_t>(m));
    }
    // Each component gets the full limits (max_states is per sub-search).
    // A component is connected by construction, so it runs the plain
    // engine directly.
    const DeadlockSearchResult part =
        run_engine(alg, sub, AdversaryModel::kSynchronous, limits);
    total.states_explored += part.states_explored;
    total.profile.merge_from(part.profile);
    // Shards merge index-wise (worker t's effort across components stays
    // worker t's shard), preserving "shards fold to the merged profile".
    if (total.worker_profiles.size() < part.worker_profiles.size())
      total.worker_profiles.resize(part.worker_profiles.size());
    for (std::size_t t = 0; t < part.worker_profiles.size(); ++t)
      total.worker_profiles[t].merge_from(part.worker_profiles[t]);
    if (!part.exhausted) total.exhausted = false;
    if (part.deadlock_found) {
      finish_decomposed_witness(total, alg, messages, limits, part, to_orig);
      break;
    }
  }
  return total;
}

}  // namespace

DeadlockSearchResult find_deadlock(const routing::RoutingAlgorithm& alg,
                                   std::span<const sim::MessageSpec> messages,
                                   AdversaryModel model,
                                   const SearchLimits& limits) {
  check_specs(messages);
  return observed(limits, [&] {
    if (limits.reduction != ReductionMode::kOff &&
        model == AdversaryModel::kSynchronous && messages.size() >= 2) {
      if (auto result = decomposed_find_deadlock(alg, messages, limits))
        return *std::move(result);
    }
    return run_engine(alg, messages, model, limits);
  });
}

/// Adaptive routing has no fixed route per message, so kSafe reduces to
/// twin symmetry alone.
DeadlockSearchResult find_deadlock(const routing::AdaptiveRouting& alg,
                                   std::span<const sim::MessageSpec> messages,
                                   AdversaryModel model,
                                   const SearchLimits& limits) {
  check_specs(messages);
  return observed(limits,
                  [&] { return run_engine(alg, messages, model, limits); });
}

std::optional<std::uint32_t> minimal_deadlock_delay(
    const routing::RoutingAlgorithm& alg,
    std::span<const sim::MessageSpec> messages, DelayMetric metric,
    std::uint32_t max_budget, SearchLimits limits, bool* exhausted_out) {
  bool all_exhausted = true;
  limits.metric = metric;
  // The scan parallelizes across budgets: each budget runs a serial search,
  // and `threads` of them execute concurrently per chunk. Scanning chunks
  // in ascending order and reading results in budget order preserves the
  // serial semantics exactly (smallest deadlocking budget; exhaustion
  // accumulated over budgets up to and including the answer).
  const unsigned pool = resolve_threads(limits.threads);
  SearchLimits per_budget = limits;
  per_budget.threads = 1;
  // A board observes one search at a time; the budgets in a chunk run
  // concurrently, so the scan's sub-searches are unobserved (documented on
  // SearchLimits::status).
  per_budget.status = nullptr;

  std::uint32_t budget = 0;
  while (budget <= max_budget) {
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        pool, std::uint64_t{max_budget} - budget + 1));
    std::vector<DeadlockSearchResult> results(chunk);
    if (chunk == 1) {
      per_budget.delay_budget = budget;
      results[0] = find_deadlock(alg, messages, AdversaryModel::kBoundedDelay,
                                 per_budget);
    } else {
      std::vector<std::thread> pool_threads;
      pool_threads.reserve(chunk);
      for (std::uint32_t j = 0; j < chunk; ++j)
        pool_threads.emplace_back([&, j] {
          SearchLimits mine = per_budget;
          mine.delay_budget = budget + j;
          results[j] = find_deadlock(alg, messages,
                                     AdversaryModel::kBoundedDelay, mine);
        });
      for (std::thread& t : pool_threads) t.join();
    }
    for (std::uint32_t j = 0; j < chunk; ++j) {
      if (!results[j].exhausted) all_exhausted = false;
      if (results[j].deadlock_found) {
        if (exhausted_out) *exhausted_out = all_exhausted;
        return budget + j;
      }
    }
    budget += chunk;
  }
  if (exhausted_out) *exhausted_out = all_exhausted;
  return std::nullopt;
}

}  // namespace wormsim::analysis
