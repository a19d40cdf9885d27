#include "analysis/search_status.hpp"

namespace wormsim::analysis {

namespace {

void add_table_stats(StateTable::Stats& into, const StateTable::Stats& s) {
  into.keys += s.keys;
  into.slots += s.slots;
  into.arena_bytes += s.arena_bytes;
  into.stripes += s.stripes;
  into.contended_locks += s.contended_locks;
  into.resident_bytes += s.resident_bytes;
}

}  // namespace

SearchStatusBoard::Sample SearchStatusBoard::sample() const {
  Sample out;
  std::lock_guard<std::mutex> lock(mu_);
  out.active = active_;
  out.searches_started = searches_started_;
  out.searches_finished = searches_finished_;
  out.states_explored =
      done_states_ + states_.load(std::memory_order_relaxed);
  out.max_states = max_states_.load(std::memory_order_relaxed);
  out.frontier_size =
      done_frontier_size_ + frontier_size_.load(std::memory_order_relaxed);
  out.frontier_next =
      done_frontier_next_ + frontier_next_.load(std::memory_order_relaxed);
  out.table = done_table_;
  if (table_ != nullptr) add_table_stats(out.table, table_->stats());
  out.elapsed_seconds =
      active_ ? std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - search_start_)
                    .count()
              : last_elapsed_;
  out.workers.reserve(active_workers_);
  for (std::size_t i = 0; i < active_workers_; ++i) {
    std::lock_guard<std::mutex> shard_lock(shards_[i]->mu);
    SearchProfile& shard = out.workers.emplace_back(shards_[i]->done);
    shard.merge_from(shards_[i]->live);
  }
  return out;
}

void SearchStatusBoard::begin_search(std::size_t workers,
                                     std::uint64_t max_states) {
  std::lock_guard<std::mutex> lock(mu_);
  while (shards_.size() < workers) shards_.push_back(std::make_unique<Shard>());
  for (std::size_t i = 0; i < workers; ++i) {
    std::lock_guard<std::mutex> shard_lock(shards_[i]->mu);
    shards_[i]->done = SearchProfile{};
    shards_[i]->live = SearchProfile{};
  }
  active_workers_ = workers;
  done_table_ = StateTable::Stats{};
  done_states_ = 0;
  done_frontier_size_ = 0;
  done_frontier_next_ = 0;
  active_ = true;
  ++searches_started_;
  search_start_ = std::chrono::steady_clock::now();
  states_.store(0, std::memory_order_relaxed);
  max_states_.store(max_states, std::memory_order_relaxed);
  frontier_size_.store(0, std::memory_order_relaxed);
  frontier_next_.store(0, std::memory_order_relaxed);
}

void SearchStatusBoard::end_search() {
  std::lock_guard<std::mutex> lock(mu_);
  last_elapsed_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - search_start_)
                      .count();
  active_ = false;
  ++searches_finished_;
}

void SearchStatusBoard::begin_segment(const StateTable* table) {
  std::lock_guard<std::mutex> lock(mu_);
  table_ = table;
}

void SearchStatusBoard::end_segment(std::uint64_t final_states) {
  std::lock_guard<std::mutex> lock(mu_);
  if (table_ != nullptr) add_table_stats(done_table_, table_->stats());
  table_ = nullptr;
  done_states_ += final_states;
  done_frontier_size_ += frontier_size_.exchange(0, std::memory_order_relaxed);
  done_frontier_next_ += frontier_next_.exchange(0, std::memory_order_relaxed);
  states_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < active_workers_; ++i) {
    std::lock_guard<std::mutex> shard_lock(shards_[i]->mu);
    shards_[i]->done.merge_from(shards_[i]->live);
    shards_[i]->live = SearchProfile{};
  }
}

void SearchStatusBoard::publish_worker(std::size_t worker,
                                       const SearchProfile& profile) {
  Shard& shard = *shards_[worker];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.live = profile;
}

obs::SearchStatus to_search_status(const SearchStatusBoard::Sample& sample) {
  obs::SearchStatus out;
  out.active = sample.active;
  out.searches_started = sample.searches_started;
  out.searches_finished = sample.searches_finished;
  out.states_explored = sample.states_explored;
  out.max_states = sample.max_states;
  out.frontier_size = sample.frontier_size;
  out.frontier_next = sample.frontier_next;
  SearchProfile merged;
  for (const SearchProfile& p : sample.workers) merged.merge_from(p);
  out.memo_hits = merged.memo_hits;
  out.memo_misses = merged.memo_misses;
  out.memo_hit_rate = merged.memo_hit_rate();
  out.peak_depth = merged.peak_depth;
  out.branch_truncations = merged.branch_truncations;
  out.budget_prunes = merged.budget_prunes;
  out.steals = merged.steals;
  out.steal_attempts = merged.steal_attempts;
  out.splits = merged.splits;
  out.split_items = merged.split_items;
  out.branch_p50 = merged.branch_factor.p50();
  out.branch_p90 = merged.branch_factor.p90();
  out.branch_p99 = merged.branch_factor.p99();
  out.table_keys = sample.table.keys;
  out.table_slots = sample.table.slots;
  out.table_arena_bytes = sample.table.arena_bytes;
  out.table_stripes = sample.table.stripes;
  out.table_contended_locks = sample.table.contended_locks;
  out.table_resident_bytes = sample.table.resident_bytes;
  return out;
}

obs::WorkerStatus to_worker_status(const SearchProfile& profile) {
  obs::WorkerStatus out;
  out.states = profile.memo_misses;
  out.memo_hits = profile.memo_hits;
  out.memo_misses = profile.memo_misses;
  out.peak_depth = profile.peak_depth;
  out.branch_truncations = profile.branch_truncations;
  out.budget_prunes = profile.budget_prunes;
  out.steals = profile.steals;
  out.steal_attempts = profile.steal_attempts;
  out.splits = profile.splits;
  out.busy_ns = profile.busy_ns;
  out.idle_ns = profile.idle_ns;
  out.branch_p50 = profile.branch_factor.p50();
  out.branch_p90 = profile.branch_factor.p90();
  out.branch_p99 = profile.branch_factor.p99();
  return out;
}

obs::StatusSnapshot search_status_snapshot(const SearchStatusBoard& board) {
  obs::StatusSnapshot snap;
  snap.kind = "search";
  const SearchStatusBoard::Sample s = board.sample();
  snap.search = to_search_status(s);
  snap.states_total = snap.search.states_explored;
  snap.elapsed_seconds = s.elapsed_seconds;
  snap.workers.reserve(s.workers.size());
  for (const SearchProfile& p : s.workers)
    snap.workers.push_back(to_worker_status(p));
  return snap;
}

}  // namespace wormsim::analysis
