#include "analysis/search_status.hpp"

#include <algorithm>

namespace wormsim::analysis {

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
  if (table_ != nullptr) out.table += table_->stats();
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
  done_table_ = obs::TableStats{};
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
  if (table_ != nullptr) done_table_ += table_->stats();
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

obs::SearchStatus to_search_status(
    std::span<const SearchStatusBoard::Sample> samples) {
  obs::SearchStatus out;
  for (const SearchStatusBoard::Sample& s : samples) {
    out.active |= s.active;
    out.searches_started += s.searches_started;
    out.searches_finished += s.searches_finished;
    out.states_explored += s.states_explored;
    out.max_states = std::max(out.max_states, s.max_states);
    out.frontier_size += s.frontier_size;
    out.frontier_next += s.frontier_next;
    out.table += s.table;
    for (const SearchProfile& p : s.workers) out.profile.merge_from(p);
  }
  return out;
}

obs::StatusSnapshot search_status_snapshot(const SearchStatusBoard& board) {
  obs::StatusSnapshot snap;
  snap.kind = "search";
  const SearchStatusBoard::Sample s = board.sample();
  snap.search = to_search_status({&s, 1});
  snap.states_total = snap.search.states_explored;
  snap.elapsed_seconds = s.elapsed_seconds;
  snap.workers.reserve(s.workers.size());
  // A DFS worker's states are the fresh states it registered.
  for (const SearchProfile& p : s.workers)
    snap.workers.push_back({.states = p.memo_misses, .profile = p});
  return snap;
}

}  // namespace wormsim::analysis
