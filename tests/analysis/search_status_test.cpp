// SearchStatusBoard: live introspection into the deadlock search, and the
// per-worker profile shards on DeadlockSearchResult.
//
// The two contracts pinned here:
//   1. result.worker_profiles is an exact partition of result.profile —
//      folding the shards with merge_from reproduces every counter, and the
//      shard memo_misses sum to states_explored.
//   2. A board attached via SearchLimits::status is purely observational
//      (identical verdicts/profiles) and can be sampled from another thread
//      while the search runs (the TSan CI job runs this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "analysis/deadlock_search.hpp"
#include "analysis/search_status.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "obs/json.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

class SearchStatusRingTest : public ::testing::Test {
 protected:
  SearchStatusRingTest() : net_(topo::make_unidirectional_ring(4)) {
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t d = 0; d < 4; ++d)
        if (s != d)
          table_->set(NodeId{s}, NodeId{d},
                      *net_.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  }
  std::vector<sim::MessageSpec> neighbor_messages() const {
    std::vector<sim::MessageSpec> specs;
    for (std::size_t s = 0; s < 4; ++s)
      specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
    return specs;
  }
  std::vector<sim::MessageSpec> ring_messages(std::uint32_t length) const {
    std::vector<sim::MessageSpec> specs;
    for (std::size_t s = 0; s < 4; ++s)
      specs.push_back({NodeId{s}, NodeId{(s + 2) % 4}, length, 0});
    return specs;
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
};

void expect_shards_partition_profile(const DeadlockSearchResult& result,
                                     unsigned expected_shards) {
  ASSERT_EQ(result.worker_profiles.size(), expected_shards);
  SearchProfile folded;
  for (const SearchProfile& shard : result.worker_profiles)
    folded.merge_from(shard);
  EXPECT_EQ(folded.memo_hits, result.profile.memo_hits);
  EXPECT_EQ(folded.memo_misses, result.profile.memo_misses);
  EXPECT_EQ(folded.peak_depth, result.profile.peak_depth);
  EXPECT_EQ(folded.branch_truncations, result.profile.branch_truncations);
  EXPECT_EQ(folded.budget_prunes, result.profile.budget_prunes);
  EXPECT_EQ(folded.branch_factor.count(), result.profile.branch_factor.count());
  EXPECT_DOUBLE_EQ(folded.branch_factor.sum(),
                   result.profile.branch_factor.sum());
  // The shards' fresh-state counts are exactly the states explored: each
  // registered state was counted by exactly one worker.
  EXPECT_EQ(folded.memo_misses, result.states_explored);
}

TEST_F(SearchStatusRingTest, SerialWorkerProfilesPartitionTheProfile) {
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kSynchronous, {});
  EXPECT_TRUE(result.exhausted);
  expect_shards_partition_profile(result, 1);
}

TEST_F(SearchStatusRingTest, ParallelWorkerProfilesPartitionTheProfile) {
  SearchLimits limits;
  limits.threads = 4;
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_TRUE(result.exhausted);
  expect_shards_partition_profile(result, 4);
}

TEST_F(SearchStatusRingTest, BoundedDelayShardsIncludeBudgetPrunes) {
  SearchLimits limits;
  limits.delay_budget = 2;
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kBoundedDelay, limits);
  expect_shards_partition_profile(result, 1);
}

TEST(SearchStatusPaperTest, Fig1ParallelShardsPartitionTheProfile) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  SearchLimits limits;
  limits.threads = 4;
  const auto result = find_deadlock(family.algorithm(), specs,
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_TRUE(result.exhausted);
  expect_shards_partition_profile(result, 4);
}

TEST_F(SearchStatusRingTest, BoardIsPurelyObservational) {
  SearchStatusBoard board;
  SearchLimits with_board;
  with_board.status = &board;
  const auto observed = find_deadlock(*table_, neighbor_messages(),
                                      AdversaryModel::kSynchronous, with_board);
  const auto plain = find_deadlock(*table_, neighbor_messages(),
                                   AdversaryModel::kSynchronous, {});
  EXPECT_EQ(observed.deadlock_found, plain.deadlock_found);
  EXPECT_EQ(observed.exhausted, plain.exhausted);
  EXPECT_EQ(observed.states_explored, plain.states_explored);
  EXPECT_EQ(observed.profile.memo_hits, plain.profile.memo_hits);
  EXPECT_EQ(observed.profile.memo_misses, plain.profile.memo_misses);
}

TEST_F(SearchStatusRingTest, BoardReportsFinalNumbersAfterSearch) {
  SearchStatusBoard board;
  SearchLimits limits;
  limits.status = &board;
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kSynchronous, limits);

  const SearchStatusBoard::Sample sample = board.sample();
  EXPECT_FALSE(sample.active);
  EXPECT_EQ(sample.searches_started, 1u);
  EXPECT_EQ(sample.searches_finished, 1u);
  EXPECT_EQ(sample.states_explored, result.states_explored);
  EXPECT_EQ(sample.max_states, limits.max_states);
  EXPECT_EQ(sample.table.keys, result.states_explored);
  EXPECT_GT(sample.table.arena_bytes, 0u);
  EXPECT_GE(sample.elapsed_seconds, 0.0);

  // The engine publishes every worker's final shard before detaching, so
  // the board's shards agree with the result's.
  ASSERT_EQ(sample.workers.size(), result.worker_profiles.size());
  SearchProfile folded;
  for (const SearchProfile& shard : sample.workers) folded.merge_from(shard);
  EXPECT_EQ(folded.memo_misses, result.profile.memo_misses);
  EXPECT_EQ(folded.memo_hits, result.profile.memo_hits);
}

TEST_F(SearchStatusRingTest, BoardIsReusedAcrossSequentialSearches) {
  SearchStatusBoard board;
  SearchLimits limits;
  limits.status = &board;
  const auto first = find_deadlock(*table_, neighbor_messages(),
                                   AdversaryModel::kSynchronous, limits);
  const auto second = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kSynchronous, limits);
  (void)first;
  const SearchStatusBoard::Sample sample = board.sample();
  EXPECT_EQ(sample.searches_started, 2u);
  EXPECT_EQ(sample.searches_finished, 2u);
  // Shards were reset at the second attach: they reflect only that search.
  EXPECT_EQ(sample.states_explored, second.states_explored);
  SearchProfile folded;
  for (const SearchProfile& shard : sample.workers) folded.merge_from(shard);
  EXPECT_EQ(folded.memo_misses, second.profile.memo_misses);
}

TEST_F(SearchStatusRingTest, ParallelBoardTracksFrontier) {
  SearchStatusBoard board;
  SearchLimits limits;
  limits.status = &board;
  limits.threads = 4;
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_TRUE(result.exhausted);
  const SearchStatusBoard::Sample sample = board.sample();
  EXPECT_GT(sample.frontier_size, 0u);
  EXPECT_EQ(sample.frontier_next, sample.frontier_size);  // all claimed
}

// Sampling races against a live multi-threaded search: every sample must be
// internally coherent and the mechanism data-race-free (TSan CI covers this
// suite). Monotonicity of searches_started/finished is also checked.
TEST_F(SearchStatusRingTest, ConcurrentSamplingDuringSearchIsCoherent) {
  SearchStatusBoard board;
  SearchLimits limits;
  limits.status = &board;
  limits.threads = 4;

  std::atomic<bool> done{false};
  std::uint64_t last_started = 0;
  std::uint64_t samples = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      const SearchStatusBoard::Sample s = board.sample();
      EXPECT_GE(s.searches_started, last_started);
      EXPECT_LE(s.searches_finished, s.searches_started);
      last_started = s.searches_started;
      ++samples;
    }
  });

  DeadlockSearchResult result;
  for (int round = 0; round < 3; ++round)
    result = find_deadlock(*table_, neighbor_messages(),
                           AdversaryModel::kSynchronous, limits);
  done.store(true);
  sampler.join();
  EXPECT_GT(samples, 0u);
  EXPECT_TRUE(result.exhausted);

  const SearchStatusBoard::Sample final_sample = board.sample();
  EXPECT_EQ(final_sample.searches_started, 3u);
  EXPECT_EQ(final_sample.searches_finished, 3u);
}

TEST_F(SearchStatusRingTest, SnapshotHelperEmitsParseableSearchKind) {
  SearchStatusBoard board;
  SearchLimits limits;
  limits.status = &board;
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kSynchronous, limits);

  const obs::StatusSnapshot snap = search_status_snapshot(board);
  EXPECT_EQ(snap.kind, "search");
  EXPECT_EQ(snap.states_total, result.states_explored);
  EXPECT_EQ(snap.search.states_explored, result.states_explored);
  EXPECT_EQ(snap.search.profile.memo_hits, result.profile.memo_hits);
  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].done, 0u);  // verdict counters are campaign-only
  EXPECT_EQ(snap.workers[0].states, result.states_explored);

  const auto parsed = obs::json::parse(snap.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("kind")->as_string(), "search");
  EXPECT_EQ(parsed->find("search")->find("states_explored")->as_u64(),
            result.states_explored);
}

TEST_F(SearchStatusRingTest, MinimalDelayScanLeavesBoardConsistent) {
  // minimal_deadlock_delay runs budget scans concurrently, so it must not
  // attach the caller's board (one search at a time); the board stays
  // untouched and the scan result matches an unobserved scan.
  SearchStatusBoard board;
  SearchLimits limits;
  limits.status = &board;
  const auto with_board = minimal_deadlock_delay(
      *table_, ring_messages(2), DelayMetric::kTotal, 2, limits);
  const SearchStatusBoard::Sample sample = board.sample();
  EXPECT_EQ(sample.searches_started, 0u);
  const auto plain = minimal_deadlock_delay(*table_, ring_messages(2),
                                            DelayMetric::kTotal, 2, {});
  EXPECT_EQ(with_board, plain);
}

}  // namespace
}  // namespace wormsim::analysis
