// Work-stealing scheduler: determinism under stealing, and evidence that
// the scheduler actually redistributes work.
//
// The engine's contract (deadlock_search.hpp): threads is a pure
// scheduling knob. Verdicts, exhaustive state counts, and the entire
// witness are byte-identical at every thread count. These
// tests pin that on the paper's instances, then check the scheduler
// counters on the skewed tree that motivated work stealing: one deep spine
// behind a wide shallow root, the worst case for static partitioning.
//
// CI runs this suite under ThreadSanitizer (the WorkStealing* filter in
// ci.yml), so the deque/steal/termination protocol is race-checked, not
// just verdict-checked.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/deadlock_search.hpp"
#include "analysis/search_status.hpp"
#include "core/cyclic_family.hpp"

namespace wormsim::analysis {
namespace {

SearchLimits sched(unsigned threads, SearchLimits limits = {}) {
  limits.threads = threads;
  return limits;
}

/// The skewed search tree from bench_search: the Figure-1 ring plus three
/// short stub messages that widen the root while one spine carries nearly
/// all unique states.
core::CyclicFamilySpec skewed_spec() {
  core::CyclicFamilySpec spec = core::fig1_spec();
  spec.name = "skewed-fig1-plus-stubs";
  for (int i = 0; i < 3; ++i) spec.messages.push_back({2, 1, true});
  return spec;
}

constexpr unsigned kThreads[] = {1, 2, 4};

TEST(WorkStealingDeterminism, ExhaustiveCountsIdenticalAcrossSchedules) {
  // Figure 1 is deadlock-free (Theorem 1): every schedule must exhaust the
  // identical space. Unique-state and transition counts are schedule-
  // independent because the shared exact table expands each state once.
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  const auto baseline = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      sched(1));
  ASSERT_FALSE(baseline.deadlock_found);
  ASSERT_TRUE(baseline.exhausted);
  ASSERT_GT(baseline.states_explored, 0u);

  for (const unsigned threads : kThreads) {
    const auto result = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      sched(threads));
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_FALSE(result.deadlock_found);
    EXPECT_TRUE(result.exhausted);
    EXPECT_EQ(result.states_explored, baseline.states_explored);
    EXPECT_EQ(result.profile.memo_misses, baseline.profile.memo_misses);
    EXPECT_EQ(result.profile.memo_hits, baseline.profile.memo_hits);
  }
}

TEST(WorkStealingDeterminism, WitnessIdenticalAcrossSchedules) {
  // Figure 2 deadlocks. The parallel engines re-derive the serial result,
  // so witness text, machine grants and the deadlocked cycle are
  // byte-identical to threads=1 at every thread count.
  const core::CyclicFamily family(core::fig2_spec());
  const auto specs = family.message_specs();
  const auto baseline = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      sched(1));
  ASSERT_TRUE(baseline.deadlock_found);
  ASSERT_FALSE(baseline.witness_grants.empty());

  for (const unsigned threads : kThreads) {
    const auto result = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      sched(threads));
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ASSERT_TRUE(result.deadlock_found);
    EXPECT_EQ(result.states_explored, baseline.states_explored);
    EXPECT_EQ(result.witness, baseline.witness);
    EXPECT_EQ(result.witness_grants, baseline.witness_grants);
    EXPECT_EQ(result.deadlock_cycle, baseline.deadlock_cycle);
    ASSERT_EQ(result.deadlock_configuration.placements.size(),
              baseline.deadlock_configuration.placements.size());
    for (std::size_t i = 0;
         i < result.deadlock_configuration.placements.size(); ++i)
      EXPECT_EQ(result.deadlock_configuration.placements[i].occupied,
                baseline.deadlock_configuration.placements[i].occupied);
  }
}

TEST(WorkStealing, SkewedTreeSplitsAndSteals) {
  // The scheduler's reason to exist: with idle peers, the worker holding
  // the deep spine must re-split its stack and the peers must steal the
  // pieces. Also pins the serial/parallel count identity on this shape.
  const core::CyclicFamily family(skewed_spec());
  const auto specs = family.message_specs();
  const auto serial = find_deadlock(family.algorithm(), specs,
                                    AdversaryModel::kSynchronous,
                                    sched(1));
  const auto parallel = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      sched(4));
  ASSERT_TRUE(serial.exhausted);
  ASSERT_TRUE(parallel.exhausted);
  EXPECT_EQ(parallel.states_explored, serial.states_explored);

  EXPECT_EQ(parallel.worker_profiles.size(), 4u);
  EXPECT_GT(parallel.profile.splits, 0u);
  EXPECT_GT(parallel.profile.split_items, 0u);
  EXPECT_GT(parallel.profile.steals, 0u);
  EXPECT_GE(parallel.profile.steal_attempts, parallel.profile.steals);
  // Timing telemetry is stamped per worker and summed by merge_from.
  EXPECT_GT(parallel.profile.busy_ns, 0u);

  // The serial engine runs through the same scheduler with nobody to feed.
  EXPECT_EQ(serial.profile.splits, 0u);
  EXPECT_EQ(serial.profile.steals, 0u);
}

TEST(WorkStealing, StatusBoardPublishesSchedulerCounters) {
  SearchStatusBoard board;
  const core::CyclicFamily family(skewed_spec());
  SearchLimits limits = sched(4);
  limits.status = &board;
  const auto result = find_deadlock(family.algorithm(),
                                    family.message_specs(),
                                    AdversaryModel::kSynchronous, limits);
  ASSERT_TRUE(result.exhausted);

  const auto sample = board.sample();
  EXPECT_FALSE(sample.active);  // search detached
  EXPECT_EQ(sample.searches_finished, 1u);
  // Every created work item was completed — that is the termination rule.
  EXPECT_GT(sample.frontier_size, 0u);
  EXPECT_EQ(sample.frontier_next, sample.frontier_size);

  const obs::SearchStatus status = to_search_status({&sample, 1});
  EXPECT_EQ(status.states_explored, result.states_explored);
  EXPECT_EQ(status.profile.steals, result.profile.steals);
  EXPECT_EQ(status.profile.splits, result.profile.splits);
  EXPECT_EQ(status.profile.split_items, result.profile.split_items);
  EXPECT_GT(status.table.resident_bytes, 0u);

  // Worker rows carry the busy/idle split the dashboard's utilization
  // column derives from.
  const obs::StatusSnapshot snap = search_status_snapshot(board);
  ASSERT_EQ(snap.workers.size(), 4u);
  std::uint64_t busy = 0;
  for (std::size_t i = 0; i < snap.workers.size(); ++i) {
    busy += snap.workers[i].profile.busy_ns;
    EXPECT_EQ(snap.workers[i].profile.steals, sample.workers[i].steals);
  }
  EXPECT_GT(busy, 0u);
}

TEST(WorkStealing, BoundedDelayCountsIdenticalAcrossSchedules) {
  // The spent-delay vector rides in the state key; stealing must not
  // perturb the bounded-delay space either.
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  SearchLimits base;
  base.delay_budget = 2;
  const auto serial = find_deadlock(family.algorithm(), specs,
                                    AdversaryModel::kBoundedDelay,
                                    sched(1, base));
  for (const unsigned threads : {2u, 4u}) {
    const auto parallel = find_deadlock(family.algorithm(), specs,
                                        AdversaryModel::kBoundedDelay,
                                        sched(threads, base));
    EXPECT_EQ(parallel.deadlock_found, serial.deadlock_found);
    EXPECT_EQ(parallel.exhausted, serial.exhausted);
    if (serial.exhausted && parallel.exhausted)
      EXPECT_EQ(parallel.states_explored, serial.states_explored);
  }
}

}  // namespace
}  // namespace wormsim::analysis
