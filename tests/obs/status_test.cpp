// StatusWriter / StatusSampler unit tests: atomic publication, seq/pid
// stamping, exact u64 emission, and the sampler's rate/ETA/final-snapshot
// contract. The campaign-level schema checks live in
// tests/campaign/status_schema_test.cpp.
#include "obs/status.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "test_support.hpp"

namespace wormsim::obs {
namespace {

namespace fs = std::filesystem;

TEST(StatusWriterTest, WritesParseableSnapshotAndStampsSeqPid) {
  const std::string path = test::temp_dir("wormsim_status_writer_test.json");
  StatusWriter writer(path);

  StatusSnapshot snap;
  snap.kind = "campaign";
  snap.done = 7;
  ASSERT_TRUE(writer.write(snap));
  ASSERT_TRUE(writer.write(snap));
  EXPECT_EQ(writer.writes(), 2u);
  EXPECT_EQ(writer.write_failures(), 0u);

  const auto parsed = json::parse(test::slurp(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), kStatusSchema);
  EXPECT_EQ(parsed->find("seq")->as_u64(), 2u);  // stamped, not caller's
  EXPECT_GT(parsed->find("pid")->as_u64(), 0u);
  EXPECT_EQ(parsed->find("progress")->find("done")->as_u64(), 7u);

  // No temp droppings left behind by successful writes.
  for (const auto& entry :
       fs::directory_iterator(fs::path(path).parent_path()))
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos);
  fs::remove(path);
}

TEST(StatusWriterTest, EmitsSimCoreIntrospection) {
  const std::string path = test::temp_dir("wormsim_status_sim_test.json");
  StatusWriter writer(path);

  StatusSnapshot snap;
  snap.kind = "saturation";
  snap.sim.active = true;
  snap.sim.events.cycles_executed = 120;
  snap.sim.events.cycles_skipped = 9880;
  snap.sim.events.events_scheduled = 400;
  snap.sim.events.events_fired = 390;
  snap.sim.events.events_cancelled = 10;
  snap.sim.events.queue_peak = 64;
  snap.sim.messages_total = 32;
  snap.sim.messages_consumed = 30;
  snap.sim.busy_channel_fraction = 0.25;
  ASSERT_TRUE(writer.write(snap));

  const auto parsed = json::parse(test::slurp(path));
  ASSERT_TRUE(parsed.has_value());
  const json::Value* sim = parsed->find("sim");
  ASSERT_NE(sim, nullptr);
  EXPECT_TRUE(sim->find("active")->as_bool());
  EXPECT_EQ(sim->find("cycles_executed")->as_u64(), 120u);
  EXPECT_EQ(sim->find("cycles_skipped")->as_u64(), 9880u);
  EXPECT_EQ(sim->find("events_scheduled")->as_u64(), 400u);
  EXPECT_EQ(sim->find("events_fired")->as_u64(), 390u);
  EXPECT_EQ(sim->find("events_cancelled")->as_u64(), 10u);
  EXPECT_EQ(sim->find("queue_peak")->as_u64(), 64u);
  EXPECT_EQ(sim->find("messages_total")->as_u64(), 32u);
  EXPECT_EQ(sim->find("messages_consumed")->as_u64(), 30u);
  EXPECT_DOUBLE_EQ(sim->find("busy_channel_fraction")->as_number(), 0.25);
  fs::remove(path);
}

TEST(StatusWriterTest, CreatesMissingParentDirectories) {
  const std::string dir = test::temp_dir("wormsim_status_nested_dir");
  StatusWriter writer(dir + "/deep/status.json");
  EXPECT_TRUE(writer.write(StatusSnapshot{}));
  EXPECT_TRUE(fs::exists(dir + "/deep/status.json"));
  fs::remove_all(dir);
}

TEST(StatusWriterTest, FailureLeavesDestinationUntouchedAndCounts) {
  const std::string dir = test::temp_dir("wormsim_status_ro_dir");
  fs::create_directories(dir);
  const std::string path = dir + "/status.json";
  StatusWriter writer(path);
  ASSERT_TRUE(writer.write(StatusSnapshot{}));
  const std::string before = test::slurp(path);

  fs::permissions(dir, fs::perms::owner_read | fs::perms::owner_exec);
  const bool wrote = writer.write(StatusSnapshot{});
  fs::permissions(dir, fs::perms::owner_all);
  if (!wrote) {  // root can often write anyway; only assert when it failed
    EXPECT_EQ(writer.write_failures(), 1u);
    EXPECT_EQ(test::slurp(path), before);
  }
  fs::remove_all(dir);
}

TEST(StatusSnapshotTest, U64FieldsSurviveRoundTripAtFullWidth) {
  // Counters near 2^64 must not round through a double on the way to disk.
  const std::uint64_t big = (1ull << 63) + 4611686018427387905ull;  // odd
  StatusSnapshot snap;
  snap.states_total = big;
  snap.search.profile.memo_misses = big;
  WorkerStatus w;
  w.states = big;
  snap.workers.push_back(w);

  const auto parsed = json::parse(snap.to_json());
  ASSERT_TRUE(parsed.has_value());
  const json::Value* states = parsed->find("progress")->find("states_total");
  ASSERT_TRUE(states->is_exact_u64());
  EXPECT_EQ(states->as_u64(), big);
  EXPECT_EQ(parsed->find("search")->find("memo_misses")->as_u64(), big);
  EXPECT_EQ(parsed->find("workers")->as_array()[0].find("states")->as_u64(),
            big);
}

/// A histogram holding `n` observations of each given value.
Histogram branch_histogram(
    std::initializer_list<std::pair<double, int>> observations) {
  Histogram h;
  for (const auto& [value, n] : observations)
    for (int i = 0; i < n; ++i) h.observe(value);
  return h;
}

// Every field holds a distinct value, so the pinned bytes fix each key's
// name, its position and the field it reads. A change here is a schema
// change: bump kStatusSchema and docs/observability.md with it.
TEST(StatusSnapshotTest, GoldenBytesPinEveryKeyAndItsOrder) {
  StatusSnapshot snap;
  snap.kind = "campaign";
  snap.seq = 7;
  snap.pid = 8;
  snap.running = false;
  snap.elapsed_seconds = 1.5;
  snap.count = 101;
  snap.done = 104;
  snap.agree = 105;
  snap.disagree = 106;
  snap.skip = 107;
  snap.states_total = 108;
  snap.rate_per_second = 2.25;
  snap.eta_seconds = 3.125;
  snap.truth_disk_hits = 201;
  snap.truth_memo_hits = 202;
  snap.truth_misses = 203;
  snap.truth_hit_rate = 0.375;
  snap.sim.active = true;
  snap.sim.events.cycles_executed = 401;
  snap.sim.events.cycles_skipped = 402;
  snap.sim.events.events_scheduled = 403;
  snap.sim.events.events_fired = 404;
  snap.sim.events.events_cancelled = 405;
  snap.sim.events.queue_peak = 406;
  snap.sim.messages_total = 407;
  snap.sim.messages_consumed = 408;
  snap.sim.busy_channel_fraction = 0.625;

  SearchStatus& search = snap.search;
  search.active = true;
  search.searches_started = 501;
  search.searches_finished = 502;
  search.states_explored = 503;
  search.max_states = 504;
  search.frontier_size = 505;
  search.frontier_next = 506;
  SearchProfile& merged = search.profile;
  merged.memo_hits = 3;
  merged.memo_misses = 1;
  merged.peak_depth = 511;
  merged.branch_truncations = 512;
  merged.budget_prunes = 513;
  merged.steals = 514;
  merged.steal_attempts = 515;
  merged.splits = 516;
  merged.split_items = 517;
  merged.busy_ns = 518;
  merged.idle_ns = 519;
  merged.branch_factor = branch_histogram({{1, 50}, {2, 40}, {4, 9}, {16, 1}});
  search.table = {601, 602, 603, 604, 605, 606};

  WorkerStatus& w = snap.workers.emplace_back();
  w.in_flight = 700;
  w.done = 701;
  w.agree = 702;
  w.disagree = 703;
  w.skip = 704;
  w.states = 705;
  w.profile.memo_hits = 1;
  w.profile.memo_misses = 7;
  w.profile.peak_depth = 711;
  w.profile.branch_truncations = 712;
  w.profile.budget_prunes = 713;
  w.profile.steals = 714;
  w.profile.steal_attempts = 715;
  w.profile.splits = 716;
  w.profile.split_items = 717;
  w.profile.busy_ns = 718;
  w.profile.idle_ns = 719;
  w.profile.branch_factor = branch_histogram({{2, 50}, {4, 40}, {8, 10}});

  EXPECT_EQ(
      snap.to_json(),
      "{\"schema\":\"wormsim-status-v7\",\"kind\":\"campaign\",\"seq\":7,"
      "\"pid\":8,\"running\":false,\"elapsed_seconds\":1.5,"
      "\"progress\":{\"count\":101,\"done\":104,\"agree\":105,"
      "\"disagree\":106,\"skip\":107,\"states_total\":108,"
      "\"rate_per_second\":2.25,\"eta_seconds\":3.125},"
      "\"truth_cache\":{\"disk_hits\":201,\"memo_hits\":202,\"misses\":203,"
      "\"hit_rate\":0.375},"
      "\"sim\":{\"active\":true,\"cycles_executed\":401,"
      "\"cycles_skipped\":402,\"events_scheduled\":403,\"events_fired\":404,"
      "\"events_cancelled\":405,\"queue_peak\":406,\"messages_total\":407,"
      "\"messages_consumed\":408,\"busy_channel_fraction\":0.625},"
      "\"search\":{\"active\":true,\"searches_started\":501,"
      "\"searches_finished\":502,\"states_explored\":503,\"max_states\":504,"
      "\"frontier_size\":505,\"frontier_next\":506,\"memo_hits\":3,"
      "\"memo_misses\":1,\"peak_depth\":511,\"branch_truncations\":512,"
      "\"budget_prunes\":513,\"steals\":514,\"steal_attempts\":515,"
      "\"splits\":516,\"split_items\":517,\"busy_ns\":518,\"idle_ns\":519,"
      "\"memo_hit_rate\":0.75,\"branch_p50\":1,\"branch_p90\":2,"
      "\"branch_p99\":4,\"table_keys\":601,\"table_slots\":602,"
      "\"table_arena_bytes\":603,\"table_stripes\":604,"
      "\"table_contended_locks\":605,\"table_resident_bytes\":606},"
      "\"workers\":[{\"in_flight\":700,\"done\":701,\"agree\":702,"
      "\"disagree\":703,\"skip\":704,\"states\":705,\"memo_hits\":1,"
      "\"memo_misses\":7,"
      "\"peak_depth\":711,\"branch_truncations\":712,\"budget_prunes\":713,"
      "\"steals\":714,\"steal_attempts\":715,\"splits\":716,"
      "\"split_items\":717,\"busy_ns\":718,\"idle_ns\":719,"
      "\"memo_hit_rate\":0.125,\"branch_p50\":2,\"branch_p90\":4,"
      "\"branch_p99\":8}]}\n");
}

TEST(StatusSamplerTest, FinalSnapshotHasRunningFalseAndProducerState) {
  const std::string path = test::temp_dir("wormsim_status_sampler_test.json");
  std::atomic<std::uint64_t> done{0};
  {
    StatusSampler sampler(path, 0.01, [&done] {
      StatusSnapshot snap;
      snap.count = 100;
      snap.done = done.load();
      return snap;
    });
    // Initial snapshot exists before any interval elapses.
    EXPECT_TRUE(fs::exists(path));
    done.store(100);
    sampler.stop();
    EXPECT_GE(sampler.writes(), 2u);  // initial + final at minimum
    EXPECT_EQ(sampler.write_failures(), 0u);
  }
  const auto parsed = json::parse(test::slurp(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->find("running")->as_bool());
  EXPECT_EQ(parsed->find("progress")->find("done")->as_u64(), 100u);
  EXPECT_DOUBLE_EQ(parsed->find("progress")->find("eta_seconds")->as_number(),
                   0);
  EXPECT_GE(parsed->find("elapsed_seconds")->as_number(), 0.0);
  fs::remove(path);
}

TEST(StatusSamplerTest, EtaIsUnknownBeforeProgressThenZeroWhenDone) {
  const std::string path = test::temp_dir("wormsim_status_eta_test.json");
  {
    // Producer never advances: rate stays 0, remaining stays 50.
    StatusSampler sampler(path, 3600, [] {
      StatusSnapshot snap;
      snap.count = 50;
      snap.done = 0;
      return snap;
    });
    const auto parsed = json::parse(test::slurp(path));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(
        parsed->find("progress")->find("eta_seconds")->as_number(), -1);
    EXPECT_DOUBLE_EQ(
        parsed->find("progress")->find("rate_per_second")->as_number(), 0);
  }
  fs::remove(path);
}

TEST(StatusSamplerTest, StopIsIdempotentAndDestructorSafe) {
  const std::string path = test::temp_dir("wormsim_status_stop_test.json");
  StatusSampler sampler(path, 0.01, [] { return StatusSnapshot{}; });
  sampler.stop();
  const std::uint64_t writes = sampler.writes();
  sampler.stop();  // no-op
  EXPECT_EQ(sampler.writes(), writes);
  fs::remove(path);
}

TEST(StatusSamplerTest, NonFiniteIntervalsAreClamped) {
  // An infinite interval handed to the timed wait is undefined behaviour
  // (in practice an overflowed deadline and a spinning thread); the
  // sampler clamps it to a finite maximum, so only the initial snapshot is
  // written before stop(). NaN reads as the minimum interval.
  const std::string path = test::temp_dir("wormsim_status_clamp_test.json");
  for (const double interval :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    StatusSampler sampler(path, interval, [] { return StatusSnapshot{}; });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (std::isinf(interval)) EXPECT_EQ(sampler.writes(), 1u);
    sampler.stop();
    EXPECT_GE(sampler.writes(), 2u);
  }
  fs::remove(path);
}

TEST(StatusSamplerTest, ParseSecondsAcceptsOnlyFinitePositiveNumbers) {
  EXPECT_EQ(parse_seconds("0.5"), 0.5);
  EXPECT_EQ(parse_seconds("2"), 2.0);
  for (const char* bad : {"", "abc", "1x", "0", "-1", "inf", "-inf", "nan",
                          "1e400"})
    EXPECT_FALSE(parse_seconds(bad).has_value()) << bad;
}

// Readers must never see a torn snapshot while a writer keeps replacing the
// file. This also exercises the rename path under concurrency for TSan.
TEST(StatusSamplerTest, ConcurrentReadersSeeOnlyCompleteSnapshots) {
  const std::string path = test::temp_dir("wormsim_status_race_test.json");
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load()) {
      const std::string text = test::slurp(path);
      if (text.empty()) continue;  // not yet published
      const auto parsed = json::parse(text);
      if (!parsed || !parsed->is_object() ||
          parsed->find("schema") == nullptr ||
          parsed->find("schema")->as_string() != kStatusSchema)
        torn.fetch_add(1);
    }
  });
  {
    StatusSampler sampler(path, 0.001, [] {
      StatusSnapshot snap;
      for (int i = 0; i < 8; ++i) snap.workers.emplace_back();
      return snap;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  fs::remove(path);
}

}  // namespace
}  // namespace wormsim::obs
