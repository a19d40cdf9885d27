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
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"

namespace wormsim::obs {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(StatusWriterTest, WritesParseableSnapshotAndStampsSeqPid) {
  const std::string path = temp_path("wormsim_status_writer_test.json");
  fs::remove(path);
  StatusWriter writer(path);

  StatusSnapshot snap;
  snap.kind = "campaign";
  snap.done = 7;
  ASSERT_TRUE(writer.write(snap));
  ASSERT_TRUE(writer.write(snap));
  EXPECT_EQ(writer.writes(), 2u);
  EXPECT_EQ(writer.write_failures(), 0u);

  const auto parsed = json::parse(read_file(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), kStatusSchema);
  EXPECT_EQ(parsed->find("seq")->as_u64(), 2u);  // stamped, not caller's
  EXPECT_GT(parsed->find("pid")->as_u64(), 0u);
  EXPECT_EQ(parsed->find("progress")->find("done")->as_u64(), 7u);

  // No temp droppings left behind by successful writes.
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path()))
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos);
  fs::remove(path);
}

TEST(StatusWriterTest, EmitsSimCoreIntrospection) {
  const std::string path = temp_path("wormsim_status_sim_test.json");
  fs::remove(path);
  StatusWriter writer(path);

  StatusSnapshot snap;
  snap.kind = "saturation";
  snap.sim.active = true;
  snap.sim.core = "event";
  snap.sim.cycles_executed = 120;
  snap.sim.cycles_skipped = 9880;
  snap.sim.events_scheduled = 400;
  snap.sim.events_fired = 390;
  snap.sim.events_cancelled = 10;
  snap.sim.queue_peak = 64;
  snap.sim.messages_total = 32;
  snap.sim.messages_consumed = 30;
  snap.sim.busy_channel_fraction = 0.25;
  ASSERT_TRUE(writer.write(snap));

  const auto parsed = json::parse(read_file(path));
  ASSERT_TRUE(parsed.has_value());
  const json::Value* sim = parsed->find("sim");
  ASSERT_NE(sim, nullptr);
  EXPECT_TRUE(sim->find("active")->as_bool());
  EXPECT_EQ(sim->find("core")->as_string(), "event");
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
  const std::string dir = temp_path("wormsim_status_nested_dir");
  fs::remove_all(dir);
  StatusWriter writer(dir + "/deep/status.json");
  EXPECT_TRUE(writer.write(StatusSnapshot{}));
  EXPECT_TRUE(fs::exists(dir + "/deep/status.json"));
  fs::remove_all(dir);
}

TEST(StatusWriterTest, FailureLeavesDestinationUntouchedAndCounts) {
  const std::string dir = temp_path("wormsim_status_ro_dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/status.json";
  StatusWriter writer(path);
  ASSERT_TRUE(writer.write(StatusSnapshot{}));
  const std::string before = read_file(path);

  fs::permissions(dir, fs::perms::owner_read | fs::perms::owner_exec);
  const bool wrote = writer.write(StatusSnapshot{});
  fs::permissions(dir, fs::perms::owner_all);
  if (!wrote) {  // root can often write anyway; only assert when it failed
    EXPECT_EQ(writer.write_failures(), 1u);
    EXPECT_EQ(read_file(path), before);
  }
  fs::remove_all(dir);
}

TEST(StatusSnapshotTest, U64FieldsSurviveRoundTripAtFullWidth) {
  // Counters near 2^64 must not round through a double on the way to disk.
  const std::uint64_t big = (1ull << 63) + 4611686018427387905ull;  // odd
  StatusSnapshot snap;
  snap.states_total = big;
  snap.search.memo_misses = big;
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

TEST(StatusSamplerTest, FinalSnapshotHasRunningFalseAndProducerState) {
  const std::string path = temp_path("wormsim_status_sampler_test.json");
  fs::remove(path);
  std::atomic<std::uint64_t> done{0};
  {
    StatusSampler sampler(path, 0.01, [&done] {
      StatusSnapshot snap;
      snap.end_index = 100;
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
  const auto parsed = json::parse(read_file(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->find("running")->as_bool());
  EXPECT_EQ(parsed->find("progress")->find("done")->as_u64(), 100u);
  EXPECT_DOUBLE_EQ(parsed->find("progress")->find("eta_seconds")->as_number(),
                   0);
  EXPECT_GE(parsed->find("elapsed_seconds")->as_number(), 0.0);
  fs::remove(path);
}

TEST(StatusSamplerTest, EtaIsUnknownBeforeProgressThenZeroWhenDone) {
  const std::string path = temp_path("wormsim_status_eta_test.json");
  fs::remove(path);
  {
    // Producer never advances: rate stays 0, remaining stays 50.
    StatusSampler sampler(path, 3600, [] {
      StatusSnapshot snap;
      snap.end_index = 50;
      snap.done = 0;
      return snap;
    });
    const auto parsed = json::parse(read_file(path));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(
        parsed->find("progress")->find("eta_seconds")->as_number(), -1);
    EXPECT_DOUBLE_EQ(
        parsed->find("progress")->find("rate_per_second")->as_number(), 0);
  }
  fs::remove(path);
}

TEST(StatusSamplerTest, StopIsIdempotentAndDestructorSafe) {
  const std::string path = temp_path("wormsim_status_stop_test.json");
  fs::remove(path);
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
  const std::string path = temp_path("wormsim_status_clamp_test.json");
  fs::remove(path);
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
  const std::string path = temp_path("wormsim_status_race_test.json");
  fs::remove(path);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load()) {
      const std::string text = read_file(path);
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
