#include "sim/workloads.hpp"

#include <gtest/gtest.h>

#include <string>

#include "routing/dor.hpp"
#include "sim/simulator.hpp"

namespace wormsim::sim {
namespace {

TEST(Workloads, DeterministicForSeed) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  WorkloadConfig config;
  config.horizon = 200;
  config.seed = 5;
  const auto a = generate_workload(grid, config);
  const auto b = generate_workload(grid, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].release_time, b[i].release_time);
  }
}

TEST(Workloads, RateScalesMessageCount) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  WorkloadConfig low, high;
  low.injection_rate = 0.01;
  high.injection_rate = 0.05;
  low.horizon = high.horizon = 2'000;
  const auto few = generate_workload(grid, low);
  const auto many = generate_workload(grid, high);
  EXPECT_GT(many.size(), few.size() * 3);
}

TEST(Workloads, ReleaseTimesSortedAndWithinHorizon) {
  const topo::Grid grid = topo::make_mesh({3, 3});
  WorkloadConfig config;
  config.horizon = 500;
  const auto specs = generate_workload(grid, config);
  Cycle last = 0;
  for (const auto& s : specs) {
    EXPECT_GE(s.release_time, last);
    EXPECT_LT(s.release_time, config.horizon);
    last = s.release_time;
    EXPECT_NE(s.src, s.dst);
  }
}

TEST(Workloads, TransposeSendsToSwappedCoords) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  WorkloadConfig config;
  config.pattern = TrafficPattern::kTranspose;
  config.horizon = 300;
  const auto specs = generate_workload(grid, config);
  ASSERT_FALSE(specs.empty());
  for (const auto& s : specs) {
    const auto cs = grid.coords_of(s.src);
    const auto cd = grid.coords_of(s.dst);
    EXPECT_EQ(cs[0], cd[1]);
    EXPECT_EQ(cs[1], cd[0]);
  }
}

TEST(Workloads, BitReversalFixedDestinations) {
  const topo::Grid grid = topo::make_mesh({4, 4});  // 16 nodes = 2^4
  WorkloadConfig config;
  config.pattern = TrafficPattern::kBitReversal;
  config.horizon = 300;
  const auto specs = generate_workload(grid, config);
  ASSERT_FALSE(specs.empty());
  for (const auto& s : specs) {
    std::size_t v = s.src.index(), r = 0;
    for (int b = 0; b < 4; ++b) {
      r = (r << 1) | (v & 1);
      v >>= 1;
    }
    EXPECT_EQ(s.dst.index(), r);
  }
}

TEST(Workloads, HotspotSkewsTowardNodeZero) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  WorkloadConfig config;
  config.pattern = TrafficPattern::kHotspot;
  config.hotspot_fraction = 0.5;
  config.injection_rate = 0.05;
  config.horizon = 2'000;
  const auto specs = generate_workload(grid, config);
  std::size_t to_zero = 0;
  for (const auto& s : specs)
    if (s.dst.index() == 0) ++to_zero;
  EXPECT_GT(static_cast<double>(to_zero) / static_cast<double>(specs.size()),
            0.3);
}

TEST(Workloads, EndToEndMeshRunDeliversEverything) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  const routing::DimensionOrderMesh dor(grid);
  WorkloadConfig config;
  config.injection_rate = 0.005;
  config.horizon = 500;
  config.message_length = 4;
  const auto specs = generate_workload(grid, config);
  ASSERT_FALSE(specs.empty());

  FifoArbitration policy;
  SimConfig sim_config;
  sim_config.max_cycles = 50'000;
  WormholeSimulator sim(dor, sim_config, policy);
  for (const auto& s : specs) sim.add_message(s);
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);

  const auto stats = summarize_workload(sim, result.cycles);
  EXPECT_EQ(stats.offered, specs.size());
  EXPECT_EQ(stats.delivered, specs.size());
  EXPECT_GT(stats.mean_latency, 0.0);
  EXPECT_GE(stats.max_latency, stats.mean_latency);
  EXPECT_GT(stats.mean_channel_utilization, 0.0);
  EXPECT_GE(stats.max_channel_utilization, stats.mean_channel_utilization);
  EXPECT_LE(stats.max_channel_utilization, 1.0);
  EXPECT_TRUE(stats.hottest_channel.valid());
}

TEST(Workloads, HotspotConcentratesUtilization) {
  // Hotspot traffic must make some channel near node 0 far hotter than the
  // network average.
  const topo::Grid grid = topo::make_mesh({4, 4});
  const routing::DimensionOrderMesh dor(grid);
  WorkloadConfig config;
  config.pattern = TrafficPattern::kHotspot;
  config.hotspot_fraction = 0.6;
  config.injection_rate = 0.01;
  config.horizon = 2'000;
  const auto specs = generate_workload(grid, config);

  FifoArbitration policy;
  SimConfig sim_config;
  sim_config.max_cycles = 200'000;
  WormholeSimulator sim(dor, sim_config, policy);
  for (const auto& s : specs) sim.add_message(s);
  const auto result = sim.run();
  ASSERT_EQ(result.outcome, RunOutcome::kAllConsumed);
  const auto stats = summarize_workload(sim, result.cycles);
  EXPECT_GT(stats.max_channel_utilization,
            3 * stats.mean_channel_utilization);
  // The hottest channel delivers into the hotspot node.
  EXPECT_EQ(grid.net().channel(stats.hottest_channel).dst.index(), 0u);
}

std::uint64_t workload_hash(const std::vector<MessageSpec>& specs) {
  std::string bytes;
  for (const auto& s : specs)
    bytes += std::to_string(s.src.value()) + "," +
             std::to_string(s.dst.value()) + "," + std::to_string(s.length) +
             "," + std::to_string(s.release_time) + ";";
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Workloads, GoldenByteStability) {
  // Byte-level golden for the generator: recorded experiment inputs are
  // only reproducible if a (topology, config, seed) triple regenerates the
  // identical message list on every machine and after every refactor.
  const topo::Grid grid = topo::make_mesh({4, 4});
  WorkloadConfig config;
  config.horizon = 100;
  config.seed = 42;
  EXPECT_EQ(workload_hash(generate_workload(grid, config)),
            0xa45707797e78f6a1ull);

  config.pattern = TrafficPattern::kTranspose;
  EXPECT_EQ(workload_hash(generate_workload(grid, config)),
            0xfe1f4b4308894495ull);
}

TEST(WorkloadsDeath, TransposeRejectsNonSquareGridUpFront) {
  const topo::Grid grid = topo::make_mesh({4, 2});
  WorkloadConfig config;
  config.pattern = TrafficPattern::kTranspose;
  // injection_rate 0: no trial ever fires, so only an up-front precondition
  // can catch the misconfiguration.
  config.injection_rate = 0;
  config.horizon = 10;
  EXPECT_DEATH((void)generate_workload(grid, config), "square 2-D grid");
}

TEST(WorkloadsDeath, TransposeRejectsNonTwoDimensionalGrid) {
  const topo::Grid grid = topo::make_mesh({2, 2, 2});
  WorkloadConfig config;
  config.pattern = TrafficPattern::kTranspose;
  config.injection_rate = 0;
  config.horizon = 10;
  EXPECT_DEATH((void)generate_workload(grid, config), "square 2-D grid");
}

TEST(WorkloadsDeath, BitReversalRejectsNonPowerOfTwoNodeCountUpFront) {
  const topo::Grid grid = topo::make_mesh({3, 3});
  WorkloadConfig config;
  config.pattern = TrafficPattern::kBitReversal;
  config.injection_rate = 0;
  config.horizon = 10;
  EXPECT_DEATH((void)generate_workload(grid, config), "power-of-2");
}

TEST(Workloads, BitReversalAcceptsPowerOfTwoGrid) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  WorkloadConfig config;
  config.pattern = TrafficPattern::kBitReversal;
  config.horizon = 200;
  const auto specs = generate_workload(grid, config);
  ASSERT_FALSE(specs.empty());
  for (const auto& s : specs) {
    // dst is the 4-bit reversal of src (16 nodes).
    std::size_t v = s.src.index(), r = 0;
    for (int b = 0; b < 4; ++b) {
      r = (r << 1) | (v & 1);
      v >>= 1;
    }
    EXPECT_EQ(s.dst.index(), r);
  }
}

TEST(Workloads, BusyCyclesMatchWormLifetime) {
  // A single message's channel busy-cycles are bounded by its residency:
  // each channel is busy from acquisition until the tail leaves.
  const topo::Grid grid = topo::make_mesh({4, 2});
  const routing::DimensionOrderMesh dor(grid);
  FifoArbitration policy;
  WormholeSimulator sim(dor, SimConfig{}, policy);
  const int a[2] = {0, 0}, b[2] = {3, 0};
  sim.add_message({grid.node_at(a), grid.node_at(b), 4, 0});
  const auto result = sim.run();
  ASSERT_EQ(result.outcome, RunOutcome::kAllConsumed);
  for (const ChannelId c : grid.net().channel_ids()) {
    // With a 4-flit worm streaming at 1 flit/cycle, no channel is busy for
    // more than length + a small pipeline margin.
    EXPECT_LE(sim.channel_busy_cycles(c), 6u);
  }
}

}  // namespace
}  // namespace wormsim::sim
