// Differential parity suite: the event-driven run() vs a step() loop.
//
// run()'s contract (DESIGN.md §13) is cycle-exactness: it produces the
// same typed trace-event stream byte for byte, the same final state key,
// the same RunResult, the same per-message stats and the same per-channel
// busy counters as the reference, a loop of step() calls that stops when
// every message is consumed, at the first cycle with no progress, or at
// max_cycles. Every scenario here runs three ways —
//   stepped+trace the reference,
//   run+trace     pins the trace bytes (blocked headers stay scheduled so
//                 per-cycle blocked events match),
//   run+silent    exercises the dormancy machinery the traced run cannot
//                 (parked headers, channel-wait wake-ups, clock jumps) and
//                 must still land on the identical final state —
// across the paper's figures (Fig1, Fig2, Fig3 a–f, Section-6
// generalizations), staggered release times, both arbitration
// policies, a 200-scenario pinned sample of the campaign generator,
// adaptive meshes and a fat-tree driven past saturation, where a channel
// release wakes only the parked headers that can still win it, and sparse
// traffic on meshes of up to 4,096 nodes, where run() jumps idle spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "obs/trace.hpp"
#include "routing/adaptive.hpp"
#include "routing/datacenter.hpp"
#include "routing/dor.hpp"
#include "routing/routing.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"
#include "topo/builders.hpp"
#include "topo/datacenter.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {
namespace {

struct RunArtifacts {
  RunResult result;
  std::string trace_jsonl;  ///< serialized typed event stream ("" untraced)
  std::string state_key;
  std::uint64_t flits_moved = 0;
  std::vector<std::uint64_t> busy;
  std::vector<MessageStats> stats;
};

/// The reference run: step() until every message is consumed, a cycle
/// makes no progress (a deadlock, its wait-for cycle read off the
/// occupancy), or the cycle limit.
RunResult run_stepped(WormholeSimulator& sim) {
  RunResult result;
  while (sim.now() < sim.max_cycles()) {
    const bool progress = sim.step();
    if (sim.all_consumed()) {
      result.outcome = RunOutcome::kAllConsumed;
      result.cycles = sim.now();
      return result;
    }
    if (!progress) {
      result.outcome = RunOutcome::kDeadlock;
      result.cycles = sim.now();
      const auto occ = sim.occupancy();
      result.deadlock_cycle = find_wait_cycle(
          occ, [&sim](ChannelId c) { return sim.channel_owner(c); });
      return result;
    }
  }
  result.outcome = RunOutcome::kHorizon;
  result.cycles = sim.now();
  return result;
}

/// `Alg` is a routing::RoutingAlgorithm or a routing::AdaptiveRouting.
template <typename Alg>
RunArtifacts run_one(const Alg& alg, const std::vector<MessageSpec>& specs,
                     const ArbitrationPolicy& policy, const SimConfig& config,
                     bool stepped, bool trace) {
  WormholeSimulator sim(alg, config, policy);
  for (const MessageSpec& spec : specs) sim.add_message(spec);
  obs::TraceBuffer buffer;
  if (trace) sim.set_trace_sink(&buffer);

  RunArtifacts artifacts;
  artifacts.result = stepped ? run_stepped(sim) : sim.run();
  if (trace) {
    std::ostringstream out;
    obs::write_jsonl(out, buffer.events(), &alg.net());
    artifacts.trace_jsonl = out.str();
  }
  artifacts.state_key = sim.state_key();
  artifacts.flits_moved = sim.flits_moved();
  for (std::size_t c = 0; c < alg.net().channel_count(); ++c)
    artifacts.busy.push_back(sim.channel_busy_cycles(ChannelId{c}));
  for (std::size_t m = 0; m < specs.size(); ++m)
    artifacts.stats.push_back(sim.stats(MessageId{m}));
  return artifacts;
}

void expect_equal(const RunArtifacts& stepped, const RunArtifacts& run,
                  const std::string& label, bool compare_trace) {
  EXPECT_EQ(stepped.result.outcome, run.result.outcome) << label;
  EXPECT_EQ(stepped.result.cycles, run.result.cycles) << label;
  EXPECT_EQ(stepped.result.deadlock_cycle, run.result.deadlock_cycle)
      << label;
  if (compare_trace) {
    EXPECT_EQ(stepped.trace_jsonl, run.trace_jsonl)
        << label << ": trace streams must be byte-identical";
  }
  EXPECT_EQ(stepped.state_key, run.state_key) << label;
  EXPECT_EQ(stepped.flits_moved, run.flits_moved) << label;
  EXPECT_EQ(stepped.busy, run.busy) << label;
  ASSERT_EQ(stepped.stats.size(), run.stats.size()) << label;
  for (std::size_t m = 0; m < stepped.stats.size(); ++m) {
    EXPECT_EQ(stepped.stats[m].status, run.stats[m].status) << label;
    EXPECT_EQ(stepped.stats[m].inject_cycle, run.stats[m].inject_cycle)
        << label << " message " << m;
    EXPECT_EQ(stepped.stats[m].deliver_cycle, run.stats[m].deliver_cycle)
        << label << " message " << m;
    EXPECT_EQ(stepped.stats[m].consume_cycle, run.stats[m].consume_cycle)
        << label << " message " << m;
    EXPECT_EQ(stepped.stats[m].hops, run.stats[m].hops)
        << label << " message " << m;
  }
}

/// The three-way comparison every scenario goes through.
template <typename Alg>
void expect_parity(const Alg& alg, const std::vector<MessageSpec>& specs,
                   const ArbitrationPolicy& policy, const SimConfig& config,
                   const std::string& label) {
  const RunArtifacts stepped = run_one(alg, specs, policy, config, true, true);
  const RunArtifacts traced = run_one(alg, specs, policy, config, false, true);
  expect_equal(stepped, traced, label + " [traced]", true);
  const RunArtifacts silent =
      run_one(alg, specs, policy, config, false, false);
  expect_equal(stepped, silent, label + " [silent]", false);
}

SimConfig small_config() {
  SimConfig config;
  config.max_cycles = 20'000;
  config.check_invariants = true;
  return config;
}

/// Seeded timing decoration: staggered releases turn a bare spec multiset
/// into a scenario that exercises run()'s timer heap
/// (sleep-until-release).
std::vector<MessageSpec> decorate(std::vector<MessageSpec> specs,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  for (MessageSpec& spec : specs)
    if (rng.below(2) == 0)
      spec.release_time = static_cast<Cycle>(rng.below(24));
  return specs;
}

TEST(EventCoreParity, Fig1AndFig2UnderBothPolicies) {
  for (const bool hub : {false, true}) {
    for (const auto spec_fn : {&core::fig1_spec, &core::fig2_spec}) {
      const core::CyclicFamily family((*spec_fn)(hub));
      const std::size_t count = family.messages().size();
      FifoArbitration fifo;
      std::vector<std::uint32_t> ranking(count);
      for (std::size_t i = 0; i < count; ++i)
        ranking[i] = static_cast<std::uint32_t>(count - 1 - i);
      PriorityArbitration priority(ranking);
      for (const std::uint32_t extra : {0u, 2u}) {
        const auto specs = family.message_specs(extra);
        const std::string label = family.spec().name + " hub=" +
                                  (hub ? "1" : "0") +
                                  " extra=" + std::to_string(extra);
        expect_parity(family.algorithm(), specs, fifo, small_config(),
                      label + " fifo");
        expect_parity(family.algorithm(), specs, priority, small_config(),
                      label + " priority");
      }
    }
  }
}

TEST(EventCoreParity, Fig3AllVariants) {
  using core::Fig3Variant;
  FifoArbitration fifo;
  for (const Fig3Variant variant :
       {Fig3Variant::kA, Fig3Variant::kB, Fig3Variant::kC, Fig3Variant::kD,
        Fig3Variant::kE, Fig3Variant::kF}) {
    const core::CyclicFamily family(core::fig3_spec(variant));
    expect_parity(family.algorithm(), family.message_specs(), fifo,
                  small_config(),
                  std::string("fig3-") + core::fig3_name(variant));
  }
}

TEST(EventCoreParity, GeneralizedInstancesWithTimingDecoration) {
  FifoArbitration fifo;
  for (const int k : {1, 2, 3}) {
    const core::CyclicFamily family(core::generalized_spec(k));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto specs = decorate(family.message_specs(1), seed * 977);
      expect_parity(family.algorithm(), specs, fifo, small_config(),
                    "generalized k=" + std::to_string(k) +
                        " seed=" + std::to_string(seed));
    }
  }
}

TEST(EventCoreParity, HorizonCutoffMatches) {
  const core::CyclicFamily family(core::fig1_spec());
  FifoArbitration fifo;
  for (const Cycle horizon : {1u, 3u, 7u, 12u}) {
    SimConfig config = small_config();
    config.max_cycles = horizon;
    expect_parity(family.algorithm(), family.message_specs(4), fifo, config,
                  "horizon=" + std::to_string(horizon));
  }
}

TEST(EventCoreParity, DeeperBuffersPipelineIdentically) {
  const core::CyclicFamily family(core::fig2_spec());
  FifoArbitration fifo;
  for (const std::uint32_t depth : {2u, 4u}) {
    SimConfig config = small_config();
    config.buffer_depth = depth;
    expect_parity(family.algorithm(), family.message_specs(6), fifo, config,
                  "depth=" + std::to_string(depth));
  }
}

TEST(EventCoreParity, PinnedCampaignSampleOf200Scenarios) {
  // Pinned (seed, knobs) => the same 200 scenarios forever; the campaign
  // generator covers family rings plus random oblivious algorithms on
  // rings/meshes/tori/hypercubes/complete graphs. Messages are a seeded
  // probe of routable pairs with timing decoration. Any parity break found
  // here reproduces from its scenario index alone.
  campaign::ScenarioGenerator generator(20260809);
  FifoArbitration fifo;
  std::size_t simulated = 0;
  for (std::uint64_t index = 0; index < 200; ++index) {
    const campaign::Scenario scenario = generator.generate(index);
    if (scenario.kind == campaign::ScenarioKind::kFamily &&
        !campaign::family_spec_buildable(scenario.family))
      continue;
    const campaign::MaterializedScenario live =
        campaign::materialize(scenario);
    const routing::RoutingAlgorithm& alg = live.algorithm();

    std::vector<MessageSpec> specs;
    if (live.family != nullptr) {
      specs = live.family->message_specs(1);
    } else {
      util::Rng rng(scenario.seed ^ 0xeb1c7a52d64f0983ull);
      const std::size_t n = alg.net().node_count();
      for (std::size_t draw = 0; draw < 8 && specs.size() < 6; ++draw) {
        MessageSpec spec;
        spec.src = NodeId{rng.below(n)};
        spec.dst = NodeId{rng.below(n)};
        if (spec.src == spec.dst) spec.dst = NodeId{(spec.src.index() + 1) % n};
        if (!routing::trace_path(alg, spec.src, spec.dst)) continue;
        spec.length = static_cast<std::uint32_t>(rng.range(1, 6));
        specs.push_back(spec);
      }
    }
    if (specs.empty()) continue;
    expect_parity(alg, decorate(specs, scenario.seed), fifo, small_config(),
                  "campaign index " + std::to_string(index));
    ++simulated;
  }
  // The generator occasionally emits unbuildable or unroutable corners;
  // the bulk of the pinned sample must actually exercise the comparison.
  EXPECT_GE(simulated, 150u);
}

/// Open-loop traffic released over 40 cycles. On the 16-terminal networks
/// below, loads of 0.2 and more are past saturation: most headers park.
WorkloadConfig saturating(TrafficPattern pattern, double load,
                          std::uint32_t length, std::uint64_t seed) {
  WorkloadConfig workload;
  workload.pattern = pattern;
  workload.injection_rate = load;
  workload.message_length = length;
  workload.horizon = 40;
  workload.seed = seed;
  return workload;
}

std::string point(const std::string& name, double load, std::uint32_t length,
                  std::uint64_t seed) {
  std::ostringstream out;
  out << name << " load=" << load << " length=" << length << " seed=" << seed;
  return out.str();
}

TEST(EventCoreParity, AdaptiveMeshesPastSaturation) {
  // An adaptive header parks in the wait heap of every candidate; a wake
  // from one heap must leave its entries in the others stale.
  const topo::Grid single = topo::make_mesh({4, 4});
  const topo::Grid dual = topo::make_mesh({4, 4}, 2);
  const routing::MinimalAdaptiveMesh minimal(single);
  const routing::WestFirstAdaptiveMesh west_first(single);
  const routing::DuatoFullyAdaptiveMesh duato(dual);
  const std::pair<const routing::AdaptiveRouting*, const topo::Grid*>
      meshes[] = {{&minimal, &single}, {&west_first, &single},
                  {&duato, &dual}};
  FifoArbitration fifo;
  for (const auto& [alg, grid] : meshes)
    for (const double load : {0.05, 0.1, 0.2, 0.3})
      for (const std::uint32_t length : {1u, 4u, 8u})
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
          expect_parity(*alg,
                        generate_workload(
                            *grid, saturating(TrafficPattern::kUniformRandom,
                                              load, length, seed)),
                        fifo, small_config(),
                        point(alg->name(), load, length, seed));
}

TEST(EventCoreParity, FatTreePastSaturation) {
  // Hotspot traffic queues many headers on the hot host's down-links.
  const topo::FatTree tree(4);
  const routing::FatTreeUpDown alg(tree);
  FifoArbitration fifo;
  for (const TrafficPattern pattern :
       {TrafficPattern::kUniformRandom, TrafficPattern::kHotspot})
    for (const double load : {0.2, 0.5})
      for (const std::uint32_t length : {1u, 8u})
        for (const std::uint32_t depth : {1u, 2u})
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SimConfig config = small_config();
            config.buffer_depth = depth;
            expect_parity(
                alg,
                generate_workload(tree.hosts(),
                                  saturating(pattern, load, length, seed)),
                fifo, config,
                point(pattern == TrafficPattern::kHotspot ? "hotspot"
                                                          : "uniform",
                      load, length, seed) +
                    " depth=" + std::to_string(depth));
          }
}

TEST(EventCoreParity, PriorityArbitrationWithTiedRanks) {
  // Three rank classes, so most contests fall to the message-id tie-break,
  // which the wait heaps must order exactly as pick() does.
  const topo::FatTree tree(4);
  const routing::FatTreeUpDown up_down(tree);
  const topo::Grid mesh = topo::make_mesh({4, 4});
  const routing::WestFirstAdaptiveMesh west_first(mesh);
  for (const double load : {0.2, 0.5})
    for (const std::uint32_t length : {1u, 4u})
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const WorkloadConfig workload = saturating(
            TrafficPattern::kUniformRandom, load, length, seed);
        const auto tree_specs = generate_workload(tree.hosts(), workload);
        const auto mesh_specs = generate_workload(mesh, workload);
        std::vector<std::uint32_t> ranking(
            std::max(tree_specs.size(), mesh_specs.size()));
        for (std::size_t i = 0; i < ranking.size(); ++i)
          ranking[i] = static_cast<std::uint32_t>(i % 3);
        const PriorityArbitration priority(ranking);
        expect_parity(up_down, tree_specs, priority, small_config(),
                      point("fattree priority", load, length, seed));
        expect_parity(west_first, mesh_specs, priority, small_config(),
                      point("west-first priority", load, length, seed));
      }
}

TEST(EventCoreParity, SparseDorMeshesOf64To4096Nodes) {
  // About 96 uniform messages spread over a 50,000-cycle horizon: long idle
  // spans between short bursts, which run() jumps over. Invariant checks
  // would cost O(channels) per stepped cycle here, so they stay off.
  const std::vector<int> shapes[] = {{16, 4}, {16, 16, 2}, {16, 16, 16}};
  FifoArbitration fifo;
  for (const std::vector<int>& dims : shapes) {
    const topo::Grid grid = topo::make_mesh(dims);
    const routing::DimensionOrderMesh dor(grid);
    WorkloadConfig workload;
    workload.horizon = 50'000;
    workload.injection_rate =
        96.0 / (static_cast<double>(grid.net().node_count()) *
                static_cast<double>(workload.horizon));
    workload.message_length = 8;
    workload.seed = 1;
    const std::vector<MessageSpec> specs = generate_workload(grid, workload);
    EXPECT_GT(specs.size(), 80u);
    SimConfig config;
    config.buffer_depth = 2;
    config.max_cycles = 100'000;
    expect_parity(dor, specs, fifo, config,
                  "mesh of " + std::to_string(grid.net().node_count()) +
                      " nodes");
  }
}

TEST(EventCoreStatsTest, SparseWorkloadSkipsIdleCyclesAndCounts) {
  // One late-released message on a big grid: run() must jump the
  // idle span instead of grinding it cycle by cycle.
  const topo::Grid grid = topo::make_mesh({16, 16});
  const routing::DimensionOrderMesh alg(grid);
  FifoArbitration fifo;
  SimConfig config;
  config.max_cycles = 100'000;
  WormholeSimulator sim(alg, config, fifo);
  MessageSpec spec;
  spec.src = NodeId{0};
  spec.dst = NodeId{255};
  spec.length = 4;
  spec.release_time = 50'000;
  sim.add_message(spec);

  const RunResult result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  const EventCoreStats& stats = sim.event_stats();
  EXPECT_GT(stats.cycles_skipped, 49'000u);
  EXPECT_LT(stats.cycles_executed, 100u);
  EXPECT_GE(stats.events_scheduled, stats.events_fired);
  EXPECT_GT(stats.queue_peak, 0u);
  EXPECT_GT(summarize_workload(sim, result.cycles).mean_channel_utilization,
            0.0);

  // The step() loop agrees on the outcome and timing, the long way around.
  WormholeSimulator reference(alg, config, fifo);
  reference.add_message(spec);
  const RunResult expected = run_stepped(reference);
  EXPECT_EQ(expected.outcome, result.outcome);
  EXPECT_EQ(expected.cycles, result.cycles);
  EXPECT_EQ(reference.event_stats().cycles_executed, 0u);
}

TEST(EventCoreStatsTest, QueuedHeadersCostEventsLinearInTheirNumber) {
  // N messages queued at one fat-tree host for another, all released at
  // cycle 0, park on the host's one up-link. Each release of it goes to one
  // header; waking every parked header instead costs O(N^2) events (62,500
  // and 245,000 for N = 200 and 400, against 3,397 and 6,797 when a
  // release wakes only the next winner).
  const topo::FatTree tree(4);
  const routing::FatTreeUpDown alg(tree);
  FifoArbitration fifo;
  std::uint64_t fired[2] = {0, 0};
  for (const std::size_t n : {200u, 400u}) {
    const std::vector<MessageSpec> specs(
        n, MessageSpec{tree.host(0), tree.host(15), 8, 0});
    SimConfig config;
    config.buffer_depth = 2;
    config.max_cycles = 100'000;
    Cycle cycles[2] = {0, 0};
    for (const bool stepped : {true, false}) {
      WormholeSimulator sim(alg, config, fifo);
      for (const MessageSpec& spec : specs) sim.add_message(spec);
      const RunResult result = stepped ? run_stepped(sim) : sim.run();
      EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed) << n;
      cycles[stepped ? 0 : 1] = result.cycles;
      if (!stepped) fired[n == 200 ? 0 : 1] = sim.event_stats().events_fired;
    }
    EXPECT_EQ(cycles[0], cycles[1]) << n;
  }
  EXPECT_LT(static_cast<double>(fired[1]) / static_cast<double>(fired[0]),
            2.5)
      << fired[0] << " events for 200 messages, " << fired[1] << " for 400";
}

}  // namespace
}  // namespace wormsim::sim
