// The state key is a function of the state alone: a simulator stepped
// through an arbitrary grant history, copied, or grown by add_message
// serializes exactly the same key bytes as a fresh simulator replaying
// that history. The StateKeyWriter suite pins that; StateKey pins the
// bytes themselves against the layout documented at
// WormholeSimulator::state_key.
//
// The key must also stay exact: it stores only the per-message segments,
// so channel ownership and occupancy have to be a function of them. The
// KeyDeterminesOccupancy suite binds every key met on seeded random walks
// to the full per-channel state and fails if one key ever meets two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "routing/adaptive.hpp"
#include "routing/dor.hpp"
#include "routing/routing.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace wormsim::sim {
namespace {

/// Deterministic driver: grant every request its first free candidate,
/// first-come-first-served within the cycle. Exercises injection, header
/// advance, data shifts, delivery, and consumption.
std::vector<std::pair<ChannelId, MessageId>> greedy_grants(
    const WormholeSimulator& sim) {
  std::vector<std::pair<ChannelId, MessageId>> grants;
  std::vector<std::uint8_t> taken(sim.net().channel_count(), 0);
  for (const MessageRequests& req : sim.peek_requests()) {
    for (const ChannelId c : req.channels) {
      if (taken[c.index()]) continue;
      taken[c.index()] = 1;
      grants.emplace_back(c, req.message);
      break;
    }
  }
  return grants;
}

/// Replays `history` (per-cycle grant lists, with message additions at the
/// recorded cycles) on a fresh simulator and returns its key — the
/// reference every stepped, copied or grown simulator must match.
std::string replay_key(const routing::RoutingAlgorithm& alg, SimConfig config,
                       const std::vector<MessageSpec>& initial,
                       const std::vector<std::pair<std::size_t, MessageSpec>>&
                           late_messages,
                       std::span<const std::vector<
                           std::pair<ChannelId, MessageId>>> history) {
  WormholeSimulator fresh(alg, config);
  for (const MessageSpec& spec : initial) fresh.add_message(spec);
  for (std::size_t cycle = 0; cycle < history.size(); ++cycle) {
    for (const auto& [at, spec] : late_messages)
      if (at == cycle) fresh.add_message(spec);
    fresh.step_with_grants(history[cycle]);
  }
  return fresh.state_key();
}

TEST(StateKeyWriter, SteppedKeyMatchesFreshReplayEveryCycle) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator sim(family.algorithm(), config);
  for (const MessageSpec& spec : specs) sim.add_message(spec);

  std::vector<std::vector<std::pair<ChannelId, MessageId>>> history;
  for (int cycle = 0; cycle < 40 && !sim.all_consumed(); ++cycle) {
    // Serialize BEFORE stepping too, so every cycle's key is checked, not
    // just the last, and serializing is seen not to disturb the stepping.
    const std::string stepped = sim.state_key();
    const std::string fresh = replay_key(family.algorithm(), config, specs,
                                         {}, history);
    ASSERT_EQ(stepped, fresh) << "cycle " << cycle;

    history.push_back(greedy_grants(sim));
    sim.step_with_grants(history.back());
  }
  EXPECT_EQ(sim.state_key(),
            replay_key(family.algorithm(), config, specs, {}, history));
}

TEST(StateKeyWriter, IdleCyclesLeaveKeyUnchanged) {
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;
  WormholeSimulator sim(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    sim.add_message(spec);

  const std::string before = sim.state_key();
  sim.step_with_grants({});  // nobody granted: pending messages stay put
  EXPECT_EQ(sim.state_key(), before);
}

TEST(StateKeyWriter, MessageAddedMidRunMatchesFreshReplay) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator sim(family.algorithm(), config);
  std::vector<MessageSpec> initial(specs.begin(), specs.begin() + 1);
  for (const MessageSpec& spec : initial) sim.add_message(spec);

  std::vector<std::vector<std::pair<ChannelId, MessageId>>> history;
  std::vector<std::pair<std::size_t, MessageSpec>> late;
  for (int cycle = 0; cycle < 12; ++cycle) {
    (void)sim.state_key();  // serialized before the key grows
    if (cycle == 3 && specs.size() > 1) {
      sim.add_message(specs[1]);  // grows the key by one segment
      late.emplace_back(static_cast<std::size_t>(cycle), specs[1]);
    }
    history.push_back(greedy_grants(sim));
    sim.step_with_grants(history.back());
    ASSERT_EQ(sim.state_key(), replay_key(family.algorithm(), config,
                                          initial, late, history))
        << "cycle " << cycle;
  }
}

TEST(StateKeyWriter, TrustedStepMatchesCheckedStepEveryCycle) {
  // The deadlock search's forward exploration uses step_with_grants_trusted,
  // which skips the request re-derivation and arbitration bookkeeping of the
  // checked step. Under the search's scenario contract (release_time == 0)
  // the two steps must be observationally identical: same progress flag,
  // same key bytes, same requests, every cycle.
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator checked(family.algorithm(), config);
  WormholeSimulator trusted(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs()) {
    checked.add_message(spec);
    trusted.add_message(spec);
  }

  for (int cycle = 0; cycle < 40 && !checked.all_consumed(); ++cycle) {
    const auto grants = greedy_grants(checked);
    const bool a = checked.step_with_grants(grants);
    const bool b = trusted.step_with_grants_trusted(grants);
    ASSERT_EQ(a, b) << "progress diverged at cycle " << cycle;
    ASSERT_EQ(checked.state_key(), trusted.state_key())
        << "state diverged at cycle " << cycle;
    // Next-cycle requests drive the search's branching; they must agree.
    const auto ra = checked.peek_requests();
    const auto rb = trusted.peek_requests();
    ASSERT_EQ(ra.size(), rb.size()) << "cycle " << cycle;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].message, rb[i].message) << "cycle " << cycle;
      EXPECT_EQ(ra[i].moving, rb[i].moving) << "cycle " << cycle;
      EXPECT_EQ(ra[i].channels, rb[i].channels) << "cycle " << cycle;
    }
  }
  EXPECT_TRUE(checked.all_consumed());
  EXPECT_TRUE(trusted.all_consumed());
}

TEST(StateKeyWriter, CopiedSimulatorKeysStayIndependent) {
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;
  WormholeSimulator parent(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    parent.add_message(spec);
  (void)parent.state_key();  // key, then fork (the search's pattern)

  WormholeSimulator child = parent;
  child.step_with_grants(greedy_grants(child));

  // Child stepped only its own copy; parent still serializes its old state.
  WormholeSimulator pristine(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    pristine.add_message(spec);
  EXPECT_EQ(parent.state_key(), pristine.state_key());
  pristine.step_with_grants(greedy_grants(pristine));
  EXPECT_EQ(child.state_key(), pristine.state_key());
}

/// (owner, buffered flits) of every channel: the per-channel section the
/// key does not store.
using Occupancy = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Occupancy occupancy_of(const WormholeSimulator& sim) {
  Occupancy occ(sim.net().channel_count());
  for (std::size_t c = 0; c < occ.size(); ++c)
    occ[c] = {sim.channel_owner(ChannelId{c}).value(),
              sim.channel_count(ChannelId{c})};
  return occ;
}

/// A random legal grant list: each request, in order, is skipped with
/// probability 1/4 and otherwise takes a random candidate still untaken.
/// Skipping moving headers too reaches states a synchronous adversary
/// cannot, which only widens the check.
std::vector<std::pair<ChannelId, MessageId>> random_grants(
    const WormholeSimulator& sim, util::Rng& rng) {
  std::vector<std::pair<ChannelId, MessageId>> grants;
  std::vector<std::uint8_t> taken(sim.net().channel_count(), 0);
  for (const MessageRequests& req : sim.peek_requests()) {
    if (rng.below(4) == 0) continue;
    std::vector<ChannelId> free;
    for (const ChannelId c : req.channels)
      if (!taken[c.index()]) free.push_back(c);
    if (free.empty()) continue;
    const ChannelId c = free[rng.below(free.size())];
    taken[c.index()] = 1;
    grants.emplace_back(c, req.message);
  }
  return grants;
}

/// Runs `walks` seeded random walks of at most `cycles` cycles from the
/// initial state of `make(config)`, reading every key from the stepped
/// simulator, and binds each key to the occupancy of
/// the state it came from. Fails on a key bound to two occupancies. Walks
/// run at buffer depths 1 and 2: at depth 1 every held channel holds one
/// flit, so only depth 2 lets flit counts vary along a worm. Returns how
/// many states repeated an earlier key, so callers can check that the
/// binding was exercised at all.
std::size_t expect_key_determines_occupancy(
    const std::function<WormholeSimulator(const SimConfig&)>& make,
    std::uint64_t seed, int walks, int cycles, const std::string& label) {
  std::size_t repeats = 0;
  for (const std::uint32_t depth : {1u, 2u}) {
    SimConfig config;
    config.buffer_depth = depth;
    config.check_invariants = true;
    std::unordered_map<std::string, Occupancy> bound;
    util::Rng rng(seed);
    for (int walk = 0; walk < walks; ++walk) {
      WormholeSimulator sim = make(config);
      for (int cycle = 0;; ++cycle) {
        Occupancy occ = occupancy_of(sim);
        const auto [it, inserted] = bound.try_emplace(sim.state_key(), occ);
        if (!inserted) {
          ++repeats;
          if (it->second != occ) {
            ADD_FAILURE() << label << ": depth " << depth << " walk " << walk
                          << " cycle " << cycle
                          << " reached a key already bound to another "
                             "channel occupancy";
            return repeats;
          }
        }
        if (cycle == cycles || sim.all_consumed()) break;
        sim.step_with_grants(random_grants(sim, rng));
      }
    }
  }
  return repeats;
}

TEST(KeyDeterminesOccupancy, Figure1TwiceOver) {
  const core::CyclicFamily family(core::fig1_spec());
  auto specs = family.message_specs();
  const auto base = specs;
  specs.insert(specs.end(), base.begin(), base.end());
  const auto make = [&](const SimConfig& config) {
    WormholeSimulator sim(family.algorithm(), config);
    for (const MessageSpec& spec : specs) sim.add_message(spec);
    return sim;
  };
  EXPECT_GT(expect_key_determines_occupancy(make, 1, 300, 60, "fig1x2"), 0u);
}

TEST(KeyDeterminesOccupancy, Figure3a) {
  const core::CyclicFamily family(core::fig3_spec(core::Fig3Variant::kA));
  const auto make = [&](const SimConfig& config) {
    WormholeSimulator sim(family.algorithm(), config);
    for (const MessageSpec& spec : family.message_specs())
      sim.add_message(spec);
    return sim;
  };
  EXPECT_GT(expect_key_determines_occupancy(make, 2, 300, 60, "fig3a"), 0u);
}

TEST(KeyDeterminesOccupancy, MinimalAdaptiveMesh) {
  // Adaptive headers pick among minimal directions, so the channel ids in
  // one message's segment depend on the walk, not just on its route.
  const topo::Grid grid = topo::make_mesh({4, 4});
  const routing::MinimalAdaptiveMesh alg(grid);
  const auto at = [&](int x, int y) {
    const int c[2] = {x, y};
    return grid.node_at(c);
  };
  const std::vector<MessageSpec> specs = {
      {at(0, 0), at(3, 3), 3, 0}, {at(3, 0), at(0, 3), 2, 0},
      {at(0, 3), at(3, 0), 4, 0}, {at(3, 3), at(0, 0), 2, 0},
      {at(1, 0), at(2, 3), 5, 0}};
  const auto make = [&](const SimConfig& config) {
    WormholeSimulator sim(alg, config);
    for (const MessageSpec& spec : specs) sim.add_message(spec);
    return sim;
  };
  EXPECT_GT(expect_key_determines_occupancy(make, 3, 300, 60, "adaptive"),
            0u);
}

TEST(KeyDeterminesOccupancy, PinnedCampaignRandomAlgorithmSample) {
  // Pinned (seed, knobs): the same random-algorithm scenarios forever, on
  // rings, meshes, tori, hypercubes and complete graphs with chords and
  // lanes. Messages are a seeded probe of routable pairs.
  campaign::GeneratorKnobs knobs;
  knobs.family_fraction = 0;
  const campaign::ScenarioGenerator generator(20261017, knobs);
  std::size_t checked = 0;
  std::size_t repeats = 0;
  for (std::uint64_t index = 0; index < 80; ++index) {
    const campaign::Scenario scenario = generator.generate(index);
    if (scenario.kind != campaign::ScenarioKind::kRandomAlgorithm) continue;
    const campaign::MaterializedScenario live =
        campaign::materialize(scenario);
    const routing::RoutingAlgorithm& alg = live.algorithm();
    std::vector<MessageSpec> specs;
    util::Rng rng(scenario.seed);
    const std::size_t n = alg.net().node_count();
    for (int draw = 0; draw < 12 && specs.size() < 5; ++draw) {
      MessageSpec spec;
      spec.src = NodeId{rng.below(n)};
      spec.dst = NodeId{(spec.src.index() + 1 + rng.below(n - 1)) % n};
      if (!routing::trace_path(alg, spec.src, spec.dst)) continue;
      spec.length = static_cast<std::uint32_t>(rng.range(1, 6));
      specs.push_back(spec);
    }
    if (specs.empty()) continue;
    const auto make = [&](const SimConfig& config) {
      WormholeSimulator sim(alg, config);
      for (const MessageSpec& spec : specs) sim.add_message(spec);
      return sim;
    };
    repeats += expect_key_determines_occupancy(
        make, scenario.seed, 20, 40, "campaign index " + std::to_string(index));
    ++checked;
  }
  EXPECT_GE(checked, 60u);
  EXPECT_GT(repeats, 0u);
}

TEST(StateKeyWriter, VarintWidthChangesMatchFreshReplay) {
  // A 130-flit worm on a 254-channel mesh: its flit counters cross 127 and
  // its route uses channel ids past 127, so its segment changes length
  // mid-run without a path change, and the segments after it move to new
  // offsets.
  const topo::Grid grid = topo::make_mesh({8, 9});
  ASSERT_GE(grid.net().channel_count(), 130u);
  const routing::DimensionOrderMesh alg(grid);
  const auto at = [&](int x, int y) {
    const int c[2] = {x, y};
    return grid.node_at(c);
  };
  const std::vector<MessageSpec> specs = {{at(0, 0), at(7, 8), 130, 0},
                                          {at(7, 0), at(0, 8), 3, 0},
                                          {at(0, 8), at(7, 0), 2, 0}};
  const auto route = routing::trace_path(alg, specs[0].src, specs[0].dst);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(std::any_of(route->begin(), route->end(),
                          [](ChannelId c) { return c.index() >= 128; }));
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator sim(alg, config);
  for (const MessageSpec& spec : specs) sim.add_message(spec);
  std::vector<std::vector<std::pair<ChannelId, MessageId>>> history;
  for (int cycle = 0; cycle < 400 && !sim.all_consumed(); ++cycle) {
    ASSERT_EQ(sim.state_key(), replay_key(alg, config, specs, {}, history))
        << "cycle " << cycle;
    history.push_back(greedy_grants(sim));
    sim.step_with_grants(history.back());
  }
  EXPECT_TRUE(sim.all_consumed());
  EXPECT_EQ(sim.state_key(), replay_key(alg, config, specs, {}, history));
}

/// Grants message `m` the first candidate of its request and steps once.
ChannelId inject(WormholeSimulator& sim, MessageId m) {
  for (const MessageRequests& req : sim.peek_requests()) {
    if (req.message != m) continue;
    const std::pair<ChannelId, MessageId> grant{req.channels.front(), m};
    sim.step_with_grants({&grant, 1});
    return grant.first;
  }
  ADD_FAILURE() << "message " << m.value() << " raised no request";
  return ChannelId::invalid();
}

TEST(StateKey, BytesFollowTheDocumentedLayout) {
  // One segment per message: the status byte, then varints of
  // flits_injected, flits_consumed, released and the path length, then a
  // (channel id, flits exited) varint pair per held channel.
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;
  WormholeSimulator fig1(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    fig1.add_message(spec);
  ASSERT_EQ(fig1.message_count(), 4u);
  const std::string pending(5, '\0');  // kPending and four zero varints
  EXPECT_EQ(fig1.state_key(), pending + pending + pending + pending);

  const ChannelId c = inject(fig1, MessageId{0});
  std::string moving = {static_cast<char>(MessageStatus::kMoving), 1, 0, 0, 1};
  util::append_varint(moving, c.value());
  util::append_varint(moving, 0);
  EXPECT_EQ(fig1.state_key(), moving + pending + pending + pending);

  // A channel id past 127 takes two varint bytes: (7,0) -> (0,8) leaves
  // on channel 205 of the 254-channel 8x9 mesh.
  const topo::Grid grid = topo::make_mesh({8, 9});
  const routing::DimensionOrderMesh alg(grid);
  const int from[2] = {7, 0};
  const int to[2] = {0, 8};
  WormholeSimulator mesh(alg, config);
  mesh.add_message({grid.node_at(from), grid.node_at(to), 3, 0});
  const ChannelId wide = inject(mesh, MessageId{0});
  ASSERT_GE(wide.value(), 128u);
  std::string segment = {static_cast<char>(MessageStatus::kMoving), 1, 0, 0,
                         1};
  util::append_varint(segment, wide.value());
  util::append_varint(segment, 0);
  EXPECT_EQ(segment.size(), 8u);  // five one-byte fields, 2 + 1 for the pair
  EXPECT_EQ(mesh.state_key(), segment);
}

}  // namespace
}  // namespace wormsim::sim
