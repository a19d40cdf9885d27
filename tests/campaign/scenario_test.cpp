// ScenarioGenerator determinism, JSON round-trips, and materialization.
//
// The byte-stability golden (Seed1First32ScenariosAreByteStable) pins the
// exact JSON the default generator emits for seed 1: campaign JSONL files
// are only reproducible across machines and refactors if these bytes never
// drift. If an intentional generator change trips it, rerun the recorded
// campaigns and update the constant in the same commit. Its sibling
// (Seed1First64TruthKeysAreByteStable) pins the truth keys that saved
// TruthStores are indexed by.
#include "campaign/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

namespace wormsim::campaign {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ScenarioGenerator, SameSeedSameStream) {
  const ScenarioGenerator a(42), b(42);
  for (std::uint64_t i = 0; i < 50; ++i)
    EXPECT_EQ(a.generate(i).to_json(), b.generate(i).to_json()) << i;
}

TEST(ScenarioGenerator, GenerateIsPurePerIndex) {
  // Index order must not matter: any shard can generate any index.
  const ScenarioGenerator gen(7);
  const std::string forward = gen.generate(3).to_json();
  (void)gen.generate(9);
  (void)gen.generate(0);
  EXPECT_EQ(gen.generate(3).to_json(), forward);
}

TEST(ScenarioGenerator, DifferentSeedsDiverge) {
  const ScenarioGenerator a(1), b(2);
  int different = 0;
  for (std::uint64_t i = 0; i < 20; ++i)
    if (a.generate(i).to_json() != b.generate(i).to_json()) ++different;
  EXPECT_GT(different, 10);
}

TEST(ScenarioGenerator, DeriveSeedDecorrelatesNeighbors) {
  const std::uint64_t a = ScenarioGenerator::derive_seed(1, 0);
  const std::uint64_t b = ScenarioGenerator::derive_seed(1, 1);
  const std::uint64_t c = ScenarioGenerator::derive_seed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  // Better than "not equal": neighboring seeds should differ in many bits.
  EXPECT_GT(std::popcount(a ^ b), 16);
}

TEST(ScenarioGenerator, Seed1First32ScenariosAreByteStable) {
  const ScenarioGenerator gen(1);
  std::string all;
  for (std::uint64_t i = 0; i < 32; ++i) all += gen.generate(i).to_json() + "\n";
  EXPECT_EQ(fnv1a(all), 0xb69f747fd7e7b1d1ull)
      << "generator byte-stability golden changed; if intentional, update "
         "the constant and regenerate recorded campaign JSONL\nfirst line: "
      << gen.generate(0).to_json();
}

TEST(ScenarioGenerator, Seed1First64TruthKeysAreByteStable) {
  // truth_key() is the TruthStore's on-disk identity: a change to these
  // bytes orphans every saved store, so it must come with a store
  // behaviour-version bump. All three kinds are drawn.
  GeneratorKnobs knobs;
  knobs.synthesized_fraction = 0.3;
  const ScenarioGenerator gen(1, knobs);
  std::string all;
  bool kinds[3] = {false, false, false};
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Scenario s = gen.generate(i);
    kinds[static_cast<int>(s.kind)] = true;
    all += s.truth_key() + "\n";
  }
  EXPECT_TRUE(kinds[0] && kinds[1] && kinds[2]);
  EXPECT_EQ(fnv1a(all), 0x653424e7f7e9a4cbull)
      << "truth-key byte-stability golden changed; if intentional, bump the "
         "TruthStore behaviour version\nfirst key: "
      << gen.generate(0).truth_key();
}

TEST(ScenarioGenerator, EveryScenarioMaterializes) {
  const ScenarioGenerator gen(99);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const Scenario s = gen.generate(i);
    const MaterializedScenario live = materialize(s);
    if (s.kind == ScenarioKind::kFamily) {
      ASSERT_NE(live.family, nullptr) << s.describe();
    } else {
      ASSERT_NE(live.net, nullptr) << s.describe();
      ASSERT_NE(live.alg, nullptr) << s.describe();
      ASSERT_NE(live.graph, nullptr) << s.describe();
    }
  }
}

TEST(ScenarioGenerator, MaterializationIsDeterministic) {
  const ScenarioGenerator gen(5);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario s = gen.generate(i);
    if (s.kind != ScenarioKind::kRandomAlgorithm) continue;
    const MaterializedScenario a = materialize(s);
    const MaterializedScenario b = materialize(s);
    EXPECT_EQ(a.graph->edge_count(), b.graph->edge_count()) << s.describe();
    EXPECT_EQ(a.graph->acyclic(), b.graph->acyclic()) << s.describe();
  }
}

TEST(ScenarioGenerator, CycleBiasForceYieldsCyclicCdgs) {
  GeneratorKnobs knobs;
  knobs.cycle_bias = CycleBias::kForce;
  knobs.family_fraction = 0;
  const ScenarioGenerator gen(11, knobs);
  int cyclic = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario s = gen.generate(i);
    ASSERT_EQ(s.kind, ScenarioKind::kRandomAlgorithm);
    if (!materialize(s).graph->acyclic()) ++cyclic;
  }
  EXPECT_GE(cyclic, 18);  // best-effort bias, near-universal in practice
}

TEST(ScenarioGenerator, CycleBiasForbidYieldsAcyclicCdgs) {
  GeneratorKnobs knobs;
  knobs.cycle_bias = CycleBias::kForbid;
  const ScenarioGenerator gen(11, knobs);
  int acyclic = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario s = gen.generate(i);
    // kForbid implies no family scenarios (their CDG ring is structural).
    ASSERT_EQ(s.kind, ScenarioKind::kRandomAlgorithm);
    if (materialize(s).graph->acyclic()) ++acyclic;
  }
  EXPECT_GE(acyclic, 18);
}

TEST(ScenarioJson, FamilyRoundTrips) {
  Scenario s;
  s.index = 17;
  s.seed = 12345;
  s.kind = ScenarioKind::kFamily;
  s.family.name = "fam";
  s.family.hub_completion = true;
  s.family.messages = {{2, 3, true}, {1, 2, false}, {4, 5, true}};
  const auto back = Scenario::from_json(s.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_json(), s.to_json());
  EXPECT_EQ(back->sharing_count(), 2);
}

TEST(ScenarioJson, RandomAlgorithmRoundTrips) {
  Scenario s;
  s.index = 3;
  s.seed = 999;
  s.kind = ScenarioKind::kRandomAlgorithm;
  s.topology = TopologyKind::kTorus;
  s.dims = {3, 2};
  s.lanes = 2;
  s.extra_chords = 1;
  s.flavor = RoutingFlavor::kRandomMinimal;
  const auto back = Scenario::from_json(s.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_json(), s.to_json());
}

TEST(ScenarioJson, GeneratedScenariosRoundTrip) {
  const ScenarioGenerator gen(123);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Scenario s = gen.generate(i);
    const auto back = Scenario::from_json(s.to_json());
    ASSERT_TRUE(back.has_value()) << s.to_json();
    EXPECT_EQ(back->to_json(), s.to_json());
  }
}

TEST(ScenarioJson, RejectsGarbage) {
  EXPECT_FALSE(Scenario::from_json("").has_value());
  EXPECT_FALSE(Scenario::from_json("[]").has_value());
  EXPECT_FALSE(Scenario::from_json("{\"kind\":\"family\"}").has_value());
  // Unbuildable family (m = 2 with a unit segment) must not round-trip.
  EXPECT_FALSE(Scenario::from_json(
                   "{\"index\":0,\"seed\":0,\"kind\":\"family\",\"name\":"
                   "\"x\",\"hub\":false,\"messages\":[[2,1,1],[2,2,1]]}")
                   .has_value());
  // Numeric fields outside what the topology builders accept, or outside
  // the integer type they are stored in, must be rejected here rather than
  // abort in materialize() or overflow a cast.
  for (const char* fields :
       {"\"topology\":\"uniring\",\"dims\":[],\"nodes\":-3",
        "\"topology\":\"uniring\",\"dims\":[],\"nodes\":1",
        "\"topology\":\"complete\",\"dims\":[],\"nodes\":1",
        "\"topology\":\"mesh\",\"dims\":[0,2],\"nodes\":0",
        "\"topology\":\"torus\",\"dims\":[],\"nodes\":0",
        "\"topology\":\"uniring\",\"dims\":[],\"nodes\":4,\"lanes\":0"}) {
    const std::string text = "{\"index\":0,\"seed\":5,\"kind\":\"random\"," +
                             std::string(fields) + ",\"flavor\":\"tree\"}";
    EXPECT_FALSE(Scenario::from_json(text).has_value()) << text;
  }
  EXPECT_FALSE(Scenario::from_json(
                   "{\"index\":0,\"seed\":0,\"kind\":\"family\",\"name\":"
                   "\"x\",\"hub\":false,\"messages\":[[2,2,1],[2,1e300,1],"
                   "[2,2,1]]}")
                   .has_value());
  // A seed past 2^64 has no u64 value; it must not wrap to 5.
  EXPECT_FALSE(Scenario::from_json(
                   "{\"index\":0,\"seed\":18446744073709551621,\"kind\":"
                   "\"family\",\"name\":\"x\",\"hub\":false,\"messages\":"
                   "[[2,2,1],[2,2,1]]}")
                   .has_value());
}

TEST(FamilySpec, BuildableEncodesConstructorDomain) {
  core::CyclicFamilySpec spec;
  spec.messages = {{2, 2, true}, {2, 2, true}};
  EXPECT_TRUE(family_spec_buildable(spec));

  spec.messages = {{2, 1, true}, {2, 2, true}};  // 2-ring unit segment
  EXPECT_FALSE(family_spec_buildable(spec));

  spec.messages = {{1, 1, true}, {2, 2, true}, {1, 1, false}};  // sharer a<2
  EXPECT_FALSE(family_spec_buildable(spec));

  spec.messages = {{2, 2, true}};  // single message: no ring
  EXPECT_FALSE(family_spec_buildable(spec));

  spec.messages = {{2, 1, true}, {1, 1, false}, {2, 2, true}};  // m=3 hold 1 ok
  EXPECT_TRUE(family_spec_buildable(spec));
}

}  // namespace
}  // namespace wormsim::campaign
