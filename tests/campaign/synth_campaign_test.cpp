// Campaign integration for the synthesized-routing scenario kind: the
// generator knob is opt-in (default bytes untouched), synthesized scenarios
// round-trip through JSON, their certificates materialize deterministically,
// mini-campaigns never disagree, and JSONL bytes are identical across
// shard counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace wormsim::campaign {
namespace {

GeneratorKnobs synth_knobs() {
  GeneratorKnobs knobs;
  knobs.synthesized_fraction = 1.0;
  knobs.family_fraction = 0.0;
  return knobs;
}

CampaignConfig synth_campaign(std::uint64_t count) {
  CampaignConfig config;
  config.seed = 424242;
  config.count = count;
  config.shards = 1;
  config.fixture_dir.clear();
  config.knobs = synth_knobs();
  config.eval.limits.max_states = 400'000;
  return config;
}

TEST(SynthScenario, KnobDefaultsToZeroAndDrawsNothing) {
  // The golden-bytes guarantee: with the default knobs the generator must
  // not even consume randomness for the synthesized branch, so the
  // pre-knob scenario stream is reproduced bit-for-bit.
  const GeneratorKnobs defaults;
  EXPECT_EQ(defaults.synthesized_fraction, 0.0);
  const ScenarioGenerator gen(1);
  const ScenarioGenerator pre(1, defaults);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Scenario a = gen.generate(i);
    EXPECT_NE(a.kind, ScenarioKind::kSynthesized);
    EXPECT_EQ(a.to_json(), pre.generate(i).to_json());
  }
}

TEST(SynthScenario, FullFractionDrawsOnlySynthesized) {
  const ScenarioGenerator gen(7, synth_knobs());
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Scenario s = gen.generate(i);
    EXPECT_EQ(s.kind, ScenarioKind::kSynthesized);
    EXPECT_GE(s.pairs, 2);
  }
}

TEST(SynthScenario, JsonRoundTripPreservesIdentity) {
  const ScenarioGenerator gen(13, synth_knobs());
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Scenario s = gen.generate(i);
    const std::string text = s.to_json();
    const std::optional<Scenario> back = Scenario::from_json(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->kind, ScenarioKind::kSynthesized);
    EXPECT_EQ(back->to_json(), text);
    EXPECT_EQ(back->truth_key(), s.truth_key());
  }
}

TEST(SynthScenario, MaterializationIsDeterministic) {
  const ScenarioGenerator gen(21, synth_knobs());
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Scenario s = gen.generate(i);
    const MaterializedScenario a = materialize(s);
    const MaterializedScenario b = materialize(s);
    ASSERT_NE(a.certificate, nullptr);
    ASSERT_NE(b.certificate, nullptr);
    EXPECT_EQ(a.certificate->verdict, b.certificate->verdict);
    EXPECT_EQ(a.certificate->method, b.certificate->method);
    EXPECT_EQ(a.certificate->order, b.certificate->order);
    EXPECT_EQ(a.demand.size(), b.demand.size());
    EXPECT_EQ(a.alg != nullptr, b.alg != nullptr);
    // Demand pairs are sampled from a salted stream: same bytes both times.
    for (std::size_t p = 0; p < a.demand.size(); ++p)
      EXPECT_EQ(a.demand[p], b.demand[p]);
  }
}

TEST(SynthScenario, ShrinkOffersAPairPrefixStep) {
  // sample_demand draws pairs from one salted stream, so fewer pairs is a
  // strict prefix of the larger demand — the shrinker exploits that.
  const ScenarioGenerator gen(31, synth_knobs());
  Scenario s;
  for (std::uint64_t i = 0; i < 32; ++i) {
    s = gen.generate(i);
    if (s.pairs > 2) break;
  }
  ASSERT_GT(s.pairs, 2);
  const MaterializedScenario full = materialize(s);
  Scenario fewer = s;
  --fewer.pairs;
  const MaterializedScenario prefix = materialize(fewer);
  ASSERT_EQ(prefix.demand.size() + 1, full.demand.size());
  for (std::size_t p = 0; p < prefix.demand.size(); ++p)
    EXPECT_EQ(prefix.demand[p], full.demand[p]);
}

TEST(SynthCampaign, MiniCampaignNeverDisagrees) {
  const CampaignResult result = run_campaign(synth_campaign(60));
  EXPECT_EQ(result.disagree, 0u)
      << "certificate and exhaustive search disagreed";
  EXPECT_GT(result.agree, 0u);
  // The synthesized rules actually fired (not everything skipped).
  std::uint64_t synth_rules = 0;
  for (const auto& [rule, count] : result.rule_counts)
    if (rule.rfind("synth-", 0) == 0) synth_rules += count;
  EXPECT_GT(synth_rules, 0u);
}

TEST(SynthCampaign, JsonlBytesAreShardCountInvariant) {
  CampaignConfig one = synth_campaign(48);
  CampaignConfig three = one;
  three.shards = 3;
  std::ostringstream a, b;
  run_campaign(one).write_jsonl(a);
  run_campaign(three).write_jsonl(b);
  EXPECT_EQ(a.str(), b.str()) << "thread count changed the record bytes";
}

}  // namespace
}  // namespace wormsim::campaign
