// The campaign-identity flags wormsim_campaign and wormsim_fleet share:
// everything that decides which scenarios a campaign draws and what their
// ground truth is. Declared once here, so both tools parse them alike.
#pragma once

#include "campaign/runner.hpp"
#include "cli.hpp"

namespace wormsim::cli {

inline void campaign_flags(Parser& p, campaign::CampaignConfig& config) {
  using campaign::CycleBias;
  using analysis::ReductionMode;
  p.integer("--seed", config.seed,
            "campaign seed; scenario i is a pure function of (seed, i)");
  p.integer("--count", config.count, "scenarios in the whole campaign");
  p.choice("--bias", config.knobs.cycle_bias,
           {{"any", CycleBias::kAny},
            {"force", CycleBias::kForce},
            {"forbid", CycleBias::kForbid}},
           "random-algorithm generator bias: force or forbid CDG cycles");
  p.fraction("--synth-fraction", config.knobs.synthesized_fraction,
             "fraction of non-family scenarios drawn as synthesized routing");
  p.integer("--synth-pairs", config.knobs.synth_max_pairs,
            "maximum demanded pairs per synthesized scenario", 2);
  p.integer("--max-states", config.eval.limits.max_states,
            "per-search state budget (changes the truth fingerprint)");
  p.choice("--reduction", config.eval.limits.reduction,
           {{"off", ReductionMode::kOff}, {"safe", ReductionMode::kSafe}},
           "ground-truth search reduction (DESIGN.md section 12)");
  p.text("--fixture-dir", "DIR", config.fixture_dir,
         "where disagreement reproducer fixtures are written");
}

}  // namespace wormsim::cli
