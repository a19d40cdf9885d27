// Randomized scenario generation for the theorem-vs-search campaign.
//
// A Scenario is a small, serializable description of one test case: either a
// CyclicFamily instance (the paper's Section 4–6 ring constructions, with
// randomized access/hold/sharing structure) or a random oblivious routing
// algorithm on a random small topology (the Corollary 1–3 class). Scenarios
// are pure data — a seed plus structural parameters — so they can be written
// to JSONL, replayed bit-identically, and shrunk to minimal reproducers.
// Materialization (building the network and routing algorithm) is a separate,
// deterministic step keyed only on the scenario's own fields.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdg/cdg.hpp"
#include "core/cyclic_family.hpp"
#include "routing/routing.hpp"
#include "synth/existence.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace wormsim::obs::json {
class Value;
}

namespace wormsim::campaign {

enum class ScenarioKind : std::uint8_t {
  kFamily,           ///< paper ring family (CyclicFamilySpec)
  kRandomAlgorithm,  ///< random N x N -> C algorithm on a random topology
  kSynthesized,      ///< table synthesized from an existence certificate
};

enum class TopologyKind : std::uint8_t {
  kUniRing,
  kBiRing,
  kMesh,   ///< dims define a k-ary n-mesh (1-D = line)
  kTorus,
  kHypercube,
  kComplete,
};

enum class RoutingFlavor : std::uint8_t {
  kRandomTree,     ///< routing::random_tree_routing (non-minimal allowed)
  kRandomMinimal,  ///< routing::random_minimal_routing
};

/// Bias applied to random-algorithm scenarios' CDG cyclicity. kForce/kForbid
/// resample (bounded tries) until the built CDG matches; when no try matches
/// the last sample is kept, so the bias is best-effort, not a guarantee —
/// the classifier always re-derives cyclicity from the actual CDG.
enum class CycleBias : std::uint8_t { kAny, kForce, kForbid };

/// The generator's knobs: which scenario classes it draws and how often.
/// The size bounds of each class are constants in scenario.cpp, small
/// enough that the exhaustive search stays in the millisecond range.
struct GeneratorKnobs {
  /// Fraction of scenarios drawn from the family class (rest are random
  /// algorithms). Forced to 0 under CycleBias::kForbid (a family ring's CDG
  /// is cyclic by construction).
  double family_fraction = 0.55;
  /// When a 3-sharer family is sampled, probability of drawing it from the
  /// Figure-3 shape (ring order A, C, B; distinct accesses) with holds biased
  /// long — the region where Theorem 5's eight conditions can all hold.
  /// Uniform sampling almost never lands there.
  double theorem5_shape_bias = 0.5;
  /// Fraction of family scenarios that are exact Section-6 generalized
  /// instances (k sampled in [1, 2]); these are provably unreachable cycles.
  double section6_fraction = 0.08;
  CycleBias cycle_bias = CycleBias::kAny;
  /// Fraction of non-family scenarios drawn from the synthesized-routing
  /// class (src/synth: existence certificate compiled into a table, checked
  /// against the search). The default 0 draws nothing AND consumes no
  /// generator randomness, so existing pinned-seed campaign bytes are
  /// unchanged until a run opts in.
  double synthesized_fraction = 0.0;
  /// Demand size range for synthesized scenarios (sampled pair count).
  int synth_max_pairs = 6;
};

/// One generated test case. Everything the campaign does downstream
/// (classify, search, shrink, replay) is a pure function of this record.
struct Scenario {
  std::uint64_t index = 0;  ///< position in the campaign stream
  std::uint64_t seed = 0;   ///< per-scenario seed (drives materialization)
  ScenarioKind kind = ScenarioKind::kFamily;

  // kFamily payload.
  core::CyclicFamilySpec family;

  // kRandomAlgorithm payload.
  TopologyKind topology = TopologyKind::kUniRing;
  std::vector<int> dims;  ///< mesh/torus radices
  int nodes = 0;          ///< ring/complete node count, hypercube dimension
  std::uint16_t lanes = 1;
  int extra_chords = 0;  ///< random chord channels added after construction
  RoutingFlavor flavor = RoutingFlavor::kRandomTree;

  /// kSynthesized payload (topology fields above are shared): number of
  /// demand pairs to sample from seed ^ kPairSalt during materialization.
  int pairs = 0;

  /// Ring messages routed through c_s (kFamily only).
  [[nodiscard]] int sharing_count() const;

  /// Compact human-readable one-liner ("family m=3 s=2 [(2,3,S)...]").
  [[nodiscard]] std::string describe() const;

  /// Identity of this scenario's ground truth, i.e. every field the search
  /// verdict depends on — and nothing else. Family instances are seed-free
  /// (materialization depends only on the spec), so distinct scenarios that
  /// sample the same ring share one key; random-algorithm instances fold in
  /// the seed (it generates the routing table). Used as the TruthStore key,
  /// so changes here invalidate persisted caches (bump the store's
  /// behaviour version).
  [[nodiscard]] std::string truth_key() const;

  /// One-line JSON object; the exact bytes are covered by the determinism
  /// golden test, so extend rather than reorder fields.
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json(); nullopt when a field is missing, of the wrong
  /// type, or outside what the builders accept.
  static std::optional<Scenario> from_json(std::string_view text);
  static std::optional<Scenario> from_json(const obs::json::Value& value);
};

/// A scenario turned into live objects. For kFamily the CyclicFamily owns
/// network and algorithm; for kRandomAlgorithm the network, algorithm and
/// channel dependency graph are owned here. For kSynthesized the algorithm
/// is the table compiled from the existence certificate — absent (null)
/// when the analyzer refused or ran out of budget.
struct MaterializedScenario {
  std::unique_ptr<core::CyclicFamily> family;
  std::unique_ptr<topo::Network> net;
  std::unique_ptr<routing::RoutingAlgorithm> alg;
  std::unique_ptr<cdg::ChannelDependencyGraph> graph;  ///< kRandomAlgorithm

  // kSynthesized payload: the sampled demand and its certificate.
  std::vector<synth::NodePair> demand;
  std::unique_ptr<synth::ExistenceCertificate> certificate;

  [[nodiscard]] const routing::RoutingAlgorithm& algorithm() const {
    if (family) return family->algorithm();
    return *alg;
  }
};

/// Whether CyclicFamily's constructor (and PathTable's routing-function
/// checks) accept the spec. Encodes the geometric corner the builders
/// reject: a 2-message ring with a unit segment routes a message through its
/// own destination.
[[nodiscard]] bool family_spec_buildable(const core::CyclicFamilySpec& spec);

/// Deterministically builds the scenario's network + routing algorithm (and
/// CDG for random-algorithm scenarios). Depends only on the scenario fields,
/// never on generator state, so shrunk or hand-written scenarios replay
/// identically.
[[nodiscard]] MaterializedScenario materialize(const Scenario& scenario);

/// Seeded scenario stream. generate(i) is a pure function of
/// (campaign_seed, knobs, i): any index can be regenerated independently on
/// any shard, which is what makes the runner's sharding deterministic.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(std::uint64_t campaign_seed,
                             GeneratorKnobs knobs = {});

  [[nodiscard]] const GeneratorKnobs& knobs() const { return knobs_; }

  /// Per-scenario seed: SplitMix64 of (campaign_seed, index) so neighboring
  /// indices get statistically independent streams.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                                 std::uint64_t index);

  [[nodiscard]] Scenario generate(std::uint64_t index) const;

 private:
  [[nodiscard]] Scenario sample_family(util::Rng& rng) const;
  [[nodiscard]] Scenario sample_random_algorithm(util::Rng& rng) const;
  [[nodiscard]] Scenario sample_synthesized(util::Rng& rng) const;

  std::uint64_t campaign_seed_;
  GeneratorKnobs knobs_;
};

const char* to_string(ScenarioKind kind);
const char* to_string(TopologyKind kind);
const char* to_string(RoutingFlavor flavor);

}  // namespace wormsim::campaign
