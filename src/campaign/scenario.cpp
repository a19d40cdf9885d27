#include "campaign/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "obs/json.hpp"
#include "routing/random_routing.hpp"
#include "synth/synthesize.hpp"

namespace wormsim::campaign {

namespace {

// Salts separating the independent random streams derived from one
// scenario seed (chord placement vs. routing-table generation); arbitrary
// odd constants.
constexpr std::uint64_t kRoutingSalt = 0xa2b7c93d51e6f847ull;
constexpr std::uint64_t kChordSalt = 0x6d1fb3a9428c7e15ull;
constexpr std::uint64_t kPairSalt = 0x3f8e6b24d9c1a75bull;

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int irange(util::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.range(lo, hi));
}

topo::Network build_topology(const Scenario& s) {
  switch (s.topology) {
    case TopologyKind::kUniRing:
      return topo::make_unidirectional_ring(s.nodes, s.lanes);
    case TopologyKind::kBiRing:
      return topo::make_bidirectional_ring(s.nodes, s.lanes);
    case TopologyKind::kMesh:
      return topo::make_mesh(s.dims, s.lanes).net();
    case TopologyKind::kTorus:
      return topo::make_torus(s.dims, s.lanes).net();
    case TopologyKind::kHypercube:
      return topo::make_hypercube(s.nodes);
    case TopologyKind::kComplete:
      return topo::make_complete(s.nodes);
  }
  WORMSIM_UNREACHABLE("bad TopologyKind");
}

/// Adds the scenario's chord channels: random (src, dst) pairs on the first
/// free virtual lane. Adding channels preserves strong connectivity.
void add_chords(topo::Network& net, const Scenario& s) {
  if (s.extra_chords == 0) return;
  util::Rng rng(s.seed ^ kChordSalt);
  const std::size_t n = net.node_count();
  for (int i = 0; i < s.extra_chords; ++i) {
    const NodeId src{rng.below(n)};
    NodeId dst{rng.below(n)};
    if (dst == src) dst = NodeId{(src.index() + 1) % n};
    std::uint16_t lane = 0;
    while (net.find_channel(src, dst, lane)) ++lane;
    net.add_channel(src, dst, lane);
  }
}

/// The synthesized-routing demand: `scenario.pairs` distinct ordered node
/// pairs drawn from seed ^ kPairSalt. Bounded rejection (duplicates and
/// src == dst are redrawn a few times, then skipped), so small networks may
/// yield fewer pairs than requested — deterministically so.
std::vector<synth::NodePair> sample_demand(const topo::Network& net,
                                           const Scenario& s) {
  util::Rng rng(s.seed ^ kPairSalt);
  const std::size_t n = net.node_count();
  std::vector<synth::NodePair> demand;
  std::unordered_set<std::uint64_t> seen;
  const int attempts = s.pairs * 4;
  for (int i = 0; i < attempts && std::cmp_less(demand.size(), s.pairs);
       ++i) {
    const NodeId src{rng.below(n)};
    const NodeId dst{rng.below(n)};
    if (src == dst) continue;
    const std::uint64_t key = (std::uint64_t{src.value()} << 32) | dst.value();
    if (!seen.insert(key).second) continue;
    demand.push_back({src, dst});
  }
  return demand;
}

}  // namespace

int Scenario::sharing_count() const {
  int sharers = 0;
  for (const core::CyclicMessageParams& p : family.messages)
    if (p.uses_shared) ++sharers;
  return sharers;
}

std::string Scenario::describe() const {
  std::ostringstream os;
  if (kind == ScenarioKind::kFamily) {
    os << "family m=" << family.messages.size() << " s=" << sharing_count()
       << " [";
    for (std::size_t i = 0; i < family.messages.size(); ++i) {
      const auto& p = family.messages[i];
      os << (i ? " " : "") << "(" << p.access << "," << p.hold << ","
         << (p.uses_shared ? "S" : "-") << ")";
    }
    os << "]";
  } else {
    os << (kind == ScenarioKind::kSynthesized ? "synth " : "random ")
       << to_string(topology);
    if (topology == TopologyKind::kMesh || topology == TopologyKind::kTorus) {
      os << " dims=";
      for (std::size_t i = 0; i < dims.size(); ++i)
        os << (i ? "x" : "") << dims[i];
    } else {
      os << " n=" << nodes;
    }
    if (lanes > 1) os << " lanes=" << lanes;
    if (extra_chords > 0) os << " chords=" << extra_chords;
    if (kind == ScenarioKind::kSynthesized)
      os << " pairs=" << pairs;
    else
      os << " " << to_string(flavor);
  }
  return os.str();
}

std::string Scenario::truth_key() const {
  std::ostringstream os;
  if (kind == ScenarioKind::kFamily) {
    // name is presentation-only and hub completion changes the network, so
    // the key is hub flag + the (access, hold, shared) ring in order.
    os << "F" << (family.hub_completion ? "H" : "-");
    for (const core::CyclicMessageParams& p : family.messages)
      os << "|" << p.access << "," << p.hold << "," << (p.uses_shared ? 1 : 0);
  } else if (kind == ScenarioKind::kSynthesized) {
    // The demand and the synthesized table are both pure functions of the
    // topology fields and the seed, so those are the whole identity.
    os << "S|" << to_string(topology) << "|";
    for (std::size_t i = 0; i < dims.size(); ++i)
      os << (i ? "x" : "") << dims[i];
    os << "|" << nodes << "|" << lanes << "|" << extra_chords << "|" << pairs
       << "|" << seed;
  } else {
    os << "R|" << to_string(topology) << "|";
    for (std::size_t i = 0; i < dims.size(); ++i)
      os << (i ? "x" : "") << dims[i];
    os << "|" << nodes << "|" << lanes << "|" << extra_chords << "|"
       << to_string(flavor) << "|" << seed;
  }
  return os.str();
}

std::string Scenario::to_json() const {
  std::ostringstream os;
  os << "{\"index\":" << index << ",\"seed\":" << seed << ",\"kind\":\""
     << to_string(kind) << "\"";
  if (kind == ScenarioKind::kFamily) {
    os << ",\"name\":" << obs::json::quote(family.name)
       << ",\"hub\":" << (family.hub_completion ? "true" : "false")
       << ",\"messages\":[";
    for (std::size_t i = 0; i < family.messages.size(); ++i) {
      const auto& p = family.messages[i];
      os << (i ? "," : "") << "[" << p.access << "," << p.hold << ","
         << (p.uses_shared ? 1 : 0) << "]";
    }
    os << "]";
  } else {
    os << ",\"topology\":\"" << to_string(topology) << "\",\"dims\":[";
    for (std::size_t i = 0; i < dims.size(); ++i)
      os << (i ? "," : "") << dims[i];
    os << "],\"nodes\":" << nodes << ",\"lanes\":" << lanes
       << ",\"chords\":" << extra_chords;
    if (kind == ScenarioKind::kSynthesized)
      os << ",\"pairs\":" << pairs;
    else
      os << ",\"flavor\":\"" << to_string(flavor) << "\"";
  }
  os << "}";
  return os.str();
}

namespace {

/// `v` as an integer in [lo, hi] (both within int); nullopt when it is not
/// a number, has a fraction, or lies outside — every case where a plain
/// cast would truncate or be undefined, or a builder would abort.
std::optional<int> int_in(const obs::json::Value* v, int lo, int hi) {
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->as_number();
  if (!(d >= lo && d <= hi) || d != std::trunc(d)) return std::nullopt;
  return static_cast<int>(d);
}

}  // namespace

std::optional<Scenario> Scenario::from_json(std::string_view text) {
  const auto parsed = obs::json::parse(text);
  if (!parsed) return std::nullopt;
  return from_json(*parsed);
}

std::optional<Scenario> Scenario::from_json(const obs::json::Value& value) {
  if (!value.is_object()) return std::nullopt;
  const auto* index = value.find("index");
  const auto* seed = value.find("seed");
  const auto* kind = value.find("kind");
  // Seeds must survive a round-trip bit-exactly (a replayed scenario
  // regenerates its routing table from the seed), so both counters must be
  // exact u64 literals.
  if (!index || !index->is_exact_u64() || !seed || !seed->is_exact_u64() ||
      !kind || !kind->is_string())
    return std::nullopt;

  Scenario s;
  s.index = index->as_u64();
  s.seed = seed->as_u64();

  if (kind->as_string() == "family") {
    s.kind = ScenarioKind::kFamily;
    const auto* name = value.find("name");
    const auto* hub = value.find("hub");
    const auto* messages = value.find("messages");
    if (!messages || !messages->is_array()) return std::nullopt;
    s.family.name = name && name->is_string() ? name->as_string() : "fam";
    s.family.hub_completion = hub && hub->is_bool() && hub->as_bool();
    for (const auto& entry : messages->as_array()) {
      if (!entry.is_array() || entry.as_array().size() != 3)
        return std::nullopt;
      const auto& triple = entry.as_array();
      const auto access = int_in(&triple[0], kIntMin, kIntMax);
      const auto hold = int_in(&triple[1], kIntMin, kIntMax);
      const auto shared = int_in(&triple[2], kIntMin, kIntMax);
      if (!access || !hold || !shared) return std::nullopt;
      s.family.messages.push_back({*access, *hold, *shared != 0});
    }
    if (!family_spec_buildable(s.family)) return std::nullopt;
    return s;
  }

  const bool synthesized = kind->as_string() == "synthesized";
  if (kind->as_string() != "random" && !synthesized) return std::nullopt;
  s.kind = synthesized ? ScenarioKind::kSynthesized
                       : ScenarioKind::kRandomAlgorithm;
  const auto* topology = value.find("topology");
  const auto* dims = value.find("dims");
  const auto* nodes = value.find("nodes");
  const auto* lanes = value.find("lanes");
  const auto* chords = value.find("chords");
  const auto* flavor = value.find("flavor");
  if (!topology || !topology->is_string()) return std::nullopt;
  const std::string& topo_name = topology->as_string();
  bool known = false;
  for (const TopologyKind k :
       {TopologyKind::kUniRing, TopologyKind::kBiRing, TopologyKind::kMesh,
        TopologyKind::kTorus, TopologyKind::kHypercube,
        TopologyKind::kComplete}) {
    if (topo_name == to_string(k)) {
      s.topology = k;
      known = true;
    }
  }
  if (!known) return std::nullopt;
  // Every numeric field must be an integer the topology builders accept.
  if (dims && dims->is_array())
    for (const auto& d : dims->as_array()) {
      const auto radix = int_in(&d, 2, kIntMax);
      if (!radix) return std::nullopt;
      s.dims.push_back(*radix);
    }
  const bool grid = s.topology == TopologyKind::kMesh ||
                    s.topology == TopologyKind::kTorus;
  if (grid && s.dims.empty()) return std::nullopt;
  const auto node_count =
      grid ? int_in(nodes, kIntMin, kIntMax)
      : s.topology == TopologyKind::kHypercube ? int_in(nodes, 1, 20)
                                                : int_in(nodes, 2, kIntMax);
  const auto lane_count =
      lanes ? int_in(lanes, 1, std::numeric_limits<std::uint16_t>::max()) : 1;
  const auto chord_count = chords ? int_in(chords, 0, kIntMax) : 0;
  if (!node_count || !lane_count || !chord_count) return std::nullopt;
  s.nodes = *node_count;
  s.lanes = static_cast<std::uint16_t>(*lane_count);
  s.extra_chords = *chord_count;
  s.flavor = flavor && flavor->is_string() &&
                     flavor->as_string() == to_string(RoutingFlavor::kRandomMinimal)
                 ? RoutingFlavor::kRandomMinimal
                 : RoutingFlavor::kRandomTree;
  if (synthesized) {
    const auto pairs = int_in(value.find("pairs"), 1, kIntMax);
    if (!pairs) return std::nullopt;
    s.pairs = *pairs;
  }
  return s;
}

bool family_spec_buildable(const core::CyclicFamilySpec& spec) {
  const std::size_t m = spec.messages.size();
  if (m < 2) return false;
  for (const core::CyclicMessageParams& p : spec.messages) {
    if (p.hold < 1) return false;
    if (p.access < (p.uses_shared ? 2 : 1)) return false;
    // A 2-message ring with a unit segment puts a message's destination on
    // its own earlier path (D_i collapses onto the opposite entry node),
    // which PathTable rejects as "passes through the destination".
    if (m == 2 && p.hold < 2) return false;
  }
  return true;
}

MaterializedScenario materialize(const Scenario& scenario) {
  MaterializedScenario m;
  if (scenario.kind == ScenarioKind::kFamily) {
    WORMSIM_EXPECTS_MSG(family_spec_buildable(scenario.family),
                        "unbuildable family spec");
    m.family = std::make_unique<core::CyclicFamily>(scenario.family);
    return m;
  }
  m.net = std::make_unique<topo::Network>(build_topology(scenario));
  add_chords(*m.net, scenario);
  if (scenario.kind == ScenarioKind::kSynthesized) {
    // Sample the demand, run the existence analyzer, and compile a witness
    // ordering into a table. All deterministic in the scenario fields; the
    // state budget is fixed here (not an option) because the certificate is
    // part of the scenario's reproducible identity.
    m.demand = sample_demand(*m.net, scenario);
    synth::ExistenceOptions eopt;
    eopt.max_states = 50'000;
    m.certificate = std::make_unique<synth::ExistenceCertificate>(
        synth::analyze_existence(*m.net, m.demand, eopt));
    if (m.certificate->verdict == synth::ExistenceVerdict::kExists) {
      m.alg = synth::table_from_order(*m.net, m.demand, m.certificate->order);
      m.graph = std::make_unique<cdg::ChannelDependencyGraph>(
          cdg::ChannelDependencyGraph::build(*m.alg));
    }
    return m;
  }
  util::Rng rng(scenario.seed ^ kRoutingSalt);
  m.alg = scenario.flavor == RoutingFlavor::kRandomTree
              ? routing::random_tree_routing(*m.net, rng)
              : routing::random_minimal_routing(*m.net, rng);
  m.graph = std::make_unique<cdg::ChannelDependencyGraph>(
      cdg::ChannelDependencyGraph::build(*m.alg));
  return m;
}

namespace {

// Scenario size bounds (inclusive), small enough that every exhaustive
// search stays in the millisecond range. Family rings: message count,
// sharers of c_s (clamped to the message count), access and hold lengths.
constexpr int kMinMessages = 2;
constexpr int kMaxMessages = 4;
constexpr int kMinSharers = 0;
constexpr int kMaxSharers = 4;
constexpr int kMaxAccess = 4;
constexpr int kMaxHold = 5;
// The Figure-3 shape draws three distinct accesses of at least 2.
static_assert(kMaxAccess >= 4);
// Random-algorithm topologies.
constexpr int kMaxRingNodes = 7;
constexpr int kMaxMeshRadix = 3;
constexpr int kMaxCompleteNodes = 5;
constexpr int kMaxHypercubeDim = 3;
constexpr int kMaxLanes = 2;
// Perturbed variants: probability of adding random chord channels to a
// mesh/ring base, and the chord-count cap.
constexpr double kPerturbFraction = 0.25;
constexpr int kMaxExtraChords = 3;

}  // namespace

ScenarioGenerator::ScenarioGenerator(std::uint64_t campaign_seed,
                                     GeneratorKnobs knobs)
    : campaign_seed_(campaign_seed), knobs_(knobs) {
  WORMSIM_EXPECTS(knobs_.synthesized_fraction >= 0.0 &&
                  knobs_.synthesized_fraction <= 1.0);
  WORMSIM_EXPECTS(knobs_.synth_max_pairs >= 2);
}

std::uint64_t ScenarioGenerator::derive_seed(std::uint64_t campaign_seed,
                                             std::uint64_t index) {
  return splitmix64(splitmix64(campaign_seed) ^
                    splitmix64(index * 0x9e3779b97f4a7c15ull + 1));
}

Scenario ScenarioGenerator::generate(std::uint64_t index) const {
  const std::uint64_t seed = derive_seed(campaign_seed_, index);
  util::Rng rng(seed);
  const bool forbid_cycles = knobs_.cycle_bias == CycleBias::kForbid;
  const bool family =
      !forbid_cycles && rng.chance(knobs_.family_fraction);
  // The synthesized draw happens only when the knob is on: at fraction 0 no
  // generator randomness is consumed, so pinned campaigns that predate the
  // knob keep their exact bytes.
  const bool synthesized = !family && knobs_.synthesized_fraction > 0 &&
                           rng.chance(knobs_.synthesized_fraction);
  Scenario s = family        ? sample_family(rng)
               : synthesized ? sample_synthesized(rng)
                             : sample_random_algorithm(rng);
  s.index = index;
  // Random-algorithm scenarios carry the per-attempt materialization seed
  // chosen inside the sampler (cycle-bias retries must keep the seed that
  // produced the accepted CDG); family materialization is seed-free.
  if (s.kind == ScenarioKind::kFamily) {
    s.seed = seed;
    if (s.family.name.empty() || s.family.name == "cyclic-family")
      s.family.name = "fam";
  }
  return s;
}

Scenario ScenarioGenerator::sample_family(util::Rng& rng) const {
  Scenario s;
  s.kind = ScenarioKind::kFamily;

  if (rng.chance(knobs_.section6_fraction)) {
    // Exact Section-6 generalized instance (k = 1 is Figure 1): a provably
    // unreachable cycle, exercising the campaign's "unreachable" verdict.
    s.family = core::generalized_spec(irange(rng, 1, 2));
    return s;
  }

  const int m = irange(rng, kMinMessages, kMaxMessages);
  const int sharers = std::clamp(irange(rng, kMinSharers, kMaxSharers), 0, m);

  if (sharers == 3 && m >= 3 && rng.chance(knobs_.theorem5_shape_bias)) {
    // Figure-3 shape: three sharers with distinct accesses placed around
    // the ring in the order A, C, B, holds biased long so that Theorem 5's
    // conditions frequently all hold.
    const int aC = irange(rng, 2, kMaxAccess - 2);
    const int aB = irange(rng, aC + 1, kMaxAccess - 1);
    const int aA = irange(rng, aB + 1, kMaxAccess);
    const int hold_hi = std::max(kMaxHold, aA + 2);
    core::CyclicMessageParams A{aA, irange(rng, aA + 1, hold_hi), true};
    core::CyclicMessageParams C{aC, irange(rng, aA - aC + 1, hold_hi), true};
    core::CyclicMessageParams B{aB, irange(rng, aB + 1, hold_hi), true};
    s.family.messages = {A, C, B};
    if (m > 3) {
      // Interpose a non-sharing ring message at a random position (the
      // device Figure 3 (c), (e), (f) use). These land in the classifier's
      // "theorem5-open" region — the condition reconstruction is validated
      // only for 3-message rings — but keep the open region populated.
      core::CyclicMessageParams extra{irange(rng, 1, kMaxAccess),
                                      irange(rng, 1, kMaxHold), false};
      const auto at = static_cast<std::size_t>(irange(rng, 0, 3));
      s.family.messages.insert(
          s.family.messages.begin() + static_cast<std::ptrdiff_t>(at), extra);
    }
    return s;
  }

  std::vector<bool> shares(static_cast<std::size_t>(m), false);
  for (int i = 0; i < sharers; ++i) shares[static_cast<std::size_t>(i)] = true;
  std::shuffle(shares.begin(), shares.end(), rng);
  const int min_hold = m == 2 ? 2 : 1;
  for (int i = 0; i < m; ++i) {
    core::CyclicMessageParams p;
    p.uses_shared = shares[static_cast<std::size_t>(i)];
    p.access = irange(rng, p.uses_shared ? 2 : 1, kMaxAccess);
    p.hold = irange(rng, min_hold, kMaxHold);
    s.family.messages.push_back(p);
  }
  return s;
}

Scenario ScenarioGenerator::sample_random_algorithm(util::Rng& rng) const {
  const int tries = knobs_.cycle_bias == CycleBias::kAny ? 1 : 24;
  Scenario s;
  for (int attempt = 0; attempt < tries; ++attempt) {
    s = Scenario{};
    s.kind = ScenarioKind::kRandomAlgorithm;
    s.seed = rng.next_u64();  // materialization stream for this attempt
    const int kind_count = 6;
    switch (irange(rng, 0, kind_count - 1)) {
      case 0:
        s.topology = TopologyKind::kUniRing;
        s.nodes = irange(rng, 3, kMaxRingNodes);
        s.lanes = static_cast<std::uint16_t>(irange(rng, 1, kMaxLanes));
        break;
      case 1:
        s.topology = TopologyKind::kBiRing;
        s.nodes = irange(rng, 3, kMaxRingNodes - 1);
        break;
      case 2:
        s.topology = TopologyKind::kMesh;
        if (rng.chance(0.3)) {
          s.dims = {irange(rng, 3, 6)};  // 1-D line
        } else {
          s.dims = {irange(rng, 2, kMaxMeshRadix),
                    irange(rng, 2, kMaxMeshRadix)};
        }
        break;
      case 3:
        s.topology = TopologyKind::kTorus;
        s.dims = {irange(rng, 3, kMaxMeshRadix), irange(rng, 2, kMaxMeshRadix)};
        break;
      case 4:
        s.topology = TopologyKind::kHypercube;
        s.nodes = irange(rng, 2, kMaxHypercubeDim);
        break;
      case 5:
        s.topology = TopologyKind::kComplete;
        s.nodes = irange(rng, 3, kMaxCompleteNodes);
        break;
      default:
        WORMSIM_UNREACHABLE("bad topology draw");
    }
    if ((s.topology == TopologyKind::kMesh ||
         s.topology == TopologyKind::kBiRing ||
         s.topology == TopologyKind::kUniRing) &&
        rng.chance(kPerturbFraction)) {
      s.extra_chords = irange(rng, 1, kMaxExtraChords);
    }
    s.flavor = rng.chance(0.5) ? RoutingFlavor::kRandomTree
                               : RoutingFlavor::kRandomMinimal;

    if (knobs_.cycle_bias == CycleBias::kAny) return s;
    const MaterializedScenario live = materialize(s);
    const bool acyclic = live.graph->acyclic();
    if (knobs_.cycle_bias == CycleBias::kForce && !acyclic) return s;
    if (knobs_.cycle_bias == CycleBias::kForbid && acyclic) return s;
  }
  // Best-effort fallback: by-construction matches for either bias. A total
  // routing on a unidirectional ring always closes the CDG ring; minimal
  // routing on a line is monotone, hence acyclic.
  if (knobs_.cycle_bias == CycleBias::kForce) {
    s.topology = TopologyKind::kUniRing;
    s.nodes = 4;
    s.lanes = 1;
    s.dims.clear();
    s.extra_chords = 0;
  } else {
    s.topology = TopologyKind::kMesh;
    s.dims = {4};
    s.nodes = 0;
    s.lanes = 1;
    s.extra_chords = 0;
    s.flavor = RoutingFlavor::kRandomMinimal;
  }
  return s;
}

Scenario ScenarioGenerator::sample_synthesized(util::Rng& rng) const {
  // Topologies stay small: the exact placement search behind the existence
  // analyzer is exponential in the worst case, and the campaign needs every
  // scenario in the millisecond range.
  Scenario s;
  s.kind = ScenarioKind::kSynthesized;
  s.seed = rng.next_u64();  // demand-sampling stream
  switch (irange(rng, 0, 4)) {
    case 0:
      s.topology = TopologyKind::kUniRing;
      s.nodes = irange(rng, 3, 6);
      break;
    case 1:
      s.topology = TopologyKind::kBiRing;
      s.nodes = irange(rng, 3, 5);
      break;
    case 2:
      s.topology = TopologyKind::kMesh;
      s.dims = {irange(rng, 2, 3), irange(rng, 2, 3)};
      break;
    case 3:
      s.topology = TopologyKind::kHypercube;
      s.nodes = irange(rng, 2, 3);
      break;
    case 4:
      s.topology = TopologyKind::kComplete;
      s.nodes = irange(rng, 3, 5);
      break;
    default:
      WORMSIM_UNREACHABLE("bad synthesized topology draw");
  }
  if ((s.topology == TopologyKind::kMesh ||
       s.topology == TopologyKind::kBiRing ||
       s.topology == TopologyKind::kUniRing) &&
      rng.chance(kPerturbFraction)) {
    s.extra_chords = irange(rng, 1, kMaxExtraChords);
  }
  s.pairs = irange(rng, 2, std::max(2, knobs_.synth_max_pairs));
  return s;
}

const char* to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kFamily: return "family";
    case ScenarioKind::kRandomAlgorithm: return "random";
    case ScenarioKind::kSynthesized: return "synthesized";
  }
  WORMSIM_UNREACHABLE("bad ScenarioKind");
}

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kUniRing: return "uniring";
    case TopologyKind::kBiRing: return "biring";
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kHypercube: return "hypercube";
    case TopologyKind::kComplete: return "complete";
  }
  WORMSIM_UNREACHABLE("bad TopologyKind");
}

const char* to_string(RoutingFlavor flavor) {
  switch (flavor) {
    case RoutingFlavor::kRandomTree: return "tree";
    case RoutingFlavor::kRandomMinimal: return "minimal";
  }
  WORMSIM_UNREACHABLE("bad RoutingFlavor");
}

}  // namespace wormsim::campaign
