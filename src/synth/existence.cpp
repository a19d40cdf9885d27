#include "synth/existence.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"

namespace wormsim::synth {

namespace {

/// Fixed-width bitset over node indices.
struct Bits {
  std::vector<std::uint64_t> w;

  explicit Bits(std::size_t bits = 0) : w((bits + 63) / 64, 0) {}
  [[nodiscard]] bool test(std::size_t i) const {
    return (w[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { w[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) { w[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  /// this ⊆ other.
  [[nodiscard]] bool subset_of(const Bits& other) const {
    for (std::size_t i = 0; i < w.size(); ++i)
      if (w[i] & ~other.w[i]) return false;
    return true;
  }
  bool operator==(const Bits&) const = default;
};

/// The deduplicated decision instance: pairs with src != dst, plus the
/// distinct source list (reach propagation is independent per source, so
/// only sources that actually appear are tracked).
struct Instance {
  const topo::Network* net = nullptr;
  std::vector<NodePair> pairs;
  std::vector<NodeId> sources;                 ///< distinct, ascending
  std::vector<std::size_t> source_of_pair;     ///< pair -> index in sources
};

Instance make_instance(const topo::Network& net,
                       std::span<const NodePair> pairs) {
  Instance inst;
  inst.net = &net;
  inst.pairs = canonical_pairs(net, pairs);
  for (const NodePair& p : inst.pairs) {
    if (inst.sources.empty() || inst.sources.back() != p.src)
      inst.sources.push_back(p.src);
    inst.source_of_pair.push_back(inst.sources.size() - 1);
  }
  return inst;
}

/// Reach state: per tracked source, the nodes reachable by a strictly
/// increasing path over the channels placed so far.
struct ReachState {
  std::vector<Bits> reach;  ///< indexed like Instance::sources

  ReachState(const Instance& inst) {
    reach.reserve(inst.sources.size());
    for (const NodeId s : inst.sources) {
      Bits b(inst.net->node_count());
      b.set(s.index());
      reach.push_back(std::move(b));
    }
  }

  [[nodiscard]] bool goal(const Instance& inst) const {
    for (std::size_t i = 0; i < inst.pairs.size(); ++i)
      if (!reach[inst.source_of_pair[i]].test(inst.pairs[i].dst.index()))
        return false;
    return true;
  }
};

/// True when every pair is satisfied by a strictly-rank-increasing path
/// under `order`. Channels of equal rank are processed as one group against
/// the reach snapshot taken before the group, so equal ranks can never
/// chain — exactly the strictness the certificate promises.
bool order_satisfies(const Instance& inst,
                     std::span<const std::uint32_t> order) {
  const topo::Network& net = *inst.net;
  if (order.size() != net.channel_count()) return false;
  std::vector<std::uint32_t> channels(net.channel_count());
  std::iota(channels.begin(), channels.end(), 0u);
  std::sort(channels.begin(), channels.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::pair(order[a], a) < std::pair(order[b], b);
            });
  ReachState state(inst);
  std::vector<Bits> snapshot = state.reach;
  std::size_t g = 0;
  while (g < channels.size()) {
    std::size_t end = g;
    while (end < channels.size() &&
           order[channels[end]] == order[channels[g]])
      ++end;
    snapshot = state.reach;
    for (std::size_t i = g; i < end; ++i) {
      const topo::Channel& ch = net.channel(ChannelId{channels[i]});
      for (std::size_t s = 0; s < state.reach.size(); ++s)
        if (snapshot[s].test(ch.src.index()))
          state.reach[s].set(ch.dst.index());
    }
    g = end;
  }
  return state.goal(inst);
}

// ---------------------------------------------------------------------------
// Heuristic witness passes
// ---------------------------------------------------------------------------

/// Autonet-style up*/down* ordering from `root`: nodes get keys
/// (BFS level over the underlying undirected graph, node index); a channel
/// toward the smaller key is "up", toward the larger "down". All up
/// channels precede all down channels; up channels rank by key of their
/// head descending, down channels by key of their tail ascending. On any
/// duplex network every pair has an up-then-down path through the BFS tree,
/// and consecutive channels of such a path strictly increase.
std::vector<std::uint32_t> updown_order(const topo::Network& net,
                                        NodeId root) {
  const std::size_t n = net.node_count();
  std::vector<int> level(n, -1);
  std::vector<NodeId> queue;
  level[root.index()] = 0;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const auto visit = [&](NodeId v) {
      if (level[v.index()] >= 0) return;
      level[v.index()] = level[u.index()] + 1;
      queue.push_back(v);
    };
    for (const ChannelId c : net.channels_from(u)) visit(net.channel(c).dst);
    for (const ChannelId c : net.channels_into(u)) visit(net.channel(c).src);
  }
  const auto key = [&](NodeId x) {
    // Unreached nodes (disconnected graphs) sort last; the verifier will
    // reject the ordering if any pair needed them.
    const int l = level[x.index()] < 0 ? static_cast<int>(n) + 1
                                       : level[x.index()];
    return std::pair(l, x.index());
  };
  std::vector<std::uint32_t> channels(net.channel_count());
  std::iota(channels.begin(), channels.end(), 0u);
  std::sort(channels.begin(), channels.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const topo::Channel& ca = net.channel(ChannelId{a});
              const topo::Channel& cb = net.channel(ChannelId{b});
              const bool up_a = key(ca.dst) < key(ca.src);
              const bool up_b = key(cb.dst) < key(cb.src);
              if (up_a != up_b) return up_a;  // ups first
              if (up_a) {
                // head keys descending, then id for a total order
                if (key(ca.dst) != key(cb.dst))
                  return key(cb.dst) < key(ca.dst);
              } else {
                // tail keys ascending
                if (key(ca.src) != key(cb.src))
                  return key(ca.src) < key(cb.src);
              }
              return a < b;
            });
  std::vector<std::uint32_t> order(net.channel_count());
  for (std::uint32_t rank = 0; rank < channels.size(); ++rank)
    order[channels[rank]] = rank;
  return order;
}

/// Greedy placement: repeatedly place the channel adding the most new
/// (source, node) reach entries. A zero-gain channel can never help by
/// being placed earlier (reach only grows), so when no channel gains the
/// construction is final; the leftovers are appended by id to total the
/// order.
std::vector<std::uint32_t> greedy_order(const Instance& inst) {
  const topo::Network& net = *inst.net;
  const std::size_t c_count = net.channel_count();
  ReachState state(inst);
  std::vector<bool> placed(c_count, false);
  std::vector<std::uint32_t> sequence;
  sequence.reserve(c_count);
  for (;;) {
    std::size_t best = c_count;
    std::size_t best_gain = 0;
    for (std::size_t c = 0; c < c_count; ++c) {
      if (placed[c]) continue;
      const topo::Channel& ch = net.channel(ChannelId{c});
      std::size_t gain = 0;
      for (const Bits& r : state.reach)
        if (r.test(ch.src.index()) && !r.test(ch.dst.index())) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == c_count) break;
    const topo::Channel& ch = net.channel(ChannelId{best});
    for (Bits& r : state.reach)
      if (r.test(ch.src.index())) r.set(ch.dst.index());
    placed[best] = true;
    sequence.push_back(static_cast<std::uint32_t>(best));
  }
  for (std::uint32_t c = 0; c < c_count; ++c)
    if (!placed[c]) sequence.push_back(c);
  std::vector<std::uint32_t> order(c_count);
  for (std::uint32_t rank = 0; rank < sequence.size(); ++rank)
    order[sequence[rank]] = rank;
  return order;
}

// ---------------------------------------------------------------------------
// Exact placement search
// ---------------------------------------------------------------------------

enum class ExactStatus : std::uint8_t { kYes, kNo, kBudget };

struct ExactResult {
  ExactStatus status = ExactStatus::kBudget;
  std::vector<std::uint32_t> order;  ///< kYes only
  std::uint64_t states = 0;
};

/// Depth-first search over placement prefixes. The state is the per-source
/// reach vector; placing channel (a, b) adds b to every source that
/// reaches a. Completeness of gain-only branching: in any witness
/// sequence, placements that add nothing can be deferred past the goal
/// without changing later reach evolution, so some witness places only
/// gainful channels — which is all the search branches on.
class ExactSearch {
 public:
  ExactSearch(const Instance& inst, std::uint64_t max_states)
      : inst_(inst), budget_(max_states), state_(inst) {}

  ExactResult run() {
    ExactResult result;
    const bool found = dfs();
    result.states = states_;
    if (over_budget_) {
      result.status = ExactStatus::kBudget;
    } else if (found) {
      result.status = ExactStatus::kYes;
      const std::size_t c_count = inst_.net->channel_count();
      std::vector<bool> placed(c_count, false);
      for (const std::uint32_t c : sequence_) placed[c] = true;
      std::vector<std::uint32_t> full = sequence_;
      for (std::uint32_t c = 0; c < c_count; ++c)
        if (!placed[c]) full.push_back(c);
      result.order.assign(c_count, 0);
      for (std::uint32_t rank = 0; rank < full.size(); ++rank)
        result.order[full[rank]] = rank;
    } else {
      result.status = ExactStatus::kNo;
    }
    return result;
  }

 private:
  /// Channels still able to complete the demands if the placement-order
  /// constraint is dropped entirely (every unplaced channel usable in any
  /// order): plain reachability closure — an upper bound, so a failed
  /// closure is a sound prune.
  [[nodiscard]] bool optimistic_ok() {
    closure_ = state_.reach;
    const topo::Network& net = *inst_.net;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t c = 0; c < net.channel_count(); ++c) {
        if (placed_[c]) continue;
        const topo::Channel& ch = net.channel(ChannelId{c});
        for (Bits& r : closure_)
          if (r.test(ch.src.index()) && !r.test(ch.dst.index())) {
            r.set(ch.dst.index());
            changed = true;
          }
      }
    }
    for (std::size_t i = 0; i < inst_.pairs.size(); ++i)
      if (!closure_[inst_.source_of_pair[i]].test(
              inst_.pairs[i].dst.index()))
        return false;
    return true;
  }

  /// Memoization with dominance: if this exact reach vector was already
  /// explored from a placed-set that is a subset of the current one, the
  /// earlier visit had at least as many options — prune. Stored placed
  /// sets are kept minimal per reach key.
  [[nodiscard]] bool dominated() {
    key_.clear();
    for (const Bits& r : state_.reach)
      for (const std::uint64_t word : r.w)
        key_.append(reinterpret_cast<const char*>(&word), sizeof word);
    auto [it, inserted] = memo_.try_emplace(key_);
    std::vector<Bits>& entries = it->second;
    if (!inserted) {
      for (const Bits& prior : entries)
        if (prior.subset_of(placed_bits_)) return true;
      std::erase_if(entries,
                    [&](const Bits& prior) { return placed_bits_.subset_of(prior); });
    }
    entries.push_back(placed_bits_);
    return false;
  }

  bool dfs() {
    if (over_budget_) return false;
    if (++states_ > budget_) {
      over_budget_ = true;
      return false;
    }
    if (state_.goal(inst_)) return true;
    if (!optimistic_ok()) return false;
    if (dominated()) return false;

    const topo::Network& net = *inst_.net;
    // Gainful channels, best immediate gain first (id breaks ties so the
    // search — and therefore the certificate — is deterministic).
    std::vector<std::pair<std::size_t, std::uint32_t>> candidates;
    for (std::size_t c = 0; c < net.channel_count(); ++c) {
      if (placed_[c]) continue;
      const topo::Channel& ch = net.channel(ChannelId{c});
      std::size_t gain = 0;
      for (const Bits& r : state_.reach)
        if (r.test(ch.src.index()) && !r.test(ch.dst.index())) ++gain;
      if (gain > 0)
        candidates.emplace_back(gain, static_cast<std::uint32_t>(c));
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                return std::pair(b.first, a.second) <
                       std::pair(a.first, b.second);
              });
    for (const auto& [gain, c] : candidates) {
      const topo::Channel& ch = net.channel(ChannelId{c});
      undo_.clear();
      for (std::size_t s = 0; s < state_.reach.size(); ++s) {
        Bits& r = state_.reach[s];
        if (r.test(ch.src.index()) && !r.test(ch.dst.index())) {
          r.set(ch.dst.index());
          undo_.emplace_back(s, ch.dst.index());
        }
      }
      placed_[c] = true;
      placed_bits_.set(c);
      sequence_.push_back(c);
      const std::vector<std::pair<std::size_t, std::size_t>> undo = undo_;
      if (dfs()) return true;
      sequence_.pop_back();
      placed_bits_.reset(c);
      placed_[c] = false;
      for (const auto& [s, node] : undo) state_.reach[s].reset(node);
      if (over_budget_) return false;
    }
    return false;
  }

  const Instance& inst_;
  std::uint64_t budget_;
  std::uint64_t states_ = 0;
  bool over_budget_ = false;
  ReachState state_;
  std::vector<bool> placed_ =
      std::vector<bool>(inst_.net->channel_count(), false);
  Bits placed_bits_{inst_.net->channel_count()};
  std::vector<std::uint32_t> sequence_;
  std::unordered_map<std::string, std::vector<Bits>> memo_;
  std::vector<Bits> closure_;
  std::vector<std::pair<std::size_t, std::size_t>> undo_;
  std::string key_;
};

ExactResult exact_decide(const topo::Network& net,
                         std::span<const NodePair> pairs,
                         std::uint64_t max_states) {
  const Instance inst = make_instance(net, pairs);
  return ExactSearch(inst, max_states).run();
}

/// Re-checks the greedy obstruction minimization may spend, each an exact
/// search under the caller's max_states.
constexpr std::size_t kMaxObstructionChecks = 64;

}  // namespace

bool verify_order(const topo::Network& net, std::span<const NodePair> pairs,
                  std::span<const std::uint32_t> order) {
  const Instance inst = make_instance(net, pairs);
  return order_satisfies(inst, order);
}

ExistenceCertificate analyze_existence(const topo::Network& net,
                                       std::span<const NodePair> pairs,
                                       const ExistenceOptions& options) {
  const Instance inst = make_instance(net, pairs);
  ExistenceCertificate cert;

  const auto witness = [&](std::vector<std::uint32_t> order,
                           std::string method) {
    cert.verdict = ExistenceVerdict::kExists;
    cert.order = std::move(order);
    cert.method = std::move(method);
    return cert;
  };

  if (inst.pairs.empty())
    return witness(std::vector<std::uint32_t>(net.channel_count(), 0),
                   "identity");

  // A pair with no directed path at all is a one-pair obstruction — no
  // routing of any kind (ordered or not) can serve it.
  for (std::size_t s = 0; s < inst.sources.size(); ++s) {
    const std::vector<int> dist = net.distances_from(inst.sources[s]);
    for (std::size_t i = 0; i < inst.pairs.size(); ++i) {
      if (inst.source_of_pair[i] != s) continue;
      if (dist[inst.pairs[i].dst.index()] < 0) {
        cert.verdict = ExistenceVerdict::kNotExists;
        cert.method = "unreachable";
        cert.obstruction.core = {inst.pairs[i]};
        cert.obstruction.minimized = true;
        return cert;
      }
    }
  }

  if (options.hint_order.size() == net.channel_count() &&
      order_satisfies(inst, options.hint_order))
    return witness(options.hint_order, "hint");

  {
    std::vector<std::uint32_t> identity(net.channel_count());
    std::iota(identity.begin(), identity.end(), 0u);
    if (order_satisfies(inst, identity))
      return witness(std::move(identity), "identity");
  }

  if (net.node_count() > 0) {
    std::vector<NodeId> roots;
    roots.push_back(NodeId{0});
    std::size_t best_degree = 0;
    NodeId best = NodeId{0};
    for (const NodeId n : net.nodes()) {
      const std::size_t degree =
          net.channels_from(n).size() + net.channels_into(n).size();
      if (degree > best_degree) {
        best_degree = degree;
        best = n;
      }
    }
    if (best != roots[0]) roots.push_back(best);
    const NodeId last{static_cast<std::uint32_t>(net.node_count() - 1)};
    if (last != roots[0] && (roots.size() < 2 || last != roots[1]))
      roots.push_back(last);
    for (const NodeId root : roots) {
      std::vector<std::uint32_t> order = updown_order(net, root);
      if (order_satisfies(inst, order))
        return witness(std::move(order),
                       "updown-root" + std::to_string(root.index()));
    }
  }

  {
    std::vector<std::uint32_t> order = greedy_order(inst);
    if (order_satisfies(inst, order))
      return witness(std::move(order), "greedy");
  }

  ExactResult exact = exact_decide(net, inst.pairs, options.max_states);
  cert.states_searched = exact.states;
  switch (exact.status) {
    case ExactStatus::kYes:
      return witness(std::move(exact.order), "exact");
    case ExactStatus::kBudget:
      cert.verdict = ExistenceVerdict::kInconclusive;
      cert.method = "exact";
      return cert;
    case ExactStatus::kNo:
      break;
  }

  cert.verdict = ExistenceVerdict::kNotExists;
  cert.method = "exact";
  cert.obstruction.core = inst.pairs;
  cert.obstruction.states_searched = exact.states;
  cert.obstruction.minimized = true;
  std::size_t checks = 0;
  std::size_t i = 0;
  while (i < cert.obstruction.core.size() &&
         cert.obstruction.core.size() > 1) {
    if (checks >= kMaxObstructionChecks) {
      cert.obstruction.minimized = false;
      break;
    }
    std::vector<NodePair> trial = cert.obstruction.core;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    const ExactResult sub = exact_decide(net, trial, options.max_states);
    ++checks;
    cert.obstruction.states_searched += sub.states;
    if (sub.status == ExactStatus::kNo)
      cert.obstruction.core = std::move(trial);  // still refused: drop it
    else
      ++i;  // needed (or undecidable within budget): keep it
  }
  return cert;
}

std::vector<NodePair> all_pairs(const topo::Network& net) {
  std::vector<NodePair> pairs;
  for (const NodeId s : net.nodes())
    for (const NodeId d : net.nodes())
      if (s != d) pairs.push_back({s, d});
  return pairs;
}

std::vector<NodePair> terminal_pairs(std::span<const NodeId> terminals) {
  std::vector<NodePair> pairs;
  for (const NodeId s : terminals)
    for (const NodeId d : terminals)
      if (s != d) pairs.push_back({s, d});
  return pairs;
}

std::vector<NodePair> canonical_pairs(const topo::Network& net,
                                      std::span<const NodePair> pairs) {
  std::vector<NodePair> unique;
  for (const NodePair& p : pairs) {
    WORMSIM_EXPECTS(p.src.valid() && p.dst.valid());
    WORMSIM_EXPECTS(p.src.index() < net.node_count() &&
                    p.dst.index() < net.node_count());
    if (p.src == p.dst) continue;
    unique.push_back(p);
  }
  std::sort(unique.begin(), unique.end(), [](const NodePair& a,
                                             const NodePair& b) {
    return std::pair(a.src.index(), a.dst.index()) <
           std::pair(b.src.index(), b.dst.index());
  });
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  return unique;
}

const char* to_string(ExistenceVerdict verdict) {
  switch (verdict) {
    case ExistenceVerdict::kExists: return "exists";
    case ExistenceVerdict::kNotExists: return "not-exists";
    case ExistenceVerdict::kInconclusive: return "inconclusive";
  }
  WORMSIM_UNREACHABLE("bad ExistenceVerdict");
}

}  // namespace wormsim::synth
