#include "synth/synthesize.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "cdg/cdg.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace wormsim::synth {

namespace {

/// Distance to `dst` from every node (BFS over reversed channels), for
/// pruning the simple-path enumeration.
std::vector<int> distances_to(const topo::Network& net, NodeId dst) {
  std::vector<int> dist(net.node_count(), -1);
  std::vector<NodeId> queue;
  dist[dst.index()] = 0;
  queue.push_back(dst);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const ChannelId c : net.channels_into(u)) {
      const NodeId v = net.channel(c).src;
      if (dist[v.index()] >= 0) continue;
      dist[v.index()] = dist[u.index()] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

// ---------------------------------------------------------------------------
// Cyclic backtracking search
// ---------------------------------------------------------------------------

/// Candidate simple paths kept per pair (shortest first), and the hops a
/// candidate may exceed the pair's shortest distance by.
constexpr std::size_t kMaxPathsPerPair = 6;
constexpr std::size_t kMaxPathSlack = 2;
/// Backtracking steps (pair/path decisions) the search may take — bounds it
/// even when consistency conflicts keep it from ever completing an
/// assignment.
constexpr std::uint64_t kMaxSearchSteps = 200'000;
/// The search is skipped on networks with more nodes than this (the
/// verifier's exhaustive search dominates the cost; the paper's figure
/// networks fit, datacenter fabrics do not) ...
constexpr std::size_t kMaxCyclicNodes = 32;
/// ... and on demands with more pairs than this: every cyclic candidate is
/// verified by an exhaustive search whose probe multiset grows with the
/// pair count.
constexpr std::size_t kMaxCyclicPairs = 16;

/// Searches pair -> path assignments for a table whose CDG is cyclic but
/// whose cycles the exhaustive deadlock search proves unreachable. The
/// routing-function property is maintained incrementally: an assignment may
/// only extend, never contradict, the accumulated (input channel,
/// destination) -> output channel map.
class CyclicSearch {
 public:
  CyclicSearch(const topo::Network& net, std::vector<NodePair> pairs,
               const SynthesisOptions& options)
      : net_(net), pairs_(std::move(pairs)), options_(options) {
    candidates_.resize(pairs_.size());
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      candidates_[i] =
          enumerate_paths(net_, pairs_[i], kMaxPathsPerPair, kMaxPathSlack);
      for (auto it = options_.seed_paths.rbegin();
           it != options_.seed_paths.rend(); ++it) {
        if (it->src != pairs_[i].src || it->dst != pairs_[i].dst) continue;
        std::erase(candidates_[i], it->channels);
        candidates_[i].insert(candidates_[i].begin(), it->channels);
      }
    }
    // Fewest options first (most constrained pair); stable, so equal counts
    // keep pair order and the search stays deterministic.
    pair_order_.resize(pairs_.size());
    std::iota(pair_order_.begin(), pair_order_.end(), std::size_t{0});
    std::stable_sort(pair_order_.begin(), pair_order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return candidates_[a].size() < candidates_[b].size();
                     });
    chosen_.assign(pairs_.size(), 0);
  }

  struct Outcome {
    std::unique_ptr<routing::PathTable> cyclic;      ///< verified cyclic
    std::optional<std::vector<std::size_t>> acyclic; ///< first acyclic assignment
    std::uint64_t assignments = 0;
  };

  Outcome run() {
    dfs(0);
    Outcome out;
    out.assignments = assignments_;
    out.cyclic = std::move(cyclic_table_);
    out.acyclic = std::move(acyclic_choice_);
    return out;
  }

  [[nodiscard]] std::unique_ptr<routing::PathTable> build_table(
      std::span<const std::size_t> choice, std::string name) const {
    auto table = std::make_unique<routing::PathTable>(net_, std::move(name));
    for (std::size_t i = 0; i < pairs_.size(); ++i)
      table->add_path({pairs_[i].src, pairs_[i].dst,
                       candidates_[i][choice[i]]});
    return table;
  }

 private:
  static std::uint64_t key(ChannelId in, NodeId dst) {
    return (std::uint64_t{in.value()} << 32) | dst.value();
  }

  bool dfs(std::size_t depth) {
    if (done_) return cyclic_table_ != nullptr;
    if (++steps_ > kMaxSearchSteps) {
      done_ = true;
      return false;
    }
    if (depth == pair_order_.size()) return try_complete();
    const std::size_t i = pair_order_[depth];
    for (std::size_t k = 0; k < candidates_[i].size(); ++k) {
      const std::vector<ChannelId>& path = candidates_[i][k];
      std::vector<std::uint64_t> added;
      bool ok = true;
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const std::uint64_t dep = key(path[h], pairs_[i].dst);
        const auto [it, inserted] = next_.try_emplace(dep, path[h + 1]);
        if (inserted) {
          added.push_back(dep);
        } else if (it->second != path[h + 1]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        chosen_[i] = k;
        if (dfs(depth + 1)) return true;
      }
      for (const std::uint64_t dep : added) next_.erase(dep);
      if (done_) return false;
    }
    return false;
  }

  bool try_complete() {
    if (assignments_ >= options_.max_assignments) {
      done_ = true;
      return false;
    }
    ++assignments_;
    const std::unique_ptr<routing::PathTable> table =
        build_table(chosen_, "synth-candidate");
    const cdg::ChannelDependencyGraph graph =
        cdg::ChannelDependencyGraph::build(*table);
    if (graph.acyclic()) {
      if (!acyclic_choice_)
        acyclic_choice_ = std::vector<std::size_t>(chosen_.begin(),
                                                   chosen_.end());
      return false;  // keep hunting for a verified cyclic table
    }
    const core::AlgorithmAnalysis analysis = core::analyze_algorithm(*table);
    if (analysis.verdict == core::CycleVerdict::kFalseResourceCycle) {
      cyclic_table_ = build_table(chosen_, "synth-cyclic");
      done_ = true;
      return true;
    }
    return false;  // deadlock reachable (or inconclusive): backtrack
  }

  const topo::Network& net_;
  std::vector<NodePair> pairs_;
  const SynthesisOptions& options_;
  std::vector<std::vector<std::vector<ChannelId>>> candidates_;
  std::vector<std::size_t> pair_order_;
  std::vector<std::size_t> chosen_;
  std::unordered_map<std::uint64_t, ChannelId> next_;
  std::unique_ptr<routing::PathTable> cyclic_table_;
  std::optional<std::vector<std::size_t>> acyclic_choice_;
  std::uint64_t assignments_ = 0;
  std::uint64_t steps_ = 0;
  bool done_ = false;
};

}  // namespace

std::vector<std::vector<ChannelId>> enumerate_paths(const topo::Network& net,
                                                    NodePair pair,
                                                    std::size_t max_paths,
                                                    std::size_t max_slack) {
  std::vector<std::vector<ChannelId>> paths;
  if (pair.src == pair.dst || max_paths == 0) return paths;
  const std::vector<int> to_dst = distances_to(net, pair.dst);
  if (to_dst[pair.src.index()] < 0) return paths;
  const std::size_t shortest =
      static_cast<std::size_t>(to_dst[pair.src.index()]);
  const std::size_t max_len = shortest + max_slack;

  // Enumerate by exact length, shortest first; within a length the DFS
  // visits channels in id order, so paths come out in (length,
  // lexicographic) order and the first `max_paths` are kept without ever
  // materializing the full (possibly exponential) path set. `steps` caps
  // the walk on dense multigraphs.
  std::vector<ChannelId> stack;
  std::vector<bool> visited(net.node_count(), false);
  std::size_t steps = 0;
  constexpr std::size_t kMaxSteps = 200'000;

  const auto dfs = [&](auto&& self, NodeId at, std::size_t len) -> void {
    if (paths.size() >= max_paths || ++steps > kMaxSteps) return;
    if (at == pair.dst) {
      // Routes end at the first visit to the destination (the message is
      // consumed there), so only exact-length hits count.
      if (stack.size() == len) paths.push_back(stack);
      return;
    }
    for (const ChannelId c : net.channels_from(at)) {
      const NodeId to = net.channel(c).dst;
      if (visited[to.index()]) continue;
      if (to_dst[to.index()] < 0 ||
          stack.size() + 1 + static_cast<std::size_t>(to_dst[to.index()]) >
              len)
        continue;
      visited[to.index()] = true;
      stack.push_back(c);
      self(self, to, len);
      stack.pop_back();
      visited[to.index()] = false;
      if (paths.size() >= max_paths || steps > kMaxSteps) return;
    }
  };
  for (std::size_t len = shortest;
       len <= max_len && paths.size() < max_paths && steps <= kMaxSteps;
       ++len) {
    visited.assign(net.node_count(), false);
    visited[pair.src.index()] = true;
    dfs(dfs, pair.src, len);
  }
  return paths;
}

std::unique_ptr<routing::PathTable> table_from_order(
    const topo::Network& net, std::span<const NodePair> pairs,
    std::span<const std::uint32_t> order) {
  WORMSIM_EXPECTS(order.size() == net.channel_count());
  WORMSIM_EXPECTS(verify_order(net, pairs, order));
  const std::vector<NodePair> unique = canonical_pairs(net, pairs);

  // Refine the (possibly tied) ranking into a strict permutation by
  // (rank, id); strictly order-increasing paths stay strictly increasing.
  const std::size_t c_count = net.channel_count();
  std::vector<std::uint32_t> by_rank(c_count);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::pair(order[a], a) < std::pair(order[b], b);
            });
  std::vector<std::uint32_t> rank(c_count);
  for (std::uint32_t pos = 0; pos < c_count; ++pos) rank[by_rank[pos]] = pos;

  auto table = std::make_unique<routing::PathTable>(net, "synth-ordered");

  std::vector<NodeId> dsts;
  for (const NodePair& p : unique)
    if (dsts.empty() || dsts.back() != p.dst) dsts.push_back(p.dst);
  std::sort(dsts.begin(), dsts.end());
  dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());

  // Per destination: hops[c] = length of the shortest strictly
  // rank-increasing path to d starting with channel c (-1 if none), and
  // next_hop[c] = its continuation. Processing channels in descending rank
  // makes every continuation available when needed.
  std::vector<int> hops(c_count);
  std::vector<ChannelId> next_hop(c_count);
  for (const NodeId d : dsts) {
    std::fill(hops.begin(), hops.end(), -1);
    std::fill(next_hop.begin(), next_hop.end(), ChannelId::invalid());
    for (std::size_t pos = c_count; pos-- > 0;) {
      const std::uint32_t c = by_rank[pos];
      const topo::Channel& ch = net.channel(ChannelId{c});
      if (ch.dst == d) {
        hops[c] = 1;
        continue;
      }
      int best = -1;
      ChannelId best_next = ChannelId::invalid();
      for (const ChannelId succ : net.channels_from(ch.dst)) {
        if (rank[succ.index()] <= rank[c]) continue;
        const int tail = hops[succ.index()];
        if (tail < 0) continue;
        if (best < 0 || tail + 1 < best ||
            (tail + 1 == best &&
             rank[succ.index()] < rank[best_next.index()])) {
          best = tail + 1;
          best_next = succ;
        }
      }
      hops[c] = best;
      next_hop[c] = best_next;
    }
    for (const NodePair& p : unique) {
      if (p.dst != d) continue;
      int best = -1;
      ChannelId first = ChannelId::invalid();
      for (const ChannelId c : net.channels_from(p.src)) {
        const int len = hops[c.index()];
        if (len < 0) continue;
        if (best < 0 || len < best ||
            (len == best && rank[c.index()] < rank[first.index()])) {
          best = len;
          first = c;
        }
      }
      // verify_order passed, so an increasing path exists for every pair.
      WORMSIM_ASSERT_MSG(first.valid(),
                         "verified ordering lost a pair in compilation");
      routing::PathSpec spec{p.src, p.dst, {}};
      for (ChannelId c = first; c.valid(); c = next_hop[c.index()]) {
        spec.channels.push_back(c);
        if (net.channel(c).dst == d) break;
      }
      table->add_path(spec);
    }
  }
  return table;
}

bool simulate_clean(const routing::RoutingAlgorithm& alg,
                    std::span<const NodePair> pairs, std::uint32_t length,
                    std::uint64_t max_cycles) {
  const sim::FifoArbitration fifo;
  sim::SimConfig config;
  config.buffer_depth = 1;
  config.max_cycles = max_cycles;
  sim::WormholeSimulator simulator(alg, config, fifo);
  std::size_t added = 0;
  for (const NodePair& p : canonical_pairs(alg.net(), pairs)) {
    if (!alg.routes(p.src, p.dst)) return false;
    sim::MessageSpec spec;
    spec.src = p.src;
    spec.dst = p.dst;
    spec.length = length;
    simulator.add_message(std::move(spec));
    ++added;
  }
  if (added == 0) return true;
  return simulator.run().outcome == sim::RunOutcome::kAllConsumed;
}

SynthesisResult synthesize(const topo::Network& net,
                           std::span<const NodePair> pairs,
                           const SynthesisOptions& options) {
  SynthesisResult result;
  result.existence = analyze_existence(net, pairs, options.existence);
  const std::vector<NodePair> unique = canonical_pairs(net, pairs);

  std::optional<CyclicSearch::Outcome> cyclic;
  if (options.goal == SynthesisGoal::kPreferCyclic && !unique.empty() &&
      net.node_count() <= kMaxCyclicNodes && unique.size() <= kMaxCyclicPairs) {
    CyclicSearch search(net, unique, options);
    cyclic = search.run();
    result.assignments_tried = cyclic->assignments;
    if (cyclic->cyclic) {
      result.kind = TableKind::kCyclicVerified;
      result.table = std::move(cyclic->cyclic);
      result.verdict = core::CycleVerdict::kFalseResourceCycle;
      result.cdg_cyclic = true;
      result.note = "verified cyclic-CDG table (false resource cycles)";
      return result;
    }
  }

  if (result.existence.verdict == ExistenceVerdict::kExists) {
    result.table = table_from_order(net, unique, result.existence.order);
    const core::AlgorithmAnalysis analysis =
        core::analyze_algorithm(*result.table);
    result.kind = TableKind::kAcyclicCertified;
    result.verdict = analysis.verdict;
    result.cdg_cyclic = analysis.cyclic_scc_count > 0;
    result.note = "ordering-derived acyclic-CDG table (method " +
                  result.existence.method + ")";
    return result;
  }

  if (cyclic && cyclic->acyclic) {
    // The exact analyzer could not certify an ordering, yet a complete
    // assignment with an acyclic CDG exists (possible only under
    // kInconclusive — an acyclic table *implies* an ordering).
    CyclicSearch search(net, unique, options);
    result.table = search.build_table(*cyclic->acyclic, "synth-acyclic");
    const core::AlgorithmAnalysis analysis =
        core::analyze_algorithm(*result.table);
    result.kind = TableKind::kAcyclicCertified;
    result.verdict = analysis.verdict;
    result.cdg_cyclic = analysis.cyclic_scc_count > 0;
    result.note = "acyclic-CDG table found by path search";
    return result;
  }

  result.kind = TableKind::kNone;
  result.note =
      result.existence.verdict == ExistenceVerdict::kNotExists
          ? "no robust routing exists (obstruction core of " +
                std::to_string(result.existence.obstruction.core.size()) +
                " pairs) and no cyclic table verified"
          : "existence undecided within budget and no table verified";
  return result;
}

const char* to_string(SynthesisGoal goal) {
  switch (goal) {
    case SynthesisGoal::kRobustAcyclic: return "robust-acyclic";
    case SynthesisGoal::kPreferCyclic: return "prefer-cyclic";
  }
  WORMSIM_UNREACHABLE("bad SynthesisGoal");
}

const char* to_string(TableKind kind) {
  switch (kind) {
    case TableKind::kNone: return "none";
    case TableKind::kAcyclicCertified: return "acyclic-certified";
    case TableKind::kCyclicVerified: return "cyclic-verified";
  }
  WORMSIM_UNREACHABLE("bad TableKind");
}

}  // namespace wormsim::synth
