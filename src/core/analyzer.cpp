#include "core/analyzer.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/cyclic_family.hpp"

namespace wormsim::core {

std::vector<sim::MessageSpec> derive_probe_messages(
    const routing::RoutingAlgorithm& alg,
    const cdg::ChannelDependencyGraph& g) {
  // Channels inside any cyclic SCC.
  std::unordered_set<std::uint32_t> cyclic_channels;
  for (const auto& scc : g.cyclic_sccs())
    for (const ChannelId c : scc) cyclic_channels.insert(c.value());
  if (cyclic_channels.empty()) return {};

  // Witness pairs whose routes touch those channels, deduplicated.
  std::unordered_set<std::uint64_t> seen;
  std::vector<sim::MessageSpec> specs;
  for (const ChannelId c : g.net().channel_ids()) {
    if (!cyclic_channels.contains(c.value())) continue;
    for (const ChannelId succ : g.successors(c)) {
      for (const cdg::Witness& w : g.witnesses(c, succ)) {
        const std::uint64_t key =
            (std::uint64_t{w.src.value()} << 32) | w.dst.value();
        if (!seen.insert(key).second) continue;
        const auto path = routing::trace_path(alg, w.src, w.dst);
        WORMSIM_ASSERT(path.has_value());
        const auto in_cycle = static_cast<std::uint32_t>(std::count_if(
            path->begin(), path->end(), [&](ChannelId pc) {
              return cyclic_channels.contains(pc.value());
            }));
        // The minimum length that lets this message hold all its in-cycle
        // channels except the one it is blocked on (the paper's worst
        // case); at least 1.
        sim::MessageSpec spec;
        spec.src = w.src;
        spec.dst = w.dst;
        spec.length = std::max(1u, in_cycle > 0 ? in_cycle - 1 : 0u);
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

AlgorithmAnalysis analyze_algorithm(const routing::RoutingAlgorithm& alg,
                                    const analysis::SearchLimits& limits) {
  AlgorithmAnalysis result;
  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  result.cdg_edges = graph.edge_count();
  const auto sccs = graph.cyclic_sccs();
  result.cyclic_scc_count = sccs.size();

  if (sccs.empty()) {
    result.verdict = CycleVerdict::kAcyclicCdg;
    result.numbering = graph.topological_numbering();
    WORMSIM_ASSERT(result.numbering.has_value());
    return result;
  }
  result.elementary_cycle_count = graph.elementary_cycles().size();

  result.probe_messages = derive_probe_messages(alg, graph);
  result.search = analysis::find_deadlock(alg, result.probe_messages,
                                          analysis::AdversaryModel::kSynchronous,
                                          limits);

  if (result.search.deadlock_found)
    result.verdict = CycleVerdict::kDeadlockReachable;
  else if (result.search.exhausted)
    result.verdict = CycleVerdict::kFalseResourceCycle;
  else
    result.verdict = CycleVerdict::kInconclusive;
  return result;
}

FamilyProbeResult probe_family_deadlock(const CyclicFamily& family,
                                        analysis::SearchLimits limits) {
  FamilyProbeResult result;
  const auto base = family.message_specs();

  auto attempt = [&](std::span<const sim::MessageSpec> specs)
      -> analysis::DeadlockSearchResult {
    auto search = analysis::find_deadlock(
        family.algorithm(), specs, analysis::AdversaryModel::kSynchronous,
        limits);
    result.total_states += search.states_explored;
    if (!search.exhausted) result.exhausted = false;
    return search;
  };

  result.search = attempt(base);
  if (result.search.deadlock_found) {
    result.deadlock_found = true;
    return result;
  }

  // The paper's necessity constructions interpose extra messages "long
  // enough" to keep blocking a victim at its ring entry while the others
  // position themselves (Assumption 1: arbitrary lengths, any rate). The
  // search adversary may leave any pending message uninjected at no cost,
  // so adding an auxiliary copy of *every* ring message to one search
  // subsumes searching each subset of those auxiliaries. The useful length
  // of a c_s-sharing auxiliary is bounded: a worm longer than its own path
  // parks its tail in c_s and starves the network it is supposed to
  // choreograph, so the longest drain windows come from lengths near the
  // path length.
  for (const int delta : {-1, 0, -2, -3}) {
    std::vector<sim::MessageSpec> probe = base;
    for (std::size_t i = 0; i < base.size(); ++i) {
      const auto path_len =
          static_cast<int>(family.messages()[i].path.size());
      const int len = path_len + delta;
      if (len <= static_cast<int>(base[i].length)) continue;
      sim::MessageSpec aux = base[i];
      aux.length = static_cast<std::uint32_t>(len);
      probe.push_back(aux);
    }
    if (probe.size() == base.size()) continue;
    auto search = attempt(probe);
    if (search.deadlock_found) {
      result.deadlock_found = true;
      result.auxiliary_index = static_cast<std::size_t>(delta + 8);
      result.search = std::move(search);
      return result;
    }
  }

  // Some constructions need a *chain* of drains — two copies of the same
  // message, the second extending the blocking window the first opened
  // (the proof's "messages interposed ... can be used to provide the
  // necessary additional channels"). Probe, for each ring message, the
  // base multiset plus two long copies of it together with single long
  // copies of everything else.
  for (const int delta : {0, -1}) {
    for (std::size_t doubled = 0; doubled < base.size(); ++doubled) {
      std::vector<sim::MessageSpec> probe = base;
      for (std::size_t i = 0; i < base.size(); ++i) {
        const auto path_len =
            static_cast<int>(family.messages()[i].path.size());
        const int len = path_len + delta;
        if (len <= static_cast<int>(base[i].length)) continue;
        sim::MessageSpec aux = base[i];
        aux.length = static_cast<std::uint32_t>(len);
        probe.push_back(aux);
        if (i == doubled) probe.push_back(aux);
      }
      if (probe.size() <= base.size() + 1) continue;
      auto search = attempt(probe);
      if (search.deadlock_found) {
        result.deadlock_found = true;
        result.auxiliary_index = doubled;
        result.search = std::move(search);
        return result;
      }
    }
  }
  return result;
}

const char* to_string(CycleVerdict verdict) {
  switch (verdict) {
    case CycleVerdict::kAcyclicCdg: return "acyclic-cdg";
    case CycleVerdict::kFalseResourceCycle: return "false-resource-cycle";
    case CycleVerdict::kDeadlockReachable: return "deadlock-reachable";
    case CycleVerdict::kInconclusive: return "inconclusive";
  }
  WORMSIM_UNREACHABLE("bad CycleVerdict");
}

}  // namespace wormsim::core
