#include "sim/workloads.hpp"

#include <algorithm>
#include <bit>

#include "sim/simulator.hpp"

namespace wormsim::sim {

namespace {

NodeId pick_destination(TrafficPattern pattern, NodeId src, std::size_t n,
                        const topo::Grid* grid, double hotspot_fraction,
                        util::Rng& rng) {
  switch (pattern) {
    case TrafficPattern::kUniformRandom: {
      auto d = NodeId{rng.below(n)};
      return d;
    }
    case TrafficPattern::kTranspose: {
      const auto c = grid->coords_of(src);
      const int swapped[2] = {c[1], c[0]};
      return grid->node_at(swapped);
    }
    case TrafficPattern::kBitReversal: {
      const int bits = std::countr_zero(n);
      std::size_t v = src.index(), r = 0;
      for (int b = 0; b < bits; ++b) {
        r = (r << 1) | (v & 1);
        v >>= 1;
      }
      return NodeId{r};
    }
    case TrafficPattern::kHotspot: {
      if (rng.chance(hotspot_fraction)) return NodeId{std::size_t{0}};
      return NodeId{rng.below(n)};
    }
  }
  WORMSIM_UNREACHABLE("bad TrafficPattern");
}

std::vector<MessageSpec> generate(const topo::Network& net,
                                  const topo::Grid* grid,
                                  const WorkloadConfig& config) {
  WORMSIM_EXPECTS(config.injection_rate >= 0 && config.injection_rate <= 1);
  WORMSIM_EXPECTS(config.message_length >= 1);
  // Pattern preconditions are checked up front — not lazily inside
  // pick_destination — so a misconfigured workload fails on the first call
  // even when no injection trial fires (e.g. injection_rate 0 or an
  // improbable seed), instead of aborting mid-experiment later.
  WORMSIM_EXPECTS_MSG(config.pattern != TrafficPattern::kTranspose ||
                          (grid != nullptr && grid->spec().dimensions() == 2 &&
                           grid->spec().dims[0] == grid->spec().dims[1]),
                      "transpose needs a square 2-D grid");
  WORMSIM_EXPECTS_MSG(config.pattern != TrafficPattern::kBitReversal ||
                          std::has_single_bit(net.node_count()),
                      "bit reversal needs a power-of-2 node count");
  util::Rng rng(config.seed);
  std::vector<MessageSpec> specs;
  const std::size_t n = net.node_count();
  for (Cycle t = 0; t < config.horizon; ++t) {
    for (std::size_t node = 0; node < n; ++node) {
      if (!rng.chance(config.injection_rate)) continue;
      const NodeId src{node};
      const NodeId dst = pick_destination(config.pattern, src, n, grid,
                                          config.hotspot_fraction, rng);
      if (dst == src) continue;  // self-addressed trial: skip
      specs.push_back(MessageSpec{src, dst, config.message_length, t});
    }
  }
  std::stable_sort(specs.begin(), specs.end(),
                   [](const MessageSpec& a, const MessageSpec& b) {
                     return a.release_time < b.release_time;
                   });
  return specs;
}

}  // namespace

std::vector<MessageSpec> generate_workload(const topo::Grid& grid,
                                           const WorkloadConfig& config) {
  return generate(grid.net(), &grid, config);
}

std::vector<MessageSpec> generate_workload(const topo::Network& net,
                                           const WorkloadConfig& config) {
  WORMSIM_EXPECTS_MSG(config.pattern == TrafficPattern::kUniformRandom ||
                          config.pattern == TrafficPattern::kHotspot,
                      "permutation patterns need grid coordinates");
  return generate(net, nullptr, config);
}

std::vector<MessageSpec> generate_workload(std::span<const NodeId> terminals,
                                           const WorkloadConfig& config) {
  WORMSIM_EXPECTS(config.injection_rate >= 0 && config.injection_rate <= 1);
  WORMSIM_EXPECTS(config.message_length >= 1);
  WORMSIM_EXPECTS_MSG(!terminals.empty(), "no terminals to inject from");
  const std::size_t n = terminals.size();
  // Permutation preconditions up front (see the grid generator's rationale):
  // a fabric whose terminal count does not fit the pattern must fail before
  // the first trial, not mid-sweep.
  std::size_t side = 0;
  if (config.pattern == TrafficPattern::kTranspose) {
    while ((side + 1) * (side + 1) <= n) ++side;
    WORMSIM_EXPECTS_MSG(side * side == n,
                        "transpose needs a square terminal count");
  }
  WORMSIM_EXPECTS_MSG(config.pattern != TrafficPattern::kBitReversal ||
                          std::has_single_bit(n),
                      "bit reversal needs a power-of-2 terminal count");

  util::Rng rng(config.seed);
  std::vector<MessageSpec> specs;
  for (Cycle t = 0; t < config.horizon; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.chance(config.injection_rate)) continue;
      std::size_t j = i;
      switch (config.pattern) {
        case TrafficPattern::kUniformRandom:
          j = rng.below(n);
          break;
        case TrafficPattern::kTranspose:
          j = (i % side) * side + i / side;
          break;
        case TrafficPattern::kBitReversal: {
          const int bits = std::countr_zero(n);
          std::size_t v = i, r = 0;
          for (int b = 0; b < bits; ++b) {
            r = (r << 1) | (v & 1);
            v >>= 1;
          }
          j = r;
          break;
        }
        case TrafficPattern::kHotspot:
          j = rng.chance(config.hotspot_fraction) ? 0 : rng.below(n);
          break;
      }
      if (j == i) continue;  // self-addressed trial: skip
      specs.push_back(
          MessageSpec{terminals[i], terminals[j], config.message_length, t});
    }
  }
  std::stable_sort(specs.begin(), specs.end(),
                   [](const MessageSpec& a, const MessageSpec& b) {
                     return a.release_time < b.release_time;
                   });
  return specs;
}

WorkloadStats summarize_workload(const WormholeSimulator& sim, Cycle cycles) {
  WorkloadStats stats;
  stats.offered = sim.message_count();
  double total_latency = 0;
  for (std::size_t i = 0; i < sim.message_count(); ++i) {
    const MessageId id{i};
    const MessageStats& ms = sim.stats(id);
    const MessageStatus st = sim.status(id);
    if (st == MessageStatus::kDelivered || st == MessageStatus::kConsumed) {
      ++stats.delivered;
      const double latency =
          static_cast<double>(ms.deliver_cycle - ms.inject_cycle);
      total_latency += latency;
      stats.max_latency = std::max(stats.max_latency, latency);
    }
  }
  if (stats.delivered > 0)
    stats.mean_latency = total_latency / static_cast<double>(stats.delivered);
  if (cycles > 0) {
    stats.throughput_flits_per_cycle =
        static_cast<double>(sim.flits_moved()) / static_cast<double>(cycles);
    double total_busy = 0;
    for (const ChannelId c : sim.net().channel_ids()) {
      const double share = static_cast<double>(sim.channel_busy_cycles(c)) /
                           static_cast<double>(cycles);
      total_busy += share;
      if (share > stats.max_channel_utilization) {
        stats.max_channel_utilization = share;
        stats.hottest_channel = c;
      }
    }
    stats.mean_channel_utilization =
        total_busy / static_cast<double>(sim.net().channel_count());
  }
  return stats;
}

}  // namespace wormsim::sim
