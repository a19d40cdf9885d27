// wormsim_saturation — offered-load vs. accepted-throughput/latency sweeps
// on datacenter-scale fabrics, driven by the simulator's event-driven run().
//
// For each offered load (injection probability per terminal per cycle) the
// tool generates an open-loop workload on the fabric's terminals, runs it
// to drain, and records accepted throughput, latency, channel utilization,
// and run()'s event-core introspection counters. The sweep lands in
// BENCH_saturation.json (obs::RunReport; gated by tools/bench_compare.py —
// the simulation is deterministic, so everything except wall-clock is
// byte-reproducible from the command line). It exits 2 on a usage error or
// when the report cannot be written.
//
// `--help` lists every flag.
//
// The heartbeat (--status-file) publishes "wormsim-status-v7" snapshots of
// kind "saturation": progress counts sweep points and the `sim` object
// mirrors the most recently finished simulation's event-core stats. The
// snapshot is updated between sweep points only, so the sampler thread
// never reads a live simulator.
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "obs/run_report.hpp"
#include "obs/status.hpp"
#include "routing/datacenter.hpp"
#include "routing/table_io.hpp"
#include "sim/arbitration.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"
#include "topo/builders.hpp"
#include "topo/datacenter.hpp"
#include "util/assert.hpp"

using namespace wormsim;

namespace {

enum class Topology { kFatTree, kDragonfly, kFullMesh };

struct Options {
  Topology topology = Topology::kFatTree;
  int k = 16;
  topo::DragonflySpec dragonfly;
  int nodes = 64;
  sim::TrafficPattern pattern = sim::TrafficPattern::kUniformRandom;
  std::vector<double> loads = {0.002, 0.005, 0.01, 0.02, 0.04, 0.08};
  std::uint32_t length = 8;
  sim::Cycle horizon = 300;
  sim::Cycle drain = 50'000;
  std::uint64_t seed = 1;
  std::string routing_file;
  std::string report_name = "saturation";
  std::string status_file;
  double status_interval = 1.0;
  bool quiet = false;
};

/// The fabric under test: owns the topology and algorithm, exposes the
/// terminal list traffic may use.
struct Fabric {
  std::unique_ptr<topo::FatTree> fattree;
  std::unique_ptr<topo::Dragonfly> dragonfly;
  std::unique_ptr<topo::Network> fullmesh;
  std::unique_ptr<routing::RoutingAlgorithm> alg;
  std::vector<NodeId> terminals;
  std::string label;
};

Fabric build_fabric(const Options& opt) {
  Fabric f;
  if (opt.topology == Topology::kFatTree) {
    f.fattree = std::make_unique<topo::FatTree>(opt.k);
    f.alg = std::make_unique<routing::FatTreeUpDown>(*f.fattree);
    f.terminals.assign(f.fattree->hosts().begin(), f.fattree->hosts().end());
    f.label = "fattree-k" + std::to_string(opt.k);
  } else if (opt.topology == Topology::kDragonfly) {
    const topo::DragonflySpec& spec = opt.dragonfly;
    f.dragonfly = std::make_unique<topo::Dragonfly>(spec);
    f.alg = std::make_unique<routing::DragonflyMinimal>(*f.dragonfly);
    f.terminals.assign(f.dragonfly->terminals().begin(),
                       f.dragonfly->terminals().end());
    f.label = "dragonfly-a" + std::to_string(spec.routers_per_group) + "h" +
              std::to_string(spec.global_links) + "g" +
              std::to_string(spec.groups) + "p" +
              std::to_string(spec.terminals_per_router);
  } else {
    f.fullmesh =
        std::make_unique<topo::Network>(topo::make_complete(opt.nodes));
    f.alg = std::make_unique<routing::CompleteDirect>(*f.fullmesh);
    for (const NodeId n : f.fullmesh->nodes()) f.terminals.push_back(n);
    f.label = "fullmesh-n" + std::to_string(opt.nodes);
  }
  return f;
}

/// The most channels a network this tool builds may have. A k=64 fat-tree
/// with its routing peaked at 42.6 MB max RSS, about 110 bytes per channel,
/// so the cap keeps network state near 0.5 GB.
constexpr std::uint64_t kMaxChannels = std::uint64_t{1} << 22;

/// Saturating arithmetic for the channel counts below: the flags accept
/// values whose networks have more channels than 64 bits count.
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product)
             ? std::numeric_limits<std::uint64_t>::max()
             : product;
}
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum)
             ? std::numeric_limits<std::uint64_t>::max()
             : sum;
}

/// The channel count of the fabric `opt` selects, by its builder's
/// formula, and the flag that sizes it. A fat-tree has k^3/4 duplex links
/// in each of its three layers; a dragonfly has one duplex link per
/// terminal, two local lanes per ordered router pair in a group and one
/// duplex global link per group pair; a full mesh has one channel per
/// ordered node pair.
std::pair<const char*, std::uint64_t> fabric_channels(const Options& opt) {
  if (opt.topology == Topology::kFatTree) {
    const auto k = static_cast<std::uint64_t>(opt.k);
    return {"--k", sat_mul(sat_mul(3 * k, k), k / 2)};
  }
  if (opt.topology == Topology::kDragonfly) {
    const topo::DragonflySpec& df = opt.dragonfly;
    const auto a = static_cast<std::uint64_t>(df.routers_per_group);
    const auto g = static_cast<std::uint64_t>(df.groups);
    const auto p = static_cast<std::uint64_t>(df.terminals_per_router);
    const std::uint64_t routers = sat_mul(g, a);
    return {"--dragonfly",
            sat_add(sat_add(sat_mul(2, sat_mul(routers, p)),
                            sat_mul(2, sat_mul(routers, a - 1))),
                    sat_mul(g, g - 1))};
  }
  const auto n = static_cast<std::uint64_t>(opt.nodes);
  return {"--nodes", sat_mul(n, n - 1)};
}

std::string format_load(double load) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4f", load);
  return buffer;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

const std::vector<std::pair<std::string, sim::TrafficPattern>> kPatterns = {
    {"uniform", sim::TrafficPattern::kUniformRandom},
    {"transpose", sim::TrafficPattern::kTranspose},
    {"bitrev", sim::TrafficPattern::kBitReversal},
    {"hotspot", sim::TrafficPattern::kHotspot}};

/// The workload generator's permutation preconditions: transpose needs a
/// square terminal count, bit reversal a power of two.
bool pattern_fits(sim::TrafficPattern pattern, std::size_t terminals) {
  if (pattern == sim::TrafficPattern::kTranspose) {
    std::size_t side = 0;
    while ((side + 1) * (side + 1) <= terminals) ++side;
    return side * side == terminals;
  }
  if (pattern == sim::TrafficPattern::kBitReversal)
    return std::has_single_bit(terminals);
  return true;
}

/// Declares every flag on `opt`. The value checks mirror the fabric
/// builders' preconditions, so a bad shape exits 2 before anything is built.
void declare_flags(cli::Parser& p, Options& opt) {
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  const auto join = [](const auto& values) {
    std::string out;
    for (const auto v : values) {
      char item[32];
      std::snprintf(item, sizeof item, "%g", static_cast<double>(v));
      out += (out.empty() ? "" : ",") + std::string(item);
    }
    return out;
  };
  const topo::DragonflySpec& df = opt.dragonfly;
  p.choice("--topology", opt.topology,
           {{"fattree", Topology::kFatTree},
            {"dragonfly", Topology::kDragonfly},
            {"fullmesh", Topology::kFullMesh}},
           "fabric under test");
  p.add({"--k", "N", "an even integer in [2, 2147483646]",
         std::to_string(opt.k), "fat-tree radix", [&opt](const char* text) {
           const auto v = util::parse_u64(text);
           if (!v || *v < 2 || *v % 2 != 0 || *v > kIntMax) return false;
           opt.k = static_cast<int>(*v);
           return true;
         }});
  p.add({"--dragonfly", "A,H,G,P",
         "A,H,G,P with A >= 2, H >= 1, P >= 1, 2 <= G <= A*H+1 <= 2147483647",
         join(std::vector<int>{df.routers_per_group, df.global_links,
                               df.groups, df.terminals_per_router}),
         "dragonfly routers/group, global links/router, groups, "
         "terminals/router; implies --topology dragonfly",
         [&opt](const char* text) {
           std::vector<std::uint64_t> v;
           for (const std::string& item : cli::split(text)) {
             const auto n = util::parse_u64(item);
             if (!n || *n > kIntMax) return false;
             v.push_back(*n);
           }
           if (v.size() != 4 || v[0] < 2 || v[1] < 1 || v[3] < 1 ||
               v[2] < 2 || v[0] * v[1] + 1 > kIntMax || v[2] > v[0] * v[1] + 1)
             return false;
           opt.dragonfly = {static_cast<int>(v[0]), static_cast<int>(v[1]),
                            static_cast<int>(v[2]), static_cast<int>(v[3])};
           opt.topology = Topology::kDragonfly;
           return true;
         }});
  p.integer("--nodes", opt.nodes, "full-mesh node count", 2);
  p.choice("--pattern", opt.pattern, kPatterns, "traffic pattern");
  // Each load is an injection probability, checked here instead of
  // tripping the workload generator's precondition mid-sweep.
  p.add({"--loads", "F,...", "comma-separated numbers in [0, 1]",
         join(opt.loads),
         "offered loads, injection probability per terminal per cycle",
         [&opt](const char* text) {
           std::vector<double> loads;
           for (const std::string& item : cli::split(text)) {
             const auto v = cli::parse_fraction(item.c_str());
             if (!v) return false;
             loads.push_back(*v);
           }
           opt.loads = loads;
           return true;
         }});
  p.integer("--length", opt.length, "message length in flits", 1);
  p.integer("--horizon", opt.horizon, "injection horizon in cycles");
  p.integer("--drain", opt.drain, "extra cycles allowed to drain");
  p.integer("--seed", opt.seed, "workload seed");
  p.text("--routing-file", "FILE", opt.routing_file,
         "wormsim-table-v1 table replacing the fabric's built-in routing");
  p.text("--report", "NAME", opt.report_name,
         "run report name: BENCH_<NAME>.json");
  cli::status_flags(p, opt.status_file, opt.status_interval);
  p.flag("--quiet", opt.quiet, "suppress the per-load progress lines");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  cli::Parser parser("wormsim_saturation", "[flags]",
                     "exit: 0 done, 2 usage or the report cannot be written\n"
                     "see docs/observability.md for the report\n");
  declare_flags(parser, opt);
  parser.parse(argc, argv);

  // A shape that passes its builder's preconditions can still describe a
  // network too large to allocate: refuse it, naming its channel count,
  // before anything is built.
  const auto oversized = [&](const char* flag, std::uint64_t channels) {
    return parser.error(std::string("bad value for ") + flag + ": " +
                        std::to_string(channels) +
                        " channels, over the cap of " +
                        std::to_string(kMaxChannels));
  };
  const auto [fabric_flag, channels] = fabric_channels(opt);
  if (channels > kMaxChannels) return oversized(fabric_flag, channels);
  // The run's cycle limit is --horizon + --drain, which must not wrap.
  sim::Cycle max_cycles = 0;
  if (__builtin_add_overflow(opt.horizon, opt.drain, &max_cycles))
    return parser.error("bad value for --drain: --horizon " +
                        std::to_string(opt.horizon) + " + --drain " +
                        std::to_string(opt.drain) +
                        " overflows the 64-bit cycle limit");

  Fabric fabric = build_fabric(opt);
  WORMSIM_ASSERT(fabric.alg->net().channel_count() == channels);
  // Only the built fabric knows its terminal count, so a permutation
  // pattern that does not fit it is refused here, before any workload.
  const std::size_t terminals = fabric.terminals.size();
  if (!pattern_fits(opt.pattern, terminals)) {
    std::string name, fitting;
    for (const auto& [word, pattern] : kPatterns) {
      if (pattern == opt.pattern) name = word;
      if (pattern_fits(pattern, terminals))
        fitting += (fitting.empty() ? "" : "|") + word;
    }
    return parser.error("bad value for --pattern: '" + name + "' (expected " +
                        fitting + " for this fabric's " +
                        std::to_string(terminals) + " terminals)");
  }
  // A synthesized table (wormsim-table-v1, e.g. from wormsim_synth
  // --out-dir) replaces the fabric's built-in algorithm. The loader pins the
  // topology shape; we additionally require every terminal pair routed so
  // the workload generator cannot draw an unroutable pair.
  if (!opt.routing_file.empty()) {
    routing::TableLoadResult loaded =
        routing::load_table_file(fabric.alg->net(), opt.routing_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "wormsim_saturation: %s: %s\n",
                   opt.routing_file.c_str(), loaded.error.c_str());
      return 2;
    }
    for (const NodeId src : fabric.terminals) {
      for (const NodeId dst : fabric.terminals) {
        if (src != dst && !loaded.table->routes(src, dst)) {
          std::fprintf(stderr,
                       "wormsim_saturation: %s routes no path for terminal "
                       "pair %u->%u\n",
                       opt.routing_file.c_str(), src.value(), dst.value());
          return 2;
        }
      }
    }
    fabric.label += "+" + loaded.table->name();
    fabric.alg = std::move(loaded.table);
  }
  const topo::Network& net = fabric.alg->net();

  obs::RunReport report;
  report.name = opt.report_name;
  report.kind = "simulation";
  report.labels["topology"] = fabric.label;
  for (const auto& [name, pattern] : kPatterns)
    if (pattern == opt.pattern) report.labels["pattern"] = name;
  report.values["nodes"] = static_cast<double>(net.node_count());
  report.values["channels"] = static_cast<double>(net.channel_count());
  report.values["terminals"] = static_cast<double>(fabric.terminals.size());
  report.values["loads"] = static_cast<double>(opt.loads.size());

  // Heartbeat: the sampler thread reads a snapshot we update between sweep
  // points under a mutex — it never touches a live simulator.
  std::mutex status_mu;
  obs::StatusSnapshot status;
  status.kind = "saturation";
  status.count = opt.loads.size();
  status.sim.active = true;
  std::unique_ptr<obs::StatusSampler> sampler;
  if (!opt.status_file.empty())
    sampler = std::make_unique<obs::StatusSampler>(
        opt.status_file, opt.status_interval, [&] {
          std::lock_guard<std::mutex> lock(status_mu);
          return status;
        });

  const auto t0 = std::chrono::steady_clock::now();
  for (const double load : opt.loads) {
    sim::WorkloadConfig workload;
    workload.pattern = opt.pattern;
    workload.injection_rate = load;
    workload.message_length = opt.length;
    workload.horizon = opt.horizon;
    workload.seed = opt.seed;
    const auto specs = sim::generate_workload(
        std::span<const NodeId>(fabric.terminals), workload);

    sim::FifoArbitration policy;
    sim::SimConfig config;
    config.buffer_depth = 2;
    config.max_cycles = max_cycles;
    sim::WormholeSimulator simulator(*fabric.alg, config, policy);
    for (const auto& spec : specs) simulator.add_message(spec);

    const auto start = std::chrono::steady_clock::now();
    const sim::RunResult result = simulator.run();
    const double elapsed = seconds_since(start);
    const sim::WorkloadStats stats =
        sim::summarize_workload(simulator, result.cycles);

    const std::string prefix = "sweep." + format_load(load) + ".";
    report.values[prefix + "offered_messages"] =
        static_cast<double>(stats.offered);
    report.values[prefix + "delivered_messages"] =
        static_cast<double>(stats.delivered);
    report.values[prefix + "delivered_fraction"] =
        stats.offered == 0 ? 1.0
                           : static_cast<double>(stats.delivered) /
                                 static_cast<double>(stats.offered);
    report.values[prefix + "mean_latency_cycles"] = stats.mean_latency;
    report.values[prefix + "max_latency_cycles"] = stats.max_latency;
    report.values[prefix + "accepted_flits_per_cycle"] =
        stats.throughput_flits_per_cycle;
    report.values[prefix + "mean_channel_utilization"] =
        stats.mean_channel_utilization;
    report.values[prefix + "run_cycles"] = static_cast<double>(result.cycles);
    report.values[prefix + "wall_seconds"] = elapsed;
    const sim::EventCoreStats& es = simulator.event_stats();
    for (const obs::EventCoreCounter& c : obs::kEventCoreCounters)
      report.values[prefix + std::string(c.name)] =
          static_cast<double>(es.*c.field);

    {
      std::lock_guard<std::mutex> lock(status_mu);
      ++status.done;
      status.sim.events.merge_from(es);
      status.sim.messages_total += stats.offered;
      status.sim.messages_consumed += stats.delivered;
      status.sim.busy_channel_fraction = stats.mean_channel_utilization;
    }
    if (!opt.quiet)
      std::fprintf(stderr,
                   "load %.4f: %zu/%zu delivered, mean latency %.1f, "
                   "%.3f flits/cycle, %.2fs\n",
                   load, stats.delivered, stats.offered, stats.mean_latency,
                   stats.throughput_flits_per_cycle, elapsed);
  }

  report.values["total_wall_seconds"] = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lock(status_mu);
    status.sim.active = false;
  }
  if (sampler) sampler->stop();
  // A lost report exits 2, like a usage error.
  if (obs::write_report_file(report)) return 0;
  std::fprintf(stderr, "wormsim_saturation: cannot write %s\n",
               obs::report_path(report).c_str());
  return 2;
}
