// wormsim_saturation — offered-load vs. accepted-throughput/latency sweeps
// on datacenter-scale fabrics, driven by the event simulation core.
//
// For each offered load (injection probability per terminal per cycle) the
// tool generates an open-loop workload on the fabric's terminals, runs it
// to drain, and records accepted throughput, latency, channel utilization,
// and the event core's introspection counters. The sweep lands in
// BENCH_saturation.json (obs::RunReport; gated by tools/bench_compare.py —
// the simulation is deterministic, so everything except wall-clock is
// byte-reproducible from the command line). An optional core-comparison
// pass times the cycle and event cores on identical low-activity mesh
// workloads and records both, normalized per active-channel-cycle so the
// numbers are comparable across cores.
//
// Usage:
//   wormsim_saturation [--topology fattree|dragonfly|fullmesh]
//                      [--k N] [--dragonfly A,H,G,P] [--nodes N]
//                      [--pattern uniform|transpose|bitrev|hotspot]
//                      [--loads L1,L2,...] [--length N] [--horizon N]
//                      [--drain N] [--seed N] [--core event|cycle]
//                      [--core-compare N1,N2,...] [--report NAME]
//                      [--status-file FILE] [--status-interval SECONDS]
//                      [--quiet]
//
// The heartbeat (--status-file) publishes "wormsim-status-v4" snapshots of
// kind "saturation": progress counts sweep points and the `sim` object
// mirrors the most recently finished simulation's event-core stats. The
// snapshot is updated between sweep points only, so the sampler thread
// never reads a live simulator.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/run_report.hpp"
#include "obs/status.hpp"
#include "routing/datacenter.hpp"
#include "routing/dor.hpp"
#include "routing/table_io.hpp"
#include "sim/arbitration.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"
#include "topo/builders.hpp"
#include "topo/datacenter.hpp"

using namespace wormsim;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--topology fattree|dragonfly|fullmesh] [--k N]\n"
      "          [--dragonfly A,H,G,P] [--nodes N]\n"
      "          [--pattern uniform|transpose|bitrev|hotspot]\n"
      "          [--loads L1,L2,...] [--length N] [--horizon N] [--drain N]\n"
      "          [--seed N] [--core event|cycle] [--core-compare N1,N2,...]\n"
      "          [--routing-file FILE] [--report NAME] [--status-file FILE]\n"
      "          [--status-interval SECONDS] [--quiet]\n"
      "exit: 0 done, 2 usage; see docs/observability.md for the report\n",
      argv0);
  return 2;
}

/// Parses a decimal flag value no larger than `max`. strtoull alone accepts
/// "-1" (wrapping it to 2^64-1) and saturates out-of-range input, and the
/// narrowing casts at the call sites would truncate what it returns.
std::uint64_t parse_u64(
    const char* text, const char* flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
      v > max) {
    std::fprintf(stderr,
                 "wormsim_saturation: bad value for %s: '%s' (expected an "
                 "integer in [0, %llu])\n",
                 flag, text, static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

/// Comma-separated offered loads: each an injection probability, so finite
/// and in [0, 1] — checked here, before the sweep, instead of tripping the
/// workload generator's precondition mid-run.
std::vector<double> parse_loads(const std::string& text, const char* flag) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !(v >= 0 && v <= 1)) {
      std::fprintf(stderr,
                   "wormsim_saturation: bad value for %s: '%s' (expected a "
                   "load in [0, 1])\n",
                   flag, item.c_str());
      std::exit(2);
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::uint64_t> parse_u64s(
    const std::string& text, const char* flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    out.push_back(parse_u64(text.substr(start, comma - start).c_str(), flag,
                            max));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

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

Fabric build_fattree(int k) {
  Fabric f;
  f.fattree = std::make_unique<topo::FatTree>(k);
  f.alg = std::make_unique<routing::FatTreeUpDown>(*f.fattree);
  f.terminals.assign(f.fattree->hosts().begin(), f.fattree->hosts().end());
  f.label = "fattree-k" + std::to_string(k);
  return f;
}

Fabric build_dragonfly(const topo::DragonflySpec& spec) {
  Fabric f;
  f.dragonfly = std::make_unique<topo::Dragonfly>(spec);
  f.alg = std::make_unique<routing::DragonflyMinimal>(*f.dragonfly);
  f.terminals.assign(f.dragonfly->terminals().begin(),
                     f.dragonfly->terminals().end());
  f.label = "dragonfly-a" + std::to_string(spec.routers_per_group) + "h" +
            std::to_string(spec.global_links) + "g" +
            std::to_string(spec.groups) + "p" +
            std::to_string(spec.terminals_per_router);
  return f;
}

Fabric build_fullmesh(int nodes) {
  Fabric f;
  f.fullmesh =
      std::make_unique<topo::Network>(topo::make_complete(nodes));
  f.alg = std::make_unique<routing::CompleteDirect>(*f.fullmesh);
  for (const NodeId n : f.fullmesh->nodes()) f.terminals.push_back(n);
  f.label = "fullmesh-n" + std::to_string(nodes);
  return f;
}

/// Power-of-two mesh shape for the core-comparison pass: greedy radix-16
/// factorization (64 -> 8x8, 512 -> 8x8x8, 4096 -> 16x16x16).
std::vector<int> mesh_dims(std::uint64_t nodes) {
  std::vector<int> dims;
  std::uint64_t left = nodes;
  while (left > 16) {
    std::uint64_t radix = 16;
    while (radix > 2 && left % radix != 0) radix /= 2;
    if (left % radix != 0) {
      std::fprintf(stderr,
                   "wormsim_saturation: --core-compare sizes must be "
                   "powers of two, got %llu\n",
                   static_cast<unsigned long long>(nodes));
      std::exit(2);
    }
    dims.push_back(static_cast<int>(radix));
    left /= radix;
  }
  if (left >= 2) dims.push_back(static_cast<int>(left));
  return dims;
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

struct Options {
  std::string topology = "fattree";
  int k = 16;
  topo::DragonflySpec dragonfly;
  int nodes = 64;
  sim::TrafficPattern pattern = sim::TrafficPattern::kUniformRandom;
  std::vector<double> loads = {0.002, 0.005, 0.01, 0.02, 0.04, 0.08};
  std::uint32_t length = 8;
  sim::Cycle horizon = 300;
  sim::Cycle drain = 50'000;
  std::uint64_t seed = 1;
  sim::SimCore core = sim::SimCore::kEvent;
  std::vector<std::uint64_t> core_compare;
  std::string routing_file;
  std::string report_name = "saturation";
  std::string status_file;
  double status_interval = 1.0;
  bool quiet = false;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wormsim_saturation: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--topology") {
      opt.topology = next("--topology");
    } else if (arg == "--k") {
      opt.k = static_cast<int>(
          parse_u64(next("--k"), "--k", std::numeric_limits<int>::max()));
    } else if (arg == "--dragonfly") {
      const auto v = parse_u64s(next("--dragonfly"), "--dragonfly",
                                 std::numeric_limits<int>::max());
      if (v.size() != 4) return usage(argv[0]);
      opt.dragonfly = {static_cast<int>(v[0]), static_cast<int>(v[1]),
                       static_cast<int>(v[2]), static_cast<int>(v[3])};
      opt.topology = "dragonfly";
    } else if (arg == "--nodes") {
      opt.nodes = static_cast<int>(parse_u64(next("--nodes"), "--nodes",
                                              std::numeric_limits<int>::max()));
    } else if (arg == "--pattern") {
      const std::string_view p = next("--pattern");
      if (p == "uniform") {
        opt.pattern = sim::TrafficPattern::kUniformRandom;
      } else if (p == "transpose") {
        opt.pattern = sim::TrafficPattern::kTranspose;
      } else if (p == "bitrev") {
        opt.pattern = sim::TrafficPattern::kBitReversal;
      } else if (p == "hotspot") {
        opt.pattern = sim::TrafficPattern::kHotspot;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--loads") {
      opt.loads = parse_loads(next("--loads"), "--loads");
    } else if (arg == "--length") {
      opt.length = static_cast<std::uint32_t>(
          parse_u64(next("--length"), "--length",
                    std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--horizon") {
      opt.horizon = parse_u64(next("--horizon"), "--horizon");
    } else if (arg == "--drain") {
      opt.drain = parse_u64(next("--drain"), "--drain");
    } else if (arg == "--seed") {
      opt.seed = parse_u64(next("--seed"), "--seed");
    } else if (arg == "--core") {
      const std::string_view c = next("--core");
      if (c == "event") {
        opt.core = sim::SimCore::kEvent;
      } else if (c == "cycle") {
        opt.core = sim::SimCore::kCycle;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--core-compare") {
      opt.core_compare = parse_u64s(next("--core-compare"), "--core-compare");
    } else if (arg == "--routing-file") {
      opt.routing_file = next("--routing-file");
    } else if (arg == "--report") {
      opt.report_name = next("--report");
    } else if (arg == "--status-file") {
      opt.status_file = next("--status-file");
    } else if (arg == "--status-interval") {
      const char* text = next("--status-interval");
      const auto seconds = obs::parse_seconds(text);
      if (!seconds) {
        std::fprintf(stderr,
                     "wormsim_saturation: bad value for --status-interval: "
                     "'%s' (expected finite seconds > 0)\n",
                     text);
        return 2;
      }
      opt.status_interval = *seconds;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  Fabric fabric;
  if (opt.topology == "fattree") {
    fabric = build_fattree(opt.k);
  } else if (opt.topology == "dragonfly") {
    fabric = build_dragonfly(opt.dragonfly);
  } else if (opt.topology == "fullmesh") {
    fabric = build_fullmesh(opt.nodes);
  } else {
    return usage(argv[0]);
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
  report.labels["pattern"] =
      opt.pattern == sim::TrafficPattern::kUniformRandom ? "uniform"
      : opt.pattern == sim::TrafficPattern::kTranspose   ? "transpose"
      : opt.pattern == sim::TrafficPattern::kBitReversal ? "bitrev"
                                                         : "hotspot";
  report.labels["core"] =
      opt.core == sim::SimCore::kEvent ? "event" : "cycle";
  report.values["nodes"] = static_cast<double>(net.node_count());
  report.values["channels"] = static_cast<double>(net.channel_count());
  report.values["terminals"] = static_cast<double>(fabric.terminals.size());
  report.values["loads"] = static_cast<double>(opt.loads.size());

  // Heartbeat: the sampler thread reads a snapshot we update between sweep
  // points under a mutex — it never touches a live simulator.
  std::mutex status_mu;
  obs::StatusSnapshot status;
  status.kind = "saturation";
  status.count = opt.loads.size() + (opt.core_compare.empty() ? 0 : 1);
  status.end_index = status.count;
  status.sim.core = opt.core == sim::SimCore::kEvent ? "event" : "cycle";
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
    config.core = opt.core;
    config.buffer_depth = 2;
    config.max_cycles = opt.horizon + opt.drain;
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
    report.values[prefix + "cycles_executed"] =
        static_cast<double>(es.cycles_executed);
    report.values[prefix + "cycles_skipped"] =
        static_cast<double>(es.cycles_skipped);
    report.values[prefix + "events_scheduled"] =
        static_cast<double>(es.events_scheduled);
    report.values[prefix + "events_fired"] =
        static_cast<double>(es.events_fired);
    report.values[prefix + "events_cancelled"] =
        static_cast<double>(es.events_cancelled);
    report.values[prefix + "queue_peak"] = static_cast<double>(es.queue_peak);

    {
      std::lock_guard<std::mutex> lock(status_mu);
      ++status.done;
      status.sim.cycles_executed += es.cycles_executed;
      status.sim.cycles_skipped += es.cycles_skipped;
      status.sim.events_scheduled += es.events_scheduled;
      status.sim.events_fired += es.events_fired;
      status.sim.events_cancelled += es.events_cancelled;
      status.sim.queue_peak = std::max(status.sim.queue_peak, es.queue_peak);
      status.sim.messages_total += stats.offered;
      status.sim.messages_consumed += stats.delivered;
      status.sim.busy_channel_fraction = simulator.busy_channel_fraction();
    }
    if (!opt.quiet)
      std::fprintf(stderr,
                   "load %.4f: %zu/%zu delivered, mean latency %.1f, "
                   "%.3f flits/cycle, %.2fs\n",
                   load, stats.delivered, stats.offered, stats.mean_latency,
                   stats.throughput_flits_per_cycle, elapsed);
  }

  // Core comparison: identical low-activity workloads on meshes of the
  // requested sizes, timed under both cores. The event core must agree with
  // the cycle core on every deterministic output (the parity suite proves
  // this exhaustively; here it doubles as a smoke check on big networks).
  for (const std::uint64_t nodes : opt.core_compare) {
    const topo::Grid grid = topo::make_mesh(mesh_dims(nodes));
    const routing::DimensionOrderMesh dor(grid);
    sim::WorkloadConfig workload;
    workload.pattern = sim::TrafficPattern::kUniformRandom;
    // ~96 messages spread over a long horizon: long idle spans between
    // active bursts, the event core's best case and the cycle core's worst.
    workload.horizon = 50'000;
    workload.injection_rate =
        96.0 / (static_cast<double>(nodes) *
                static_cast<double>(workload.horizon));
    workload.message_length = opt.length;
    workload.seed = opt.seed;
    const auto specs = sim::generate_workload(grid, workload);

    const std::string prefix = "cores.n" + std::to_string(nodes) + ".";
    double wall[2] = {0, 0};
    for (const sim::SimCore core :
         {sim::SimCore::kCycle, sim::SimCore::kEvent}) {
      sim::FifoArbitration policy;
      sim::SimConfig config;
      config.core = core;
      config.buffer_depth = 2;
      config.max_cycles = workload.horizon + opt.drain;
      sim::WormholeSimulator simulator(dor, config, policy);
      for (const auto& spec : specs) simulator.add_message(spec);
      const auto start = std::chrono::steady_clock::now();
      const sim::RunResult result = simulator.run();
      const double elapsed = seconds_since(start);
      const bool event = core == sim::SimCore::kEvent;
      wall[event ? 1 : 0] = elapsed;
      const char* tag = event ? "event" : "cycle";
      report.values[prefix + tag + "_wall_seconds"] = elapsed;
      // Per-cycle cost normalized by the mean number of busy channels, so
      // the two cores' costs are comparable: the cycle core pays for every
      // message every cycle, the event core only for scheduled work.
      const double active_channels =
          simulator.busy_channel_fraction() *
          static_cast<double>(grid.net().channel_count());
      report.values[prefix + tag + "_ns_per_active_channel_cycle"] =
          active_channels > 0
              ? elapsed * 1e9 / static_cast<double>(result.cycles) /
                    active_channels
              : 0;
      report.values[prefix + "run_cycles"] =
          static_cast<double>(result.cycles);
      report.values[prefix + "messages"] = static_cast<double>(specs.size());
    }
    report.values[prefix + "event_speedup"] =
        wall[1] > 0 ? wall[0] / wall[1] : 0;
    {
      std::lock_guard<std::mutex> lock(status_mu);
      ++status.done;
    }
    if (!opt.quiet)
      std::fprintf(stderr,
                   "cores n=%llu: cycle %.3fs, event %.3fs (%.1fx)\n",
                   static_cast<unsigned long long>(nodes), wall[0], wall[1],
                   wall[1] > 0 ? wall[0] / wall[1] : 0);
  }

  report.values["total_wall_seconds"] = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lock(status_mu);
    status.sim.active = false;
  }
  if (sampler) sampler->stop();
  if (!obs::write_report_file(report)) {
    std::fprintf(stderr, "wormsim_saturation: cannot write BENCH_%s.json\n",
                 opt.report_name.c_str());
    return 1;
  }
  return 0;
}
