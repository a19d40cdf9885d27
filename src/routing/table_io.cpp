#include "routing/table_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/json.hpp"

namespace wormsim::routing {

namespace {

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (std::uint64_t{a} << 32) | b;
}

std::string path_error(std::size_t index, const std::string& what) {
  return "paths[" + std::to_string(index) + "]: " + what;
}

TableLoadResult fail(std::string error) {
  TableLoadResult result;
  result.error = std::move(error);
  return result;
}

}  // namespace

std::string table_to_json(const PathTable& table) {
  const topo::Network& net = table.net();
  std::string out;
  out += "{\n";
  out += "  \"schema\": " + obs::json::quote(kTableSchema) + ",\n";
  out += "  \"name\": " + obs::json::quote(table.name()) + ",\n";
  out += "  \"nodes\": " + std::to_string(net.node_count()) + ",\n";
  out += "  \"channels\": " + std::to_string(net.channel_count()) + ",\n";
  out += "  \"paths\": [";
  bool first = true;
  for (const PathSpec& p : table.paths()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"src\": " + std::to_string(p.src.index()) +
           ", \"dst\": " + std::to_string(p.dst.index()) +
           ", \"channels\": [";
    for (std::size_t i = 0; i < p.channels.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(p.channels[i].index());
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

TableLoadResult table_from_json(const topo::Network& net,
                                std::string_view text) {
  const std::optional<obs::json::Value> doc = obs::json::parse(text);
  if (!doc) return fail("not valid JSON");
  if (!doc->is_object()) return fail("top level is not an object");

  const obs::json::Value* schema = doc->find("schema");
  if (!schema || !schema->is_string() || schema->as_string() != kTableSchema)
    return fail("schema is not \"" + std::string(kTableSchema) + "\"");

  const auto require_count = [&](const char* key,
                                 std::size_t expect) -> std::string {
    const obs::json::Value* v = doc->find(key);
    if (!v || !v->is_exact_u64())
      return std::string(key) + " missing or not a non-negative integer";
    if (v->as_u64() != expect)
      return std::string(key) + " is " + std::to_string(v->as_u64()) +
             " but the target network has " + std::to_string(expect);
    return {};
  };
  if (std::string e = require_count("nodes", net.node_count()); !e.empty())
    return fail(std::move(e));
  if (std::string e = require_count("channels", net.channel_count());
      !e.empty())
    return fail(std::move(e));

  std::string name = "path-table";
  if (const obs::json::Value* n = doc->find("name")) {
    if (!n->is_string()) return fail("name is not a string");
    name = n->as_string();
  }

  const obs::json::Value* paths = doc->find("paths");
  if (!paths || !paths->is_array())
    return fail("paths missing or not an array");

  // Pre-validate everything PathTable::add_path treats as a precondition,
  // accumulating the routing-function view ((in channel, dst) -> next) so
  // conflicts are reported instead of aborting the process.
  std::vector<PathSpec> specs;
  std::unordered_map<std::uint64_t, ChannelId> next;
  std::unordered_map<std::uint64_t, ChannelId> initial;
  for (std::size_t i = 0; i < paths->as_array().size(); ++i) {
    const obs::json::Value& entry = paths->as_array()[i];
    if (!entry.is_object()) return fail(path_error(i, "not an object"));
    const obs::json::Value* src = entry.find("src");
    const obs::json::Value* dst = entry.find("dst");
    const obs::json::Value* channels = entry.find("channels");
    if (!src || !src->is_exact_u64() || !dst || !dst->is_exact_u64())
      return fail(path_error(i, "src/dst missing or not node ids"));
    if (!channels || !channels->is_array())
      return fail(path_error(i, "channels missing or not an array"));
    if (src->as_u64() >= net.node_count() ||
        dst->as_u64() >= net.node_count())
      return fail(path_error(i, "src/dst out of range"));

    PathSpec spec;
    spec.src = NodeId{static_cast<std::uint32_t>(src->as_u64())};
    spec.dst = NodeId{static_cast<std::uint32_t>(dst->as_u64())};
    if (spec.src == spec.dst)
      return fail(path_error(i, "src equals dst"));
    for (const obs::json::Value& c : channels->as_array()) {
      if (!c.is_exact_u64() || c.as_u64() >= net.channel_count())
        return fail(path_error(i, "channel id not an integer in range"));
      spec.channels.push_back(
          ChannelId{static_cast<std::uint32_t>(c.as_u64())});
    }
    if (!net.is_walk(spec.src, spec.dst, spec.channels))
      return fail(path_error(i, "channels are not a walk from src to dst"));
    // A route must be a *path* for the table to be executable: a repeated
    // channel makes next_channel loop forever, and an intermediate visit to
    // dst would consume the message early.
    std::vector<bool> seen(net.channel_count(), false);
    for (std::size_t h = 0; h < spec.channels.size(); ++h) {
      if (seen[spec.channels[h].index()])
        return fail(path_error(i, "repeated channel in path"));
      seen[spec.channels[h].index()] = true;
      if (h + 1 < spec.channels.size() &&
          net.channel(spec.channels[h]).dst == spec.dst)
        return fail(path_error(i, "path visits dst before its end"));
    }

    const std::uint64_t pk = pair_key(spec.src.value(), spec.dst.value());
    if (!initial.try_emplace(pk, spec.channels.front()).second)
      return fail(path_error(i, "duplicate (src, dst) pair"));
    for (std::size_t h = 0; h + 1 < spec.channels.size(); ++h) {
      const std::uint64_t dep =
          pair_key(spec.channels[h].value(), spec.dst.value());
      const auto [it, inserted] = next.try_emplace(dep, spec.channels[h + 1]);
      if (!inserted && it->second != spec.channels[h + 1])
        return fail(path_error(
            i, "violates the routing-function property (channel " +
                   std::to_string(spec.channels[h].index()) +
                   " toward node " + std::to_string(spec.dst.index()) +
                   " already continues differently)"));
    }
    specs.push_back(std::move(spec));
  }

  TableLoadResult result;
  result.table = std::make_unique<PathTable>(net, std::move(name));
  for (const PathSpec& spec : specs) result.table->add_path(spec);
  return result;
}

bool write_table_file(const PathTable& table, const std::string& path,
                      std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << table_to_json(table);
  out.flush();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

TableLoadResult load_table_file(const topo::Network& net,
                                const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return table_from_json(net, buffer.str());
}

}  // namespace wormsim::routing
