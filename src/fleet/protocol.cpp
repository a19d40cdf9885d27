#include "fleet/protocol.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "util/text.hpp"

namespace wormsim::fleet {

namespace json = obs::json;

namespace {

constexpr std::string_view kManifestSchema = "wormsim-fleet-manifest-v1";
constexpr std::string_view kBatchSchema = "wormsim-fleet-batch-v1";
constexpr std::string_view kLeaseSchema = "wormsim-fleet-lease-v1";
constexpr std::string_view kResultSchema = "wormsim-fleet-result-v1";
constexpr std::string_view kQuarantineSchema = "wormsim-fleet-quarantine-v1";
constexpr std::string_view kShutdownSchema = "wormsim-fleet-shutdown-v1";

/// Parses `text` as a JSON object whose "schema" field equals `schema`;
/// nullopt otherwise. The strict schema check is what lets from_json
/// reject a file of the wrong message type (or a torn/garbage file) with
/// one code path.
std::optional<json::Value> parse_message(const std::string& text,
                                         std::string_view schema) {
  auto parsed = json::parse(text);
  if (!parsed || !parsed->is_object()) return std::nullopt;
  const json::Value* field = parsed->find("schema");
  if (field == nullptr || !field->is_string() || field->as_string() != schema)
    return std::nullopt;
  return parsed;
}

/// An exact non-negative integer field; a negative, fractional or
/// out-of-range number is rejected like a missing field.
std::optional<std::uint64_t> get_u64(const json::Value& object,
                                     const char* key) {
  const json::Value* field = object.find(key);
  if (field == nullptr || !field->is_exact_u64()) return std::nullopt;
  return field->as_u64();
}

std::optional<double> get_number(const json::Value& object, const char* key) {
  const json::Value* field = object.find(key);
  if (field == nullptr || !field->is_number()) return std::nullopt;
  return field->as_number();
}

std::optional<std::string> get_string(const json::Value& object,
                                      const char* key) {
  const json::Value* field = object.find(key);
  if (field == nullptr || !field->is_string()) return std::nullopt;
  return field->as_string();
}

}  // namespace

std::string FleetManifest::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kManifestSchema;
  out += "\",\"seed\":" + json::number_u64(seed);
  out += ",\"count\":" + json::number_u64(count);
  out += ",\"batch_size\":" + json::number_u64(batch_size);
  out += ",\"max_attempts\":" + json::number_u64(max_attempts);
  out += ",\"lease_seconds\":" + json::number(lease_seconds);
  out += ",\"cycle_bias\":" + json::quote(cycle_bias);
  out += ",\"synth_fraction\":" + json::number(synth_fraction);
  out += ",\"synth_max_pairs\":" + json::number_u64(synth_max_pairs);
  out += ",\"max_states\":" + json::number_u64(max_states);
  out += ",\"reduction\":" + json::quote(reduction);
  out += ",\"fixture_dir\":" + json::quote(fixture_dir);
  out += ",\"truth_fingerprint\":" +
         json::quote(util::hex16(truth_fingerprint));
  out += "}\n";
  return out;
}

std::optional<FleetManifest> FleetManifest::from_json(
    const std::string& text) {
  const auto parsed = parse_message(text, kManifestSchema);
  if (!parsed) return std::nullopt;
  FleetManifest m;
  const auto seed = get_u64(*parsed, "seed");
  const auto count = get_u64(*parsed, "count");
  const auto batch_size = get_u64(*parsed, "batch_size");
  const auto max_attempts = get_u64(*parsed, "max_attempts");
  const auto lease_seconds = get_number(*parsed, "lease_seconds");
  const auto cycle_bias = get_string(*parsed, "cycle_bias");
  const auto synth_fraction = get_number(*parsed, "synth_fraction");
  const auto synth_max_pairs = get_u64(*parsed, "synth_max_pairs");
  const auto max_states = get_u64(*parsed, "max_states");
  const auto reduction = get_string(*parsed, "reduction");
  const auto fixture_dir = get_string(*parsed, "fixture_dir");
  const auto fingerprint = get_string(*parsed, "truth_fingerprint");
  if (!seed || !count || !batch_size || *batch_size == 0 || !max_attempts ||
      !lease_seconds || !cycle_bias || !synth_fraction || !synth_max_pairs ||
      !max_states || !reduction || !fixture_dir || !fingerprint)
    return std::nullopt;
  const auto fp = util::parse_hex16(*fingerprint);
  if (!fp) return std::nullopt;
  // A mode this build does not know (e.g. the retired "on") would silently
  // run a different search than the manifest's fingerprint describes.
  if (!analysis::reduction_from_string(*reduction)) return std::nullopt;
  // The generator requires at least two demanded pairs, and the campaign
  // knob is an int.
  if (*synth_max_pairs < 2 ||
      *synth_max_pairs >
          static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    return std::nullopt;
  // Outside [0, 1] the fraction trips the generator's precondition in every
  // worker, and an unknown bias would silently run as "any".
  if (!(*synth_fraction >= 0 && *synth_fraction <= 1)) return std::nullopt;
  if (*cycle_bias != "any" && *cycle_bias != "force" &&
      *cycle_bias != "forbid")
    return std::nullopt;
  m.seed = *seed;
  m.count = *count;
  m.batch_size = *batch_size;
  m.max_attempts = *max_attempts;
  m.lease_seconds = *lease_seconds;
  m.cycle_bias = *cycle_bias;
  m.synth_fraction = *synth_fraction;
  m.synth_max_pairs = *synth_max_pairs;
  m.max_states = *max_states;
  m.reduction = *reduction;
  m.fixture_dir = *fixture_dir;
  m.truth_fingerprint = *fp;
  return m;
}

std::string BatchTask::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kBatchSchema;
  out += "\",\"batch\":" + json::number_u64(batch);
  out += ",\"first\":" + json::number_u64(first);
  out += ",\"end\":" + json::number_u64(end);
  out += ",\"attempt\":" + json::number_u64(attempt);
  out += "}\n";
  return out;
}

std::optional<BatchTask> BatchTask::from_json(const std::string& text) {
  const auto parsed = parse_message(text, kBatchSchema);
  if (!parsed) return std::nullopt;
  const auto batch = get_u64(*parsed, "batch");
  const auto first = get_u64(*parsed, "first");
  const auto end = get_u64(*parsed, "end");
  const auto attempt = get_u64(*parsed, "attempt");
  if (!batch || !first || !end || !attempt || *end < *first || *attempt == 0)
    return std::nullopt;
  return BatchTask{*batch, *first, *end, *attempt};
}

std::string BatchLease::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kLeaseSchema;
  out += "\",\"batch\":" + json::number_u64(batch);
  out += ",\"first\":" + json::number_u64(first);
  out += ",\"end\":" + json::number_u64(end);
  out += ",\"attempt\":" + json::number_u64(attempt);
  out += ",\"worker\":" + json::quote(worker);
  out += ",\"pid\":" + json::number_u64(pid);
  out += ",\"renewals\":" + json::number_u64(renewals);
  out += "}\n";
  return out;
}

std::optional<BatchLease> BatchLease::from_json(const std::string& text) {
  const auto parsed = parse_message(text, kLeaseSchema);
  if (!parsed) return std::nullopt;
  const auto batch = get_u64(*parsed, "batch");
  const auto first = get_u64(*parsed, "first");
  const auto end = get_u64(*parsed, "end");
  const auto attempt = get_u64(*parsed, "attempt");
  const auto worker = get_string(*parsed, "worker");
  const auto pid = get_u64(*parsed, "pid");
  const auto renewals = get_u64(*parsed, "renewals");
  if (!batch || !first || !end || !attempt || !worker || !pid || !renewals)
    return std::nullopt;
  BatchLease lease;
  lease.batch = *batch;
  lease.first = *first;
  lease.end = *end;
  lease.attempt = *attempt;
  lease.worker = *worker;
  lease.pid = *pid;
  lease.renewals = *renewals;
  return lease;
}

std::string ResultHeader::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kResultSchema;
  out += "\",\"batch\":" + json::number_u64(batch);
  out += ",\"first\":" + json::number_u64(first);
  out += ",\"end\":" + json::number_u64(end);
  out += ",\"attempt\":" + json::number_u64(attempt);
  out += ",\"worker\":" + json::quote(worker);
  out += ",\"records\":" + json::number_u64(records);
  out += "}";
  return out;  // no newline: the result file writer joins lines itself
}

std::optional<ResultHeader> ResultHeader::from_json(const std::string& text) {
  const auto parsed = parse_message(text, kResultSchema);
  if (!parsed) return std::nullopt;
  const auto batch = get_u64(*parsed, "batch");
  const auto first = get_u64(*parsed, "first");
  const auto end = get_u64(*parsed, "end");
  const auto attempt = get_u64(*parsed, "attempt");
  const auto worker = get_string(*parsed, "worker");
  const auto records = get_u64(*parsed, "records");
  if (!batch || !first || !end || !attempt || !worker || !records)
    return std::nullopt;
  ResultHeader header;
  header.batch = *batch;
  header.first = *first;
  header.end = *end;
  header.attempt = *attempt;
  header.worker = *worker;
  header.records = *records;
  return header;
}

std::string QuarantineRecord::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kQuarantineSchema;
  out += "\",\"batch\":" + json::number_u64(batch);
  out += ",\"first\":" + json::number_u64(first);
  out += ",\"end\":" + json::number_u64(end);
  out += ",\"attempts\":" + json::number_u64(attempts);
  out += ",\"reason\":" + json::quote(reason);
  out += "}\n";
  return out;
}

std::optional<QuarantineRecord> QuarantineRecord::from_json(
    const std::string& text) {
  const auto parsed = parse_message(text, kQuarantineSchema);
  if (!parsed) return std::nullopt;
  const auto batch = get_u64(*parsed, "batch");
  const auto first = get_u64(*parsed, "first");
  const auto end = get_u64(*parsed, "end");
  const auto attempts = get_u64(*parsed, "attempts");
  const auto reason = get_string(*parsed, "reason");
  if (!batch || !first || !end || !attempts || !reason) return std::nullopt;
  QuarantineRecord q;
  q.batch = *batch;
  q.first = *first;
  q.end = *end;
  q.attempts = *attempts;
  q.reason = *reason;
  return q;
}

std::string ShutdownSentinel::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kShutdownSchema;
  out += "\",\"complete\":";
  out += complete ? "true" : "false";
  out += "}\n";
  return out;
}

std::optional<ShutdownSentinel> ShutdownSentinel::from_json(
    const std::string& text) {
  const auto parsed = parse_message(text, kShutdownSchema);
  if (!parsed) return std::nullopt;
  const json::Value* complete = parsed->find("complete");
  if (complete == nullptr || !complete->is_bool()) return std::nullopt;
  return ShutdownSentinel{complete->as_bool()};
}

std::string RunPaths::manifest() const { return run_dir_ + "/manifest.json"; }
std::string RunPaths::queue_dir() const { return run_dir_ + "/queue"; }
std::string RunPaths::claims_dir() const { return run_dir_ + "/claims"; }
std::string RunPaths::results_dir() const { return run_dir_ + "/results"; }
std::string RunPaths::quarantine_dir() const {
  return run_dir_ + "/quarantine";
}
std::string RunPaths::truth_cache() const { return run_dir_ + "/truth.cache"; }
std::string RunPaths::merged() const { return run_dir_ + "/merged.jsonl"; }
std::string RunPaths::status() const { return run_dir_ + "/status.json"; }
std::string RunPaths::shutdown() const { return run_dir_ + "/shutdown.json"; }

std::string RunPaths::batch_stem(std::uint64_t batch) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "batch-%06llu",
                static_cast<unsigned long long>(batch));
  return buf;
}

std::optional<std::uint64_t> RunPaths::parse_batch_stem(
    const std::string& filename) {
  if (filename.rfind("batch-", 0) != 0) return std::nullopt;
  const std::string_view rest = std::string_view(filename).substr(6);
  return util::parse_u64(rest.substr(0, rest.find('.')));  // drop extension
}

std::string RunPaths::batch_task(std::uint64_t batch) const {
  return queue_dir() + "/" + batch_stem(batch) + ".json";
}
std::string RunPaths::batch_claim(std::uint64_t batch) const {
  return claims_dir() + "/" + batch_stem(batch) + ".json";
}
std::string RunPaths::batch_result(std::uint64_t batch) const {
  return results_dir() + "/" + batch_stem(batch) + ".jsonl";
}
std::string RunPaths::batch_cache(std::uint64_t batch) const {
  return results_dir() + "/" + batch_stem(batch) + ".cache";
}
std::string RunPaths::batch_quarantine(std::uint64_t batch) const {
  return quarantine_dir() + "/" + batch_stem(batch) + ".json";
}
std::string RunPaths::quarantine_evidence(std::uint64_t batch,
                                          std::uint64_t attempt) const {
  std::ostringstream os;
  os << quarantine_dir() << "/" << batch_stem(batch) << ".attempt-" << attempt
     << ".bad";
  return os.str();
}

campaign::CampaignConfig campaign_config_from(const FleetManifest& manifest) {
  campaign::CampaignConfig config;
  config.seed = manifest.seed;
  config.count = manifest.count;
  config.shards = 1;  // parallelism lives at the fleet level
  config.knobs.cycle_bias = manifest.cycle_bias == "force"
                                ? campaign::CycleBias::kForce
                            : manifest.cycle_bias == "forbid"
                                ? campaign::CycleBias::kForbid
                                : campaign::CycleBias::kAny;
  config.knobs.synthesized_fraction = manifest.synth_fraction;
  config.knobs.synth_max_pairs =
      static_cast<int>(manifest.synth_max_pairs);
  if (manifest.max_states > 0)
    config.eval.limits.max_states = manifest.max_states;
  if (const auto mode = analysis::reduction_from_string(manifest.reduction))
    config.eval.limits.reduction = *mode;
  config.fixture_dir = manifest.fixture_dir;
  config.cache_file.clear();   // the run directory's truth.cache instead
  config.status_file.clear();  // the coordinator heartbeats, not workers
  return config;
}

FleetManifest manifest_for(const campaign::CampaignConfig& campaign,
                           std::uint64_t batch_size,
                           std::uint64_t max_attempts, double lease_seconds) {
  FleetManifest m;
  m.seed = campaign.seed;
  m.count = campaign.count;
  m.batch_size = batch_size;
  m.max_attempts = max_attempts;
  m.lease_seconds = lease_seconds;
  switch (campaign.knobs.cycle_bias) {
    case campaign::CycleBias::kAny: m.cycle_bias = "any"; break;
    case campaign::CycleBias::kForce: m.cycle_bias = "force"; break;
    case campaign::CycleBias::kForbid: m.cycle_bias = "forbid"; break;
  }
  m.synth_fraction = campaign.knobs.synthesized_fraction;
  m.synth_max_pairs =
      static_cast<std::uint64_t>(campaign.knobs.synth_max_pairs);
  m.max_states = campaign.eval.limits.max_states;
  m.reduction = analysis::to_string(campaign.eval.limits.reduction);
  m.fixture_dir = campaign.fixture_dir;
  m.truth_fingerprint = campaign::campaign_truth_fingerprint(campaign.eval);
  return m;
}

}  // namespace wormsim::fleet
