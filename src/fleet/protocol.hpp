// The fleet file-queue protocol: every message the coordinator and its
// workers exchange, as durable JSON files under one run directory.
//
// There is no socket and no shared memory — the filesystem is the wire.
// That buys three properties the campaign's fleet service needs for free:
//
//   durability   every protocol state survives any process dying at any
//                instant, so a killed coordinator or worker resumes from
//                what is on disk;
//   atomicity    messages appear whole or not at all: files are published
//                by writing a unique sibling temp file and rename(2)-ing it
//                over the destination (util::write_file_atomic, as for
//                the heartbeat and the truth store), and a batch is
//                *claimed* by renaming its queue file into claims/ —
//                exactly one contender's rename finds the source, so
//                claims need no locks;
//   debuggability `cat` shows the full protocol state of a live run.
//
// Run-directory layout (RunPaths maps names to paths):
//
//   manifest.json             campaign identity: seed/count/knobs/limits +
//                             batch geometry; written once, read by workers
//   queue/batch-NNNNNN.json   a batch waiting for a worker (BatchTask)
//   claims/batch-NNNNNN.json  a leased batch (BatchLease, renewed by mtime)
//   results/batch-NNNNNN.jsonl  finished batch: ResultHeader line + records
//   results/batch-NNNNNN.cache  the batch's fresh TruthStore records
//   quarantine/batch-NNNNNN.json  poison batch verdict (QuarantineRecord)
//   truth.cache               coordinator's checkpointed TruthStore
//   merged.jsonl              index-ordered merge of finished batches
//   status.json               coordinator heartbeat (kind="fleet")
//   shutdown.json             sentinel: the run is over, workers may exit
//
// docs/fleet.md is the operator's manual; tests/fleet/fleet_schema_test.cpp
// pins its field tables against these structs in both directions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "campaign/runner.hpp"

namespace wormsim::fleet {

/// The campaign identity and batch geometry of a run directory, written
/// once by the coordinator as manifest.json. Workers build their entire
/// CampaignConfig from this file — never from their own flags — so every
/// process in the fleet evaluates exactly the same scenario stream, and the
/// manifest (not the coordinator's current flags) wins on resume.
struct FleetManifest {
  std::uint64_t seed = 1;
  std::uint64_t count = 0;          ///< scenarios in the whole campaign
  std::uint64_t batch_size = 64;    ///< indices per batch (last may be short)
  std::uint64_t max_attempts = 3;   ///< attempts before quarantine
  double lease_seconds = 10;        ///< claim freshness horizon
  std::string cycle_bias = "any";   ///< CycleBias: any | force | forbid
  double synth_fraction = 0;        ///< GeneratorKnobs::synthesized_fraction
  /// GeneratorKnobs::synth_max_pairs; at least 2.
  std::uint64_t synth_max_pairs =
      static_cast<std::uint64_t>(campaign::GeneratorKnobs{}.synth_max_pairs);
  std::uint64_t max_states = 0;     ///< SearchLimits::max_states
  /// SearchLimits::reduction; defaults to the search's own default.
  std::string reduction =
      analysis::to_string(analysis::SearchLimits{}.reduction);
  std::string fixture_dir;          ///< disagreement fixtures (may be empty)
  std::uint64_t truth_fingerprint = 0;  ///< campaign_truth_fingerprint

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<FleetManifest> from_json(
      const std::string& text);
};

/// One batch waiting in queue/: the contiguous index block [first, end) and
/// which attempt this is (1-based; bumped on every re-queue).
struct BatchTask {
  std::uint64_t batch = 0;  ///< batch ordinal (batch * batch_size == first)
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint64_t attempt = 1;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<BatchTask> from_json(
      const std::string& text);
};

/// A claimed batch in claims/. The claiming worker rewrites the file (same
/// atomic discipline) on its renewal interval; the coordinator judges lease
/// freshness purely by the file's mtime age against the manifest's
/// lease_seconds, so a SIGKILLed worker's claim expires by itself.
struct BatchLease {
  std::uint64_t batch = 0;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint64_t attempt = 1;
  std::string worker;           ///< claiming worker's name
  std::uint64_t pid = 0;        ///< claiming worker's process id
  std::uint64_t renewals = 0;   ///< lease rewrites since the claim

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<BatchLease> from_json(
      const std::string& text);
};

/// First line of a results/batch-NNNNNN.jsonl file; the following `records`
/// lines are ordinary campaign JSONL records for indices [first, end), in
/// index order. The coordinator re-validates all of that before accepting —
/// a header is a claim, not a proof.
struct ResultHeader {
  std::uint64_t batch = 0;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint64_t attempt = 1;
  std::string worker;
  std::uint64_t records = 0;  ///< JSONL lines after this header (= end-first)

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<ResultHeader> from_json(
      const std::string& text);
};

/// Why a batch was taken out of circulation after max_attempts failures.
/// The rejected evidence (bad result files) stays next to it as
/// quarantine/batch-NNNNNN.attempt-K.bad for post-mortem.
struct QuarantineRecord {
  std::uint64_t batch = 0;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint64_t attempts = 0;  ///< attempts consumed before giving up
  std::string reason;          ///< last failure, human-readable

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<QuarantineRecord> from_json(
      const std::string& text);
};

/// shutdown.json: the coordinator's last word. Workers exit when they see
/// it and find the queue empty; `complete` is false when quarantined
/// batches left holes in the campaign.
struct ShutdownSentinel {
  bool complete = false;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<ShutdownSentinel> from_json(
      const std::string& text);
};

/// Maps the protocol's names to concrete paths under one run directory.
class RunPaths {
 public:
  explicit RunPaths(std::string run_dir) : run_dir_(std::move(run_dir)) {}

  [[nodiscard]] const std::string& run_dir() const { return run_dir_; }
  [[nodiscard]] std::string manifest() const;
  [[nodiscard]] std::string queue_dir() const;
  [[nodiscard]] std::string claims_dir() const;
  [[nodiscard]] std::string results_dir() const;
  [[nodiscard]] std::string quarantine_dir() const;
  [[nodiscard]] std::string truth_cache() const;
  [[nodiscard]] std::string merged() const;
  [[nodiscard]] std::string status() const;
  [[nodiscard]] std::string shutdown() const;

  [[nodiscard]] std::string batch_task(std::uint64_t batch) const;
  [[nodiscard]] std::string batch_claim(std::uint64_t batch) const;
  [[nodiscard]] std::string batch_result(std::uint64_t batch) const;
  [[nodiscard]] std::string batch_cache(std::uint64_t batch) const;
  [[nodiscard]] std::string batch_quarantine(std::uint64_t batch) const;
  [[nodiscard]] std::string quarantine_evidence(std::uint64_t batch,
                                                std::uint64_t attempt) const;

  /// "batch-NNNNNN" (zero-padded so directory listings sort by ordinal).
  [[nodiscard]] static std::string batch_stem(std::uint64_t batch);
  /// Parses a batch ordinal back out of a "batch-NNNNNN[.suffix]" filename;
  /// nullopt for anything else (temp files, strangers).
  [[nodiscard]] static std::optional<std::uint64_t> parse_batch_stem(
      const std::string& filename);

 private:
  std::string run_dir_;
};

/// Builds the CampaignConfig a fleet process must run: everything the
/// manifest pins, shards forced to 1 and cache_file/status_file cleared
/// (the fleet owns persistence and observability at the run-dir level).
[[nodiscard]] campaign::CampaignConfig campaign_config_from(
    const FleetManifest& manifest);

/// The manifest for a campaign config + batch geometry (the inverse of
/// campaign_config_from for the pinned fields).
[[nodiscard]] FleetManifest manifest_for(
    const campaign::CampaignConfig& campaign, std::uint64_t batch_size,
    std::uint64_t max_attempts, double lease_seconds);

}  // namespace wormsim::fleet
