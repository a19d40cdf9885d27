#include "fleet/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/truth_store.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"
#include "util/assert.hpp"
#include "util/file.hpp"
#include "util/log.hpp"

namespace wormsim::fleet {

namespace fs = std::filesystem;

namespace {

enum class BatchState : std::uint8_t { kQueued, kLeased, kDone, kQuarantined };

/// The coordinator's in-memory mirror of one batch. Everything here can be
/// reconstructed from the run directory — the mirror exists so the poll
/// loop does not re-stat finished batches.
struct BatchInfo {
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  BatchState state = BatchState::kQueued;
  std::uint64_t attempt = 1;  ///< current (1-based) attempt
  // Harvested from the validated result file when the batch lands.
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
  std::uint64_t skip = 0;
  std::uint64_t states = 0;
  bool merged = false;
};

struct Harvest {
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
  std::uint64_t skip = 0;
  std::uint64_t states = 0;
  std::uint64_t records = 0;
};

/// Seconds since `path` was last written, by the filesystem clock. Returns
/// 0 (never expired) when the file cannot be statted — the claim is judged
/// again next poll, and a deleted claim is handled by the state machine.
double mtime_age_seconds(const std::string& path) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return 0;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

/// Full validation of one result file against the batch geometry: header
/// fields, record count, and per-line index order. A passing file's record
/// lines are exactly the [first, end) slice of the campaign JSONL — the
/// worker that wrote them ran the same deterministic evaluation this
/// coordinator would have. Failure reasons are returned through `why`.
std::optional<Harvest> validate_result(const std::string& text,
                                       std::uint64_t batch,
                                       const BatchInfo& info,
                                       std::string* why) {
  const auto fail = [&](const std::string& reason) {
    *why = reason;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return fail("empty result file");
  const auto header = ResultHeader::from_json(line);
  if (!header) return fail("unparseable result header");
  if (header->batch != batch || header->first != info.first ||
      header->end != info.end)
    return fail("result header geometry does not match the batch");
  if (header->records != info.end - info.first)
    return fail("result header record count does not match the batch");

  Harvest harvest;
  while (std::getline(in, line)) {
    if (line.empty()) return fail("blank line inside result body");
    const auto parsed = obs::json::parse(line);
    if (!parsed || !parsed->is_object())
      return fail("unparseable record line (torn write?)");
    const obs::json::Value* index = parsed->find("index");
    const obs::json::Value* verdict = parsed->find("verdict");
    const obs::json::Value* states = parsed->find("states");
    if (index == nullptr || !index->is_exact_u64() || verdict == nullptr ||
        !verdict->is_string() || states == nullptr ||
        !states->is_exact_u64())
      return fail("record line lacks an integer index/states or a verdict");
    if (index->as_u64() != info.first + harvest.records)
      return fail("record indices out of order or out of range");
    const std::string v = verdict->as_string();
    if (v == "agree") {
      ++harvest.agree;
    } else if (v == "disagree") {
      ++harvest.disagree;
    } else if (v == "skip") {
      ++harvest.skip;
    } else {
      return fail("unknown verdict '" + v + "'");
    }
    harvest.states += states->as_u64();
    ++harvest.records;
  }
  if (harvest.records != header->records)
    return fail("result file truncated: " + std::to_string(harvest.records) +
                " of " + std::to_string(header->records) + " records");
  return harvest;
}

void remove_quiet(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

obs::RunReport FleetResult::report(const FleetConfig& config) const {
  obs::RunReport r;
  r.name = "fleet";
  r.kind = "fleet";
  r.labels["seed"] = std::to_string(config.campaign.seed);
  r.labels["outcome"] = !complete          ? "incomplete"
                        : disagree == 0    ? "clean"
                                           : "disagreements";
  r.values["count"] = static_cast<double>(config.campaign.count);
  r.values["batch_size"] = static_cast<double>(config.batch_size);
  r.values["batches_total"] = static_cast<double>(batches_total);
  r.values["batches_done"] = static_cast<double>(batches_done);
  r.values["batches_quarantined"] = static_cast<double>(batches_quarantined);
  r.values["records"] = static_cast<double>(records);
  r.values["agree"] = static_cast<double>(agree);
  r.values["disagree"] = static_cast<double>(disagree);
  r.values["skip"] = static_cast<double>(skip);
  r.values["states_total"] = static_cast<double>(states_total);
  // Environment-dependent (worker scheduling, kill timing, resume state):
  // bench_compare informs on these, never gates.
  r.values["retries"] = static_cast<double>(retries);
  r.values["resumed_results"] = static_cast<double>(resumed_results);
  r.values["truth_records"] = static_cast<double>(truth_records);
  r.values["elapsed_seconds"] = elapsed_seconds;
  r.values["scenarios_per_second"] =
      elapsed_seconds > 0 ? static_cast<double>(records) / elapsed_seconds : 0;
  return r;
}

FleetResult run_coordinator(const FleetConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  WORMSIM_EXPECTS(!config.run_dir.empty());
  WORMSIM_EXPECTS(config.batch_size >= 1);
  WORMSIM_EXPECTS(config.max_attempts >= 1);
  const RunPaths paths(config.run_dir);

  std::error_code ec;
  for (const std::string& dir :
       {paths.run_dir(), paths.queue_dir(), paths.claims_dir(),
        paths.results_dir(), paths.quarantine_dir()})
    fs::create_directories(dir, ec);

  // The manifest is the campaign's identity. First coordinator writes it;
  // every later one (a resume) inherits it wholesale, so a resumed run can
  // never silently switch seeds, knobs, or batch geometry mid-directory.
  FleetManifest manifest;
  if (const auto text = util::read_file(paths.manifest())) {
    const auto existing = FleetManifest::from_json(*text);
    WORMSIM_EXPECTS(existing.has_value());  // a run dir with a broken
                                            // manifest is unusable
    manifest = *existing;
    WORMSIM_LOG(Info) << "fleet: resuming run dir " << config.run_dir
                      << " (seed " << manifest.seed << ", count "
                      << manifest.count << ")";
  } else {
    manifest = manifest_for(config.campaign, config.batch_size,
                            config.max_attempts, config.lease_seconds);
    WORMSIM_EXPECTS(
        util::write_file_atomic(paths.manifest(), manifest.to_json()));
  }
  // A previous coordinator's sentinel is void: this run re-decides it.
  remove_quiet(paths.shutdown());

  const std::uint64_t count = manifest.count;
  const std::uint64_t batch_size = manifest.batch_size;
  const std::uint64_t total =
      batch_size == 0 ? 0 : (count + batch_size - 1) / batch_size;

  std::vector<BatchInfo> batches(total);
  for (std::uint64_t b = 0; b < total; ++b) {
    batches[b].first = b * batch_size;
    batches[b].end = std::min(count, (b + 1) * batch_size);
  }

  // The coordinator's store accumulates every batch's fresh truth records
  // and checkpoints them into truth.cache, which joining workers load to
  // start warm. Records loaded here (a resume) are already persisted.
  campaign::TruthStore store(manifest.truth_fingerprint);
  (void)store.load(paths.truth_cache());

  FleetResult result;
  result.batches_total = total;
  result.merged_path = paths.merged();

  // merged.jsonl is rebuilt from the result files on every coordinator
  // start — they are the durable record; the merge is a view. Rebuilding
  // costs one sequential read per result file (disk speed, no searches).
  std::ofstream merged(paths.merged(), std::ios::binary | std::ios::trunc);
  WORMSIM_EXPECTS(bool(merged));
  std::uint64_t next_merge = 0;  ///< first batch not yet appended

  // Live heartbeat (kind="fleet"). The sampler thread reads a snapshot
  // prototype the poll loop refreshes under a mutex.
  std::mutex live_mu;
  obs::StatusSnapshot live;
  live.kind = "fleet";
  live.count = count;
  live.first_index = 0;
  live.end_index = count;
  live.fleet.batches_total = total;
  std::optional<obs::StatusSampler> sampler;
  if (!config.status_file.empty())
    sampler.emplace(config.status_file, config.status_interval_seconds,
                    [&live_mu, &live] {
                      std::lock_guard<std::mutex> lock(live_mu);
                      return live;
                    });

  bool first_scan = true;
  // Takes a batch whose quarantine record is on disk out of circulation.
  const auto retire = [&](std::uint64_t b) {
    remove_quiet(paths.batch_task(b));
    remove_quiet(paths.batch_claim(b));
    batches[b].state = BatchState::kQuarantined;
    ++result.batches_quarantined;
  };
  const auto quarantine = [&](std::uint64_t b, const std::string& reason) {
    BatchInfo& info = batches[b];
    QuarantineRecord q;
    q.batch = b;
    q.first = info.first;
    q.end = info.end;
    q.attempts = info.attempt;
    q.reason = reason;
    (void)util::write_file_atomic(paths.batch_quarantine(b), q.to_json());
    retire(b);
    WORMSIM_LOG(Warn) << "fleet: quarantined batch " << b << " (indices ["
                      << info.first << ", " << info.end << ")) after "
                      << info.attempt << " attempt(s): " << reason;
  };
  const auto requeue = [&](std::uint64_t b, const std::string& why) {
    BatchInfo& info = batches[b];
    if (info.attempt >= manifest.max_attempts) {
      quarantine(b, why + " (attempt budget exhausted)");
      return;
    }
    ++info.attempt;
    ++result.retries;
    BatchTask task{b, info.first, info.end, info.attempt};
    (void)util::write_file_atomic(paths.batch_task(b), task.to_json());
    info.state = BatchState::kQueued;
    WORMSIM_LOG(Info) << "fleet: re-queued batch " << b << " (attempt "
                      << info.attempt << "): " << why;
  };

  // Accepts a validated result: tallies, truth delta, batch bookkeeping.
  const auto accept = [&](std::uint64_t b, const Harvest& harvest) {
    BatchInfo& info = batches[b];
    info.agree = harvest.agree;
    info.disagree = harvest.disagree;
    info.skip = harvest.skip;
    info.states = harvest.states;
    info.state = BatchState::kDone;
    ++result.batches_done;
    result.records += harvest.records;
    result.agree += harvest.agree;
    result.disagree += harvest.disagree;
    result.skip += harvest.skip;
    result.states_total += harvest.states;
    remove_quiet(paths.batch_task(b));
    remove_quiet(paths.batch_claim(b));
    // The batch's truth delta: merge (never contradicts — ground truth is
    // deterministic) and checkpoint below. A missing or foreign-fingerprint
    // delta costs warmth, not correctness.
    campaign::TruthStore delta(store.fingerprint());
    if (delta.load(paths.batch_cache(b)).fingerprint_ok) {
      std::string error;
      if (!store.merge_from(delta, &error)) {
        WORMSIM_LOG(Warn) << "fleet: batch " << b
                          << " truth delta rejected: " << error;
      }
    }
  };

  for (;;) {
    // One pass of the batch state machine over the observable run dir.
    for (std::uint64_t b = 0; b < total; ++b) {
      BatchInfo& info = batches[b];
      if (info.state == BatchState::kQuarantined) continue;
      if (info.state == BatchState::kDone) {
        // A zombie worker (its lease expired, the batch was finished by
        // someone else) may still drop files; keep the directory tidy.
        remove_quiet(paths.batch_task(b));
        remove_quiet(paths.batch_claim(b));
        continue;
      }

      // 1. A result file settles the batch, valid or not.
      if (const auto text = util::read_file(paths.batch_result(b))) {
        std::string why;
        if (const auto harvest = validate_result(*text, b, info, &why)) {
          accept(b, *harvest);
          if (first_scan) ++result.resumed_results;
        } else {
          // Preserve the rejected bytes as evidence, then retry.
          fs::rename(paths.batch_result(b),
                     paths.quarantine_evidence(b, info.attempt), ec);
          if (ec) remove_quiet(paths.batch_result(b));
          remove_quiet(paths.batch_cache(b));
          remove_quiet(paths.batch_claim(b));
          WORMSIM_LOG(Warn) << "fleet: rejected result for batch " << b
                            << ": " << why << " (evidence kept at "
                            << paths.quarantine_evidence(b, info.attempt)
                            << ")";
          requeue(b, "invalid result: " + why);
        }
        continue;
      }

      // 2. A quarantine record from an earlier coordinator keeps the batch
      // out of circulation until an operator deletes the record.
      if (first_scan && fs::exists(paths.batch_quarantine(b), ec)) {
        retire(b);
        continue;
      }

      // 3. A claim file means some worker holds (or held) the lease.
      if (fs::exists(paths.batch_claim(b), ec)) {
        info.state = BatchState::kLeased;
        if (mtime_age_seconds(paths.batch_claim(b)) > manifest.lease_seconds) {
          remove_quiet(paths.batch_claim(b));
          requeue(b, "lease expired (worker lost?)");
        }
        continue;
      }

      // 4. A queue file: waiting for a worker. Refresh the attempt count
      // from the file on the first scan (a resumed coordinator inherits
      // re-queues its predecessor issued).
      if (const auto text = util::read_file(paths.batch_task(b))) {
        if (first_scan) {
          if (const auto task = BatchTask::from_json(*text))
            info.attempt = std::max<std::uint64_t>(1, task->attempt);
        }
        info.state = BatchState::kQueued;
        continue;
      }

      // 5. Nothing on disk at all: publish the batch. Covers both the
      // fresh-run case and self-healing after a crash that removed a claim
      // without re-queuing.
      BatchTask task{b, info.first, info.end, info.attempt};
      (void)util::write_file_atomic(paths.batch_task(b), task.to_json());
      info.state = BatchState::kQueued;
    }
    first_scan = false;

    // Streaming merge: append finished batches strictly in batch order, so
    // merged.jsonl is at every instant a byte-identical prefix of the
    // single-process campaign output. A quarantined batch is a hole the
    // merge must stop at — bytes after a hole would misrepresent the file
    // as contiguous.
    while (next_merge < total &&
           batches[next_merge].state == BatchState::kDone &&
           !batches[next_merge].merged) {
      const auto text = util::read_file(paths.batch_result(next_merge));
      WORMSIM_EXPECTS(text.has_value());  // accepted above; still on disk
      const std::size_t body = text->find('\n');
      WORMSIM_EXPECTS(body != std::string::npos);
      merged.write(text->data() + body + 1,
                   static_cast<std::streamsize>(text->size() - body - 1));
      merged.flush();
      batches[next_merge].merged = true;
      ++next_merge;
    }

    // Persist fresh truth records so late-joining workers (and a coordinator
    // restart) start warm. Append-only; torn tails self-heal on load.
    if (store.unpersisted() > 0 && !store.checkpoint(paths.truth_cache())) {
      WORMSIM_LOG(Warn) << "fleet: truth.cache checkpoint failed";
    }

    // Refresh the heartbeat prototype.
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live.done = result.records;
      live.agree = result.agree;
      live.disagree = result.disagree;
      live.skip = result.skip;
      live.states_total = result.states_total;
      live.fleet.batches_done = result.batches_done;
      live.fleet.batches_quarantined = result.batches_quarantined;
      live.fleet.retries = result.retries;
      std::uint64_t queued = 0, leased = 0;
      for (const BatchInfo& info : batches) {
        queued += info.state == BatchState::kQueued ? 1 : 0;
        leased += info.state == BatchState::kLeased ? 1 : 0;
      }
      live.fleet.batches_queued = queued;
      live.fleet.batches_leased = leased;
      live.fleet.workers_active = leased;  // one live lease per worker
      live.fleet.merged_records =
          next_merge == 0 ? 0 : batches[next_merge - 1].end;
      live.fleet.truth_records = store.size();
    }

    const bool all_settled = result.batches_done +
                                 result.batches_quarantined ==
                             total;
    if (all_settled) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.poll_interval_seconds));
  }

  merged.close();
  result.complete = result.batches_quarantined == 0;
  result.truth_records = store.size();
  if (store.unpersisted() > 0) (void)store.checkpoint(paths.truth_cache());

  // The sentinel releases waiting workers; written last so a worker that
  // sees it can rely on the merge and checkpoint being final.
  ShutdownSentinel sentinel{result.complete};
  (void)util::write_file_atomic(paths.shutdown(), sentinel.to_json());

  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (sampler) {
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live.fleet.workers_active = 0;
      live.fleet.batches_leased = 0;
      live.fleet.batches_queued = 0;
    }
    sampler->stop();
  }
  return result;
}

}  // namespace wormsim::fleet
