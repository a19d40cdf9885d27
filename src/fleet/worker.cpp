#include "fleet/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/truth_store.hpp"
#include "fleet/protocol.hpp"
#include "util/file.hpp"
#include "util/log.hpp"

namespace wormsim::fleet {

namespace fs = std::filesystem;

namespace {

/// Lease rewrites per lease horizon: a live worker renews every third of
/// the manifest's lease_seconds, so two missed renewals still leave it
/// inside the horizon.
constexpr double kRenewalsPerLease = 3;

/// Rewrites the claim file on an interval so its mtime stays inside the
/// coordinator's lease horizon. A killed worker stops renewing by dying,
/// which IS the crash-detection protocol — no heartbeat channel needed.
class LeaseRenewer {
 public:
  LeaseRenewer(std::string path, BatchLease lease, double interval_seconds)
      : path_(std::move(path)),
        lease_(std::move(lease)),
        interval_seconds_(interval_seconds),
        thread_([this] { loop(); }) {}

  ~LeaseRenewer() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait_for(lk, std::chrono::duration<double>(interval_seconds_),
                   [this] { return stopped_; });
      if (stopped_) return;
      ++lease_.renewals;
      const std::string body = lease_.to_json();
      lk.unlock();
      (void)util::write_file_atomic(path_, body);
      lk.lock();
    }
  }

  std::string path_;
  BatchLease lease_;
  double interval_seconds_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// Batch ordinals currently waiting in queue/, ascending — workers drain
/// the index space in order, which keeps the coordinator's merge frontier
/// moving and merged.jsonl growing from the front.
std::vector<std::uint64_t> queued_batches(const RunPaths& paths) {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(paths.queue_dir(), ec)) {
    const auto id =
        RunPaths::parse_batch_stem(entry.path().filename().string());
    if (id) ids.push_back(*id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool shutdown_seen(const RunPaths& paths) {
  const auto text = util::read_file(paths.shutdown());
  return text && ShutdownSentinel::from_json(*text).has_value();
}

}  // namespace

WorkerResult run_worker(const WorkerConfig& config) {
  WorkerResult result;
  const RunPaths paths(config.run_dir);
  const std::string name =
      config.name.empty() ? "w" + std::to_string(::getpid()) : config.name;

  // Wait for the manifest: workers may legitimately start first.
  std::optional<FleetManifest> manifest;
  const auto wait_start = std::chrono::steady_clock::now();
  for (;;) {
    if (const auto text = util::read_file(paths.manifest())) {
      manifest = FleetManifest::from_json(*text);
      if (manifest) break;
    }
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - wait_start;
    if (waited.count() >= config.manifest_wait_seconds) {
      result.exit_reason = "no-manifest";
      return result;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.poll_interval_seconds));
  }

  // The manifest is the only source of campaign identity. If this binary
  // derives a different truth fingerprint from the same knobs, it is a
  // different behaviour version than the coordinator's — its records would
  // poison the shared cache, so refuse to serve.
  const campaign::CampaignConfig campaign_config =
      campaign_config_from(*manifest);
  if (campaign::campaign_truth_fingerprint(campaign_config.eval) !=
      manifest->truth_fingerprint) {
    WORMSIM_LOG(Warn) << "fleet worker " << name
                      << ": truth fingerprint mismatch against the manifest "
                         "(mixed binary versions?)";
    result.exit_reason = "manifest-mismatch";
    return result;
  }

  // Warm start: everything the fleet has already learned. Records loaded
  // here surface as disk hits, exactly like a wormsim_campaign
  // --cache-file rerun.
  campaign::TruthStore store(manifest->truth_fingerprint);
  (void)store.load(paths.truth_cache());

  const double renew_interval =
      std::max(0.01, manifest->lease_seconds / kRenewalsPerLease);

  auto idle_since = std::chrono::steady_clock::now();
  for (;;) {
    if (config.max_batches > 0 && result.batches_done >= config.max_batches) {
      result.exit_reason = "max-batches";
      return result;
    }

    bool claimed = false;
    for (const std::uint64_t b : queued_batches(paths)) {
      // The claim: one rename. Exactly one contender finds the source.
      std::error_code ec;
      fs::rename(paths.batch_task(b), paths.batch_claim(b), ec);
      if (ec) continue;  // someone else won this batch
      claimed = true;

      const auto claim_text = util::read_file(paths.batch_claim(b));
      const auto task =
          claim_text ? BatchTask::from_json(*claim_text) : std::nullopt;
      if (!task) {
        // A corrupt queue file: drop the claim; the coordinator's
        // self-healing pass re-publishes the batch.
        fs::remove(paths.batch_claim(b), ec);
        break;
      }

      BatchLease lease;
      lease.batch = b;
      lease.first = task->first;
      lease.end = task->end;
      lease.attempt = task->attempt;
      lease.worker = name;
      lease.pid = static_cast<std::uint64_t>(::getpid());
      (void)util::write_file_atomic(paths.batch_claim(b), lease.to_json());

      {
        LeaseRenewer renewer(paths.batch_claim(b), lease, renew_interval);
        const campaign::CampaignResult batch = campaign::run_campaign_range(
            campaign_config, task->first, task->end, &store);

        // Publish order matters: the truth delta first, then the result —
        // the result file's appearance is the "batch finished" event, and
        // the coordinator merges the delta when (and only when) it accepts
        // the result.
        if (!store.checkpoint(paths.batch_cache(b))) {
          WORMSIM_LOG(Warn) << "fleet worker " << name
                            << ": truth delta write failed for batch " << b;
        }
        ResultHeader header;
        header.batch = b;
        header.first = task->first;
        header.end = task->end;
        header.attempt = task->attempt;
        header.worker = name;
        header.records = batch.records.size();
        std::ostringstream body;
        body << header.to_json() << "\n";
        batch.write_jsonl(body);
        (void)util::write_file_atomic(paths.batch_result(b), body.str());

        result.truth_disk_hits += batch.truth_disk_hits;
        result.truth_memo_hits += batch.truth_memo_hits;
        result.truth_misses += batch.truth_misses;
        result.truth_parked += batch.truth_parked;
        result.scenarios += batch.records.size();
        ++result.batches_done;
      }  // renewer stops before the claim is released

      // Release the claim — but only if it is still OURS. If the lease
      // expired mid-batch the coordinator may have handed the batch to a
      // successor whose claim now lives at this path; deleting that would
      // re-trigger an expiry for work that is not lost.
      if (const auto text = util::read_file(paths.batch_claim(b))) {
        const auto current = BatchLease::from_json(*text);
        if (current && current->worker == name &&
            current->pid == static_cast<std::uint64_t>(::getpid()))
          fs::remove(paths.batch_claim(b), ec);
      }
      break;  // rescan the queue from the lowest ordinal
    }

    if (claimed) {
      idle_since = std::chrono::steady_clock::now();
      continue;
    }
    if (shutdown_seen(paths)) {
      result.exit_reason = "shutdown";
      return result;
    }
    if (config.max_idle_seconds > 0) {
      const std::chrono::duration<double> idle =
          std::chrono::steady_clock::now() - idle_since;
      if (idle.count() >= config.max_idle_seconds) {
        result.exit_reason = "idle-timeout";
        return result;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.poll_interval_seconds));
  }
}

}  // namespace wormsim::fleet
