#include "obs/status.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/json.hpp"
#include "util/file.hpp"

namespace wormsim::obs {

namespace {

/// The block the `search` object and every worker entry share: the
/// counters in table order, then the derived rates and percentiles.
void append_profile(std::string& out, const SearchProfile& p) {
  for (const ProfileCounter& c : kProfileCounters)
    out += "," + json::quote(c.name) + ":" + json::number_u64(p.*c.field);
  out += ",\"memo_hit_rate\":" + json::number(p.memo_hit_rate());
  out += ",\"branch_p50\":" + json::number(p.branch_factor.p50());
  out += ",\"branch_p90\":" + json::number(p.branch_factor.p90());
  out += ",\"branch_p99\":" + json::number(p.branch_factor.p99());
}

void append_search(std::string& out, const SearchStatus& s) {
  out += "{\"active\":";
  out += s.active ? "true" : "false";
  out += ",\"searches_started\":" + json::number_u64(s.searches_started);
  out += ",\"searches_finished\":" + json::number_u64(s.searches_finished);
  out += ",\"states_explored\":" + json::number_u64(s.states_explored);
  out += ",\"max_states\":" + json::number_u64(s.max_states);
  out += ",\"frontier_size\":" + json::number_u64(s.frontier_size);
  out += ",\"frontier_next\":" + json::number_u64(s.frontier_next);
  append_profile(out, s.profile);
  for (const TableStat& t : kTableStats)
    out += "," + json::quote(t.name) + ":" + json::number_u64(s.table.*t.field);
  out += "}";
}

void append_sim(std::string& out, const SimStatus& s) {
  out += "{\"active\":";
  out += s.active ? "true" : "false";
  out += ",\"core\":" + json::quote(s.core);
  for (const EventCoreCounter& c : kEventCoreCounters)
    out += "," + json::quote(c.name) + ":" +
           json::number_u64(s.events.*c.field);
  out += ",\"messages_total\":" + json::number_u64(s.messages_total);
  out += ",\"messages_consumed\":" + json::number_u64(s.messages_consumed);
  out += ",\"busy_channel_fraction\":" +
         json::number(s.busy_channel_fraction);
  out += "}";
}

void append_worker(std::string& out, const WorkerStatus& w) {
  out += "{\"in_flight\":" + json::number_u64(w.in_flight);
  out += ",\"done\":" + json::number_u64(w.done);
  out += ",\"agree\":" + json::number_u64(w.agree);
  out += ",\"disagree\":" + json::number_u64(w.disagree);
  out += ",\"skip\":" + json::number_u64(w.skip);
  out += ",\"states\":" + json::number_u64(w.states);
  append_profile(out, w.profile);
  out += "}";
}

}  // namespace

std::string StatusSnapshot::to_json() const {
  std::string out = "{\"schema\":";
  out += json::quote(kStatusSchema);
  out += ",\"kind\":" + json::quote(kind);
  out += ",\"seq\":" + json::number_u64(seq);
  out += ",\"pid\":" + json::number_u64(pid);
  out += ",\"running\":";
  out += running ? "true" : "false";
  out += ",\"elapsed_seconds\":" + json::number(elapsed_seconds);
  out += ",\"progress\":{";
  out += "\"count\":" + json::number_u64(count);
  out += ",\"done\":" + json::number_u64(done);
  out += ",\"agree\":" + json::number_u64(agree);
  out += ",\"disagree\":" + json::number_u64(disagree);
  out += ",\"skip\":" + json::number_u64(skip);
  out += ",\"states_total\":" + json::number_u64(states_total);
  out += ",\"rate_per_second\":" + json::number(rate_per_second);
  out += ",\"eta_seconds\":" + json::number(eta_seconds);
  out += "},\"truth_cache\":{";
  out += "\"disk_hits\":" + json::number_u64(truth_disk_hits);
  out += ",\"memo_hits\":" + json::number_u64(truth_memo_hits);
  out += ",\"misses\":" + json::number_u64(truth_misses);
  out += ",\"hit_rate\":" + json::number(truth_hit_rate);
  out += "},\"sim\":";
  append_sim(out, sim);
  out += ",\"search\":";
  append_search(out, search);
  out += ",\"workers\":[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (i) out += ',';
    append_worker(out, workers[i]);
  }
  out += "]}\n";
  return out;
}

StatusWriter::StatusWriter(std::string path) : path_(std::move(path)) {}

bool StatusWriter::write(StatusSnapshot snapshot) {
  snapshot.seq = seq_ + 1;
  snapshot.pid = static_cast<std::uint64_t>(::getpid());
  if (!util::write_file_atomic(path_, snapshot.to_json())) {
    ++failures_;
    return false;
  }
  ++seq_;
  return true;
}

std::optional<double> parse_seconds(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || !(v > 0))
    return std::nullopt;
  return v;
}

StatusSampler::StatusSampler(std::string path, double interval_seconds,
                             Producer producer)
    : writer_(std::move(path)),
      interval_seconds_(interval_seconds >= kMinIntervalSeconds
                            ? std::min(interval_seconds, kMaxIntervalSeconds)
                            : kMinIntervalSeconds),
      producer_(std::move(producer)),
      started_(std::chrono::steady_clock::now()) {
  write_once(true);  // the file exists as soon as the run starts
  thread_ = std::thread([this] { loop(); });
}

StatusSampler::~StatusSampler() { stop(); }

void StatusSampler::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::duration<double>(interval_seconds_),
                 [this] { return stop_; });
    if (stop_) break;
    lk.unlock();
    write_once(true);
    lk.lock();
  }
}

void StatusSampler::write_once(bool running) {
  StatusSnapshot snap = producer_();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started_;
  snap.elapsed_seconds = elapsed.count();
  snap.running = running;

  std::lock_guard<std::mutex> lock(mu_);
  // Rolling completion rate over the last samples; ETA for the rest of
  // the producer's count.
  window_.emplace_back(snap.elapsed_seconds, snap.done);
  while (window_.size() > 20) window_.pop_front();
  const double dt = window_.back().first - window_.front().first;
  const std::uint64_t ddone = window_.back().second - window_.front().second;
  snap.rate_per_second = dt > 0 ? static_cast<double>(ddone) / dt : 0;
  const std::uint64_t remaining =
      snap.count > snap.done ? snap.count - snap.done : 0;
  if (remaining == 0)
    snap.eta_seconds = 0;
  else if (snap.rate_per_second > 0)
    snap.eta_seconds = static_cast<double>(remaining) / snap.rate_per_second;
  else
    snap.eta_seconds = -1;  // unknown: no progress observed yet
  writer_.write(std::move(snap));
}

void StatusSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    stop_ = true;
    joined_ = true;
  }
  cv_.notify_all();
  thread_.join();
  write_once(false);
}

std::uint64_t StatusSampler::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writer_.writes();
}

std::uint64_t StatusSampler::write_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writer_.write_failures();
}

}  // namespace wormsim::obs
