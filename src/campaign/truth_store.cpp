#include "campaign/truth_store.hpp"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/file.hpp"
#include "util/text.hpp"

namespace wormsim::campaign {

namespace {

constexpr std::string_view kMagic = "wormsim-truthstore";
constexpr std::string_view kVersion = "v1";

/// Bump when probe construction changes what a stored verdict means (new
/// family probe shape, different cycle-probe message lengths, ...). Folded
/// into every fingerprint, so old caches age out as misses instead of
/// serving stale truth.
constexpr std::uint64_t kBehaviourVersion = 1;

/// Version of the state-key encoding that a memo byte budget is charged
/// against (2: varint per-message segments, about a quarter of the bytes
/// of version 1's fixed-width key with a per-channel section). The same
/// budget now holds more states, so an over-budget "inconclusive" stored
/// under one version may be decidable under the next. Folded only into
/// budgeted fingerprints: unbudgeted searches explore the same states
/// under any encoding, and their caches stay warm.
constexpr int kMemoKeyEncoding = 2;

/// Canonical byte-at-a-time FNV-1a (distinct from state_table's lane-wise
/// variant: this digest is persisted, so it must not depend on in-memory
/// layout tricks).
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Splits one record line into exactly `n` tab-separated fields.
std::optional<std::vector<std::string_view>> split_fields(
    std::string_view line, std::size_t n) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      fields.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  if (fields.size() != n) return std::nullopt;
  return fields;
}

std::string record_payload(const std::string& key, const TruthRecord& record) {
  std::ostringstream os;
  os << key << "\t" << to_string(record.outcome) << "\t" << record.states;
  return os.str();
}

/// "wormsim-truthstore v1 fp=<hex16>\n", the first line of every file.
std::string header_line(std::uint64_t fingerprint) {
  return std::string(kMagic) + " " + std::string(kVersion) +
         " fp=" + util::hex16(fingerprint) + "\n";
}

/// Parses "wormsim-truthstore v1 fp=<hex16>"; nullopt unless magic,
/// version, and fingerprint all parse.
std::optional<std::uint64_t> parse_header(const std::string& header) {
  std::istringstream hs(header);
  std::string magic, version, fp;
  hs >> magic >> version >> fp;
  if (magic != kMagic || version != kVersion) return std::nullopt;
  if (fp.rfind("fp=", 0) != 0) return std::nullopt;
  return util::parse_hex16(std::string_view(fp).substr(3));
}

}  // namespace

const char* to_string(SearchOutcome outcome) {
  switch (outcome) {
    case SearchOutcome::kNotRun: return "not-run";
    case SearchOutcome::kDeadlock: return "deadlock";
    case SearchOutcome::kNoDeadlock: return "no-deadlock";
    case SearchOutcome::kInconclusive: return "inconclusive";
  }
  WORMSIM_UNREACHABLE("bad SearchOutcome");
}

std::optional<SearchOutcome> outcome_from_string(std::string_view text) {
  for (const SearchOutcome o :
       {SearchOutcome::kNotRun, SearchOutcome::kDeadlock,
        SearchOutcome::kNoDeadlock, SearchOutcome::kInconclusive}) {
    if (text == to_string(o)) return o;
  }
  return std::nullopt;
}

std::uint64_t truth_fingerprint(const analysis::SearchLimits& limits) {
  // Canonical text, not raw struct bytes: the digest must survive struct
  // layout and field-order changes, and stay printable for triage.
  std::ostringstream os;
  os << "behaviour=" << kBehaviourVersion
     << ";buffer_depth=" << limits.buffer_depth
     << ";max_states=" << limits.max_states
     << ";delay_budget=" << limits.delay_budget
     << ";metric=" << static_cast<int>(limits.metric)
     << ";max_branches=" << analysis::kMaxBranchesPerState
     << ";cycles_probed=" << kMaxCyclesProbed
     << ";acyclic_messages=" << kAcyclicProbeMessages;
  // Only knobs that change what a record CONTAINS are folded in. Reduction
  // keeps the verdict but changes the recorded states count, so the default
  // kSafe folds ";reduction=safe" and gets its own cache namespace; kOff
  // appends nothing, so a store written before kSafe became the default
  // stays warm for --reduction off only. threads is never folded: the
  // campaign forces single-threaded searches, so it cannot affect records.
  if (limits.reduction != analysis::ReductionMode::kOff)
    os << ";reduction=" << analysis::to_string(limits.reduction);
  // A byte budget can turn exhaustive verdicts inconclusive, so it gets its
  // own cache namespace; unlimited appends nothing, keeping every existing
  // cache file warm.
  if (limits.memo_budget_bytes != 0)
    os << ";memo_budget=" << limits.memo_budget_bytes
       << ";key_encoding=" << kMemoKeyEncoding;
  return fnv1a(os.str());
}

TruthStore::Claim::Claim(TruthStore* store, Map::iterator entry,
                         std::shared_ptr<Flight> flight)
    : kind_(Kind::kOwner),
      store_(store),
      entry_(entry),
      flight_(std::move(flight)) {}

TruthStore::Claim::Claim(Claim&& other) noexcept
    : kind_(other.kind_),
      record_(other.record_),
      store_(other.store_),
      entry_(other.entry_),
      flight_(std::move(other.flight_)) {}

TruthStore::Claim::~Claim() {
  if (flight_ == nullptr) return;  // not an owner, or moved from
  const std::scoped_lock lock(store_->mu_);
  if (flight_->done) return;  // settled by insert()
  // Released without a record: drop the entry and wake the waiters. The
  // first of them to probe the key again claims it.
  store_->map_.erase(entry_);
  --store_->in_flight_;
  flight_->done = true;
  flight_->settled.notify_all();
}

void TruthStore::settle(Entry& entry, const TruthRecord& record) {
  entry.record = record;
  if (entry.flight == nullptr) return;
  entry.flight->done = true;
  entry.flight->settled.notify_all();
  entry.flight.reset();
  --in_flight_;
}

std::size_t TruthStore::size() const {
  const std::scoped_lock lock(mu_);
  return map_.size() - in_flight_;
}

std::optional<TruthRecord> TruthStore::lookup(const std::string& key) const {
  const std::scoped_lock lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end() || it->second.flight != nullptr) return std::nullopt;
  return it->second.record;
}

TruthStore::Claim TruthStore::claim(const std::string& key, bool wait) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto [it, fresh] = map_.try_emplace(key);
    Entry& entry = it->second;
    if (fresh) {
      entry.flight = std::make_shared<Flight>();
      ++in_flight_;
      return Claim(this, it, entry.flight);
    }
    if (entry.flight == nullptr) return Claim(Claim::Kind::kHit, entry.record);
    if (!wait) return Claim(Claim::Kind::kInFlight, TruthRecord{});
    // Hold the flight, not the entry: a released claim erases the entry,
    // and the next pass either finds the record or claims the key.
    const std::shared_ptr<Flight> flight = entry.flight;
    flight->settled.wait(lock, [&flight] { return flight->done; });
  }
}

void TruthStore::insert(const std::string& key, TruthRecord record) {
  const std::scoped_lock lock(mu_);
  const auto [it, fresh] = map_.try_emplace(key);
  Entry& entry = it->second;
  if (!fresh && entry.flight == nullptr &&
      entry.record.outcome == record.outcome &&
      entry.record.states == record.states)
    return;  // identical record: nothing new to persist
  settle(entry, record);
  unpersisted_.push_back(key);
}

std::size_t TruthStore::unpersisted() const {
  const std::scoped_lock lock(mu_);
  return unpersisted_.size();
}

bool TruthStore::checkpoint(const std::string& path) {
  // Holds the lock throughout, so an insert racing the write either lands
  // in it or stays pending for the next call.
  const std::scoped_lock lock(mu_);
  if (unpersisted_.empty()) return true;

  bool ours = false;
  {
    std::ifstream in(path, std::ios::binary);
    std::string header;
    ours = in && std::getline(in, header) &&
           parse_header(header) == fingerprint_;
  }
  if (!ours) {
    // Missing, empty, foreign or unreadable: appending could corrupt it.
    // Replace it with a full snapshot (the stale-store policy: overwrite,
    // never mix), which also creates missing parent directories.
    if (!util::write_file_atomic(path, snapshot())) return false;
  } else {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    for (const std::string& key : unpersisted_) {
      const auto it = map_.find(key);
      if (it == map_.end()) continue;  // cannot happen today; belt-and-braces
      out << format_record(key, it->second.record) << "\n";
    }
    out.flush();
    if (!out) return false;  // torn tail is truncated by the next load()
  }
  unpersisted_.clear();
  return true;
}

std::string TruthStore::format_record(const std::string& key,
                                      const TruthRecord& record) {
  const std::string payload = record_payload(key, record);
  return payload + "\t" + util::hex16(fnv1a(payload));
}

TruthLoadStats TruthStore::load(const std::string& path) {
  TruthLoadStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // cold start: no file yet
  stats.loaded = true;

  std::string header;
  if (!std::getline(in, header)) return stats;  // empty file: version fails

  // Header: "wormsim-truthstore v1 fp=<hex16>". A wrong-version file sets
  // neither flag; a right-version file with a malformed fingerprint field
  // counts as version_ok but never fingerprint_ok.
  std::istringstream hs(header);
  std::string magic, version;
  hs >> magic >> version;
  if (magic != kMagic || version != kVersion) return stats;
  stats.version_ok = true;
  const auto file_fp = parse_header(header);
  if (!file_fp || *file_fp != fingerprint_) return stats;
  stats.fingerprint_ok = true;

  // Records until the first malformed line; everything after it is the
  // corrupt tail. A partial final line from a torn write lands here too.
  std::string line;
  bool corrupt = false;
  while (std::getline(in, line)) {
    if (corrupt) {
      ++stats.dropped;
      continue;
    }
    const auto parts = split_fields(line, 4);
    std::optional<SearchOutcome> outcome;
    std::optional<std::uint64_t> states, checksum;
    if (parts) {
      outcome = outcome_from_string((*parts)[1]);
      states = util::parse_u64((*parts)[2]);
      checksum = util::parse_hex16((*parts)[3]);
    }
    const std::size_t payload_len = line.rfind('\t');
    if (!parts || !outcome || !states || !checksum ||
        *checksum != fnv1a(std::string_view(line).substr(0, payload_len))) {
      corrupt = true;
      ++stats.dropped;
      continue;
    }
    const std::scoped_lock lock(mu_);
    settle(map_[std::string((*parts)[0])],
           TruthRecord{*outcome, *states, /*from_disk=*/true});
    ++stats.records;
  }
  return stats;
}

std::string TruthStore::snapshot() const {
  std::string text = header_line(fingerprint_);
  for (const auto& [key, entry] : map_)
    if (entry.flight == nullptr)
      text += format_record(key, entry.record) + "\n";
  return text;
}

bool TruthStore::save(const std::string& path) const {
  std::string text;
  {
    const std::scoped_lock lock(mu_);
    text = snapshot();
  }
  return util::write_file_atomic(path, text);
}

}  // namespace wormsim::campaign
