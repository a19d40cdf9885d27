// Persistent ground-truth cache for the campaign engine.
//
// Ground truth for a scenario — what the exhaustive search decides — is a
// pure function of (scenario structure, search limits, probe sizes), so it
// can be memoized across campaign *processes*, not just within one run.
// A TruthStore is that memo table with a disk representation:
//
//   wormsim-truthstore v1 fp=<16 hex digits>
//   <key>\t<outcome>\t<states>\t<fnv64 checksum>
//   ...
//
// The format is line-oriented and append-friendly: every record is
// self-contained and carries its own checksum, so a write torn by a crash
// (or a concurrent reader catching a partial file) damages at most the tail.
// load() verifies the header and walks records until the first malformed or
// checksum-failing line, keeping the valid prefix and dropping the rest
// ("corrupt-tail truncation"). A live campaign appends its fresh records
// with checkpoint() and, at exit, replaces the file with save(), which
// never appends in place: it writes a complete sorted snapshot to a sibling
// temp file and atomically renames it over the destination, so readers and
// racing writers always observe a fully-formed file (last rename wins).
//
// The header's fingerprint hashes every knob that can change what the
// search would conclude (SearchLimits + the runner's probe parameters + a
// format-behaviour version). A store whose fingerprint differs from the
// campaign's is loaded as empty — every lookup misses — rather than
// rejected, because stale truth is merely useless, not dangerous: the
// campaign recomputes and the next save() replaces the file.
//
// Within a process the store is also single-flight: claim() lets exactly
// one caller search a missing key while concurrent callers for the same key
// park or wait for that caller's insert() instead of repeating the search.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/deadlock_search.hpp"

namespace wormsim::campaign {

/// What the exhaustive search concluded for one scenario. Lives here (not
/// runner.hpp) because it is part of the persisted record format.
enum class SearchOutcome : std::uint8_t {
  kNotRun,        ///< ground truth skipped (out-of-scope, probe gap)
  kDeadlock,      ///< the search reached a deadlock configuration
  kNoDeadlock,    ///< the bounded space was exhausted without one
  kInconclusive,  ///< state budget hit before a decision
};

const char* to_string(SearchOutcome outcome);

/// Parses to_string(SearchOutcome) output; nullopt for unknown text (a
/// corrupt or future-format record).
[[nodiscard]] std::optional<SearchOutcome> outcome_from_string(
    std::string_view text);

/// One cached ground-truth result. `states` is persisted exactly so a cache
/// hit reproduces the record's JSONL bytes bit-for-bit.
struct TruthRecord {
  SearchOutcome outcome = SearchOutcome::kNotRun;
  std::uint64_t states = 0;
  /// True when the record came from a loaded file rather than this process;
  /// not persisted. The runner uses it to split warm (cross-run) hits from
  /// in-run memoization hits.
  bool from_disk = false;
};

/// What load() found. `loaded` is false only when the file could not be
/// read at all (typically: it does not exist yet — a cold start).
struct TruthLoadStats {
  bool loaded = false;
  bool version_ok = false;      ///< magic + format version matched
  bool fingerprint_ok = false;  ///< header fingerprint matched this store's
  std::size_t records = 0;      ///< records accepted into the store
  std::size_t dropped = 0;      ///< trailing lines discarded as corrupt
};

/// The runner's probe sizes, folded into the fingerprint: a random cyclic
/// scenario examines up to kMaxCyclesProbed elementary CDG cycles before
/// declaring a witness gap, and a random acyclic one searches a sample of
/// kAcyclicProbeMessages messages.
inline constexpr std::size_t kMaxCyclesProbed = 8;
inline constexpr std::size_t kAcyclicProbeMessages = 4;

/// Digest of everything that can change a search verdict: the limits, the
/// probe sizes, and a constant bumped whenever probe construction itself
/// changes behaviour. Stores with a different fingerprint never serve hits.
[[nodiscard]] std::uint64_t truth_fingerprint(
    const analysis::SearchLimits& limits);

/// Thread-safe key -> TruthRecord map with the on-disk format above. The
/// campaign runner uses one instance as both its in-run memo table and its
/// cross-run cache.
class TruthStore {
  /// One claimed key: its waiters block on `settled` until `done`.
  struct Flight {
    std::condition_variable settled;
    bool done = false;
  };
  struct Entry {
    TruthRecord record;
    std::shared_ptr<Flight> flight;  ///< non-null while the key is claimed
  };
  using Map = std::map<std::string, Entry>;

 public:
  /// What claim() found for a key. A kOwner claim obliges its holder to
  /// search the key and settle it with insert(); destroying the claim
  /// unsettled (an exception path) releases the key, and one of its
  /// waiters claims it next.
  class Claim {
   public:
    enum class Kind : std::uint8_t {
      kHit,       ///< the key has a record: record()
      kOwner,     ///< this caller searches the key
      kInFlight,  ///< another owner is searching it (claim without wait)
    };

    Claim(Claim&& other) noexcept;
    ~Claim();

    [[nodiscard]] Kind kind() const { return kind_; }
    /// The stored record; kHit only.
    [[nodiscard]] const TruthRecord& record() const { return record_; }

   private:
    friend class TruthStore;
    Claim(Kind kind, TruthRecord record) : kind_(kind), record_(record) {}
    Claim(TruthStore* store, Map::iterator entry,
          std::shared_ptr<Flight> flight);

    Kind kind_;
    TruthRecord record_;
    // kOwner only.
    TruthStore* store_ = nullptr;
    Map::iterator entry_;
    std::shared_ptr<Flight> flight_;
  };

  TruthStore() = default;
  explicit TruthStore(std::uint64_t fingerprint) : fingerprint_(fingerprint) {}

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  /// Records held; claimed keys without a record do not count.
  [[nodiscard]] std::size_t size() const;

  /// The record for `key`; nullopt when it has none yet, claimed or not.
  [[nodiscard]] std::optional<TruthRecord> lookup(const std::string& key) const;

  /// lookup() that claims a missing key: the first caller to miss it gets
  /// kOwner, and every later caller finds the key in flight until the
  /// owner's insert(). Such a caller gets kInFlight at once, or with `wait`
  /// blocks until the key settles and then gets kHit (or kOwner, when the
  /// owner released the key without a record).
  [[nodiscard]] Claim claim(const std::string& key, bool wait);

  /// Inserts or overwrites, settling any claim on `key` and waking the
  /// callers waiting for it. `from_disk` is stored as given (the runner
  /// always inserts with false).
  void insert(const std::string& key, TruthRecord record);

  /// Merges `path` into this store (records marked from_disk). See
  /// TruthLoadStats for the outcome taxonomy; on version or fingerprint
  /// mismatch nothing is merged and every future lookup misses.
  TruthLoadStats load(const std::string& path);

  /// Atomically replaces `path` with a sorted snapshot of this store
  /// (util::write_file_atomic: temp file + rename, missing parent
  /// directories created). The snapshot is formatted under the store's
  /// lock and published after it is released. Returns false when the temp
  /// file cannot be written or the rename fails.
  [[nodiscard]] bool save(const std::string& path) const;

  /// Appends every record gained via insert() since the last checkpoint()
  /// to `path`. Records that arrived through load() are already on disk
  /// somewhere and are never re-appended. Because the format is
  /// line-oriented with per-record checksums, a crash mid-append damages at
  /// most the tail, which the next load() truncates away — a live
  /// campaign's crash-safe persistence. When `path` does not start with
  /// this store's header (missing, empty, foreign fingerprint, unreadable),
  /// writes a full atomic snapshot instead, as save() does. Runs under the
  /// store's lock. Returns false on I/O failure; the pending records are
  /// kept for the next attempt.
  [[nodiscard]] bool checkpoint(const std::string& path);

  /// Records gained since the last successful checkpoint() (or since
  /// construction). Lets callers skip a checkpoint when nothing is new.
  [[nodiscard]] std::size_t unpersisted() const;

  /// The serialized form of one record line (no trailing newline); exposed
  /// for tests that build corrupt files byte-by-byte.
  [[nodiscard]] static std::string format_record(const std::string& key,
                                                 const TruthRecord& record);

 private:
  /// Stores `record` in `entry`, settling its claim if it has one. Caller
  /// holds mu_.
  void settle(Entry& entry, const TruthRecord& record);
  /// The sorted file text of every settled record. Caller holds mu_.
  [[nodiscard]] std::string snapshot() const;

  mutable std::mutex mu_;
  std::uint64_t fingerprint_ = 0;
  Map map_;  ///< sorted => deterministic save; claimed keys have no record
  std::size_t in_flight_ = 0;  ///< entries with a live claim
  /// Keys inserted (not loaded) since the last checkpoint(), in arrival
  /// order. insert() only records a key whose mapping actually changed, so
  /// re-inserting an identical record never duplicates an append.
  std::vector<std::string> unpersisted_;
};

}  // namespace wormsim::campaign
