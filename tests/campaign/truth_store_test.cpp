// TruthStore: on-disk format robustness (corrupt tails, version and
// fingerprint mismatches), atomic-rename save under racing writers,
// append-only checkpoints, and single-flight claims.
#include "campaign/truth_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "util/text.hpp"

namespace wormsim::campaign {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFp = 0x1122334455667788ull;

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Canonical byte-at-a-time FNV-1a, the digest behind fingerprints and
/// record checksums.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// TruthStore holds a mutex, so it is neither movable nor copyable; tests
// fill stores in place.
void fill(TruthStore& store,
          std::initializer_list<std::pair<std::string, TruthRecord>> records) {
  for (const auto& [key, record] : records) store.insert(key, record);
}

TEST(TruthStore, SaveLoadRoundTripsEveryOutcome) {
  const std::string path = test::temp_dir("roundtrip.truthstore");
  TruthStore store(kFp);
  fill(store, {{"F-|2,2,1|1,3,0", {SearchOutcome::kDeadlock, 12345, false}},
            {"FH|2,4,1|2,6,1", {SearchOutcome::kNoDeadlock, 0, false}},
            {"R|uniring||5|1|0|tree|18446744073709551615",
             {SearchOutcome::kInconclusive, 2'000'000, false}},
            {"R|mesh|3x3|0|1|0|minimal|7", {SearchOutcome::kNotRun, 0, false}}});
  ASSERT_TRUE(store.save(path));

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.loaded);
  EXPECT_TRUE(stats.version_ok);
  EXPECT_TRUE(stats.fingerprint_ok);
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(loaded.size(), 4u);

  const auto hit = loaded.lookup("R|uniring||5|1|0|tree|18446744073709551615");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, SearchOutcome::kInconclusive);
  EXPECT_EQ(hit->states, 2'000'000u);
  EXPECT_TRUE(hit->from_disk);  // loaded records are warm, not in-run
  EXPECT_FALSE(loaded.lookup("absent").has_value());
}

TEST(TruthStore, MissingFileIsACleanColdStart) {
  TruthStore store(kFp);
  const TruthLoadStats stats = store.load(test::temp_dir("does_not_exist"));
  EXPECT_FALSE(stats.loaded);
  EXPECT_EQ(store.size(), 0u);
}

TEST(TruthStore, VersionMismatchRejectsEverything) {
  const std::string path = test::temp_dir("version.truthstore");
  TruthStore store(kFp);
  fill(store, {{"k", {SearchOutcome::kDeadlock, 1}}});
  ASSERT_TRUE(store.save(path));
  std::string text = test::slurp(path);
  const auto at = text.find(" v1 ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 4, " v9 ");
  write_file(path, text);

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.loaded);
  EXPECT_FALSE(stats.version_ok);
  EXPECT_FALSE(stats.fingerprint_ok);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(TruthStore, FingerprintMismatchLoadsAsAllMisses) {
  const std::string path = test::temp_dir("fingerprint.truthstore");
  TruthStore store(kFp);
  fill(store, {{"k", {SearchOutcome::kDeadlock, 1}}});
  ASSERT_TRUE(store.save(path));

  TruthStore other(kFp + 1);
  const TruthLoadStats stats = other.load(path);
  EXPECT_TRUE(stats.loaded);
  EXPECT_TRUE(stats.version_ok);
  EXPECT_FALSE(stats.fingerprint_ok);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_FALSE(other.lookup("k").has_value());
}

TEST(TruthStore, CorruptTailKeepsTheValidPrefix) {
  const std::string path = test::temp_dir("tail.truthstore");
  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}},
                       {"b", {SearchOutcome::kNoDeadlock, 20}},
                       {"c", {SearchOutcome::kDeadlock, 30}}});
  ASSERT_TRUE(store.save(path));
  // Simulate a torn append: truncate mid-way through the final record.
  std::string text = test::slurp(path);
  write_file(path, text.substr(0, text.size() - 9));

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.fingerprint_ok);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_TRUE(loaded.lookup("a").has_value());
  EXPECT_TRUE(loaded.lookup("b").has_value());
  EXPECT_FALSE(loaded.lookup("c").has_value());
}

TEST(TruthStore, ChecksumFailureTruncatesFromTheBadLine) {
  const std::string path = test::temp_dir("checksum.truthstore");
  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}},
                       {"b", {SearchOutcome::kNoDeadlock, 20}},
                       {"c", {SearchOutcome::kDeadlock, 30}}});
  ASSERT_TRUE(store.save(path));
  // Flip one digit of record "b"'s states field: its checksum now fails,
  // and — append-only semantics — everything after it is untrusted too.
  std::string text = test::slurp(path);
  const auto at = text.find("\t20\t");
  ASSERT_NE(at, std::string::npos);
  text[at + 1] = '9';
  write_file(path, text);

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_TRUE(loaded.lookup("a").has_value());
  EXPECT_FALSE(loaded.lookup("b").has_value());
  EXPECT_FALSE(loaded.lookup("c").has_value());
}

TEST(TruthStore, OverflowingStatesFieldIsCorrupt) {
  // 2^64 + 1 under a valid checksum: a wrapping decimal parser would load
  // it as states = 1 and a warm hit would write that into the JSONL.
  const std::string path = test::temp_dir("overflow.truthstore");
  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}}});
  ASSERT_TRUE(store.save(path));
  const std::string payload = "b\tdeadlock\t18446744073709551617";
  write_file(path,
             test::slurp(path) + payload + "\t" + util::hex16(fnv1a(payload)) +
                 "\n");

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.fingerprint_ok);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_TRUE(loaded.lookup("a").has_value());
  EXPECT_FALSE(loaded.lookup("b").has_value());
}

TEST(TruthStore, ConcurrentSaversLeaveAFullyFormedFile) {
  const std::string path = test::temp_dir("race.truthstore");
  // Writers with distinct record sets race save() on one path. Atomic
  // rename means the survivor must be one complete snapshot — never an
  // interleaving — so a load must recover some writer's exact record count
  // with nothing dropped.
  constexpr int kWriters = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      TruthStore mine(kFp);
      for (int k = 0; k <= w; ++k)
        mine.insert("writer" + std::to_string(w) + "/key" + std::to_string(k),
                    {SearchOutcome::kDeadlock, static_cast<std::uint64_t>(k)});
      for (int round = 0; round < kRounds; ++round)
        ASSERT_TRUE(mine.save(path));
    });
  }
  for (std::thread& t : threads) t.join();

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.fingerprint_ok);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GE(stats.records, 1u);
  EXPECT_LE(stats.records, static_cast<std::size_t>(kWriters));
  // Writer w's snapshot has w+1 records, all keyed "writerW/...".
  const std::string prefix =
      "writer" + std::to_string(stats.records - 1) + "/key0";
  EXPECT_TRUE(loaded.lookup(prefix).has_value());
  // No temp litter left behind.
  std::size_t temps = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(path).parent_path()))
    if (entry.path().string().find(path + ".tmp") != std::string::npos)
      ++temps;
  EXPECT_EQ(temps, 0u);
}

TEST(TruthStore, FingerprintTracksSearchKnobs) {
  analysis::SearchLimits limits;
  const std::uint64_t base = truth_fingerprint(limits);
  EXPECT_EQ(truth_fingerprint(limits), base);  // stable

  analysis::SearchLimits bigger = limits;
  bigger.max_states *= 2;
  EXPECT_NE(truth_fingerprint(bigger), base);
  // A memo byte budget can turn exhaustive verdicts inconclusive.
  analysis::SearchLimits budgeted = limits;
  budgeted.memo_budget_bytes = 1 << 20;
  EXPECT_NE(truth_fingerprint(budgeted), base);

  // Verdict-neutral knobs must NOT invalidate caches: witness strings and
  // the thread count never change what the search finds.
  analysis::SearchLimits cosmetic = limits;
  cosmetic.build_witness = !cosmetic.build_witness;
  cosmetic.threads = 7;
  EXPECT_EQ(truth_fingerprint(cosmetic), base);
}

TEST(TruthStore, FingerprintFoldsReductionOnlyWhenEnabled) {
  // Reduction keeps verdicts but changes recorded states counts, so the
  // default (safe) folds ";reduction=safe" into the canonical text while
  // off folds nothing — a store written before safe became the default
  // stays warm only for --reduction off. Both digests are pinned against
  // the canonical text directly.
  const std::string legacy =
      "behaviour=1;buffer_depth=1;max_states=2000000;delay_budget=0;"
      "metric=0;max_branches=4096;cycles_probed=8;acyclic_messages=4";

  const analysis::SearchLimits defaults;
  EXPECT_EQ(truth_fingerprint(defaults),
            fnv1a(legacy + ";reduction=safe"));

  analysis::SearchLimits off = defaults;
  off.reduction = analysis::ReductionMode::kOff;
  EXPECT_EQ(truth_fingerprint(off), fnv1a(legacy));

  // threads stays verdict-neutral regardless of the reduction mode.
  analysis::SearchLimits threaded = defaults;
  threaded.threads = 9;
  EXPECT_EQ(truth_fingerprint(threaded),
            truth_fingerprint(defaults));
}

TEST(TruthStore, BudgetedFingerprintFoldsTheKeyEncoding) {
  // A byte budget is charged in state-key bytes, so a key encoding that
  // changes the bytes per state changes which budgeted searches come back
  // inconclusive. Budgeted stores written under another encoding must
  // age out; the unbudgeted digests pinned above must not move.
  analysis::SearchLimits budgeted;
  budgeted.memo_budget_bytes = 1 << 20;
  EXPECT_EQ(truth_fingerprint(budgeted),
            fnv1a("behaviour=1;buffer_depth=1;max_states=2000000;"
                  "delay_budget=0;metric=0;max_branches=4096;"
                  "cycles_probed=8;acyclic_messages=4;reduction=safe;"
                  "memo_budget=1048576;key_encoding=2"));
}

TEST(TruthStoreCheckpoint, AppendsOnlyFreshRecordsAcrossCalls) {
  const std::string path = test::temp_dir("checkpoint.truthstore");
  fs::remove(path);
  TruthStore store(kFp);
  EXPECT_EQ(store.unpersisted(), 0u);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}},
               {"b", {SearchOutcome::kNoDeadlock, 20}}});
  EXPECT_EQ(store.unpersisted(), 2u);
  ASSERT_TRUE(store.checkpoint(path));  // creates the file with a header
  EXPECT_EQ(store.unpersisted(), 0u);
  const std::string after_first = test::slurp(path);

  // Nothing new: checkpoint is a no-op, the bytes do not change.
  ASSERT_TRUE(store.checkpoint(path));
  EXPECT_EQ(test::slurp(path), after_first);

  // One more record: exactly one line is appended, the prefix is intact.
  fill(store, {{"c", {SearchOutcome::kDeadlock, 30}}});
  EXPECT_EQ(store.unpersisted(), 1u);
  ASSERT_TRUE(store.checkpoint(path));
  const std::string after_second = test::slurp(path);
  EXPECT_EQ(after_second.rfind(after_first, 0), 0u)
      << "checkpoint must append, never rewrite the prefix";
  EXPECT_GT(after_second.size(), after_first.size());

  // Re-inserting an identical record is not "fresh" and never duplicates.
  store.insert("a", {SearchOutcome::kDeadlock, 10});
  EXPECT_EQ(store.unpersisted(), 0u);

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.fingerprint_ok);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(TruthStoreCheckpoint, MissingParentDirectoriesAreCreated) {
  const std::string path =
      test::temp_dir("checkpoint_parents") + "/deep/checkpoint.truthstore";
  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}}});
  ASSERT_TRUE(store.checkpoint(path));
  EXPECT_EQ(store.unpersisted(), 0u);
  TruthStore loaded(kFp);
  EXPECT_EQ(loaded.load(path).records, 1u);
}

TEST(TruthStoreCheckpoint, LoadedRecordsAreNeverReappended) {
  const std::string base = test::temp_dir("checkpoint_base.truthstore");
  TruthStore writer(kFp);
  fill(writer, {{"a", {SearchOutcome::kDeadlock, 10}},
                {"b", {SearchOutcome::kNoDeadlock, 20}}});
  ASSERT_TRUE(writer.save(base));

  // A store that loads the file and learns one new record checkpoints
  // only that record back — load()-gained records are already on disk.
  TruthStore store(kFp);
  ASSERT_TRUE(store.load(base).fingerprint_ok);
  EXPECT_EQ(store.unpersisted(), 0u);
  fill(store, {{"c", {SearchOutcome::kInconclusive, 30}}});
  const std::string before = test::slurp(base);
  ASSERT_TRUE(store.checkpoint(base));
  const std::string after = test::slurp(base);
  EXPECT_EQ(after.rfind(before, 0), 0u);

  TruthStore loaded(kFp);
  ASSERT_TRUE(loaded.load(base).fingerprint_ok);
  EXPECT_EQ(loaded.size(), 3u);
  // No duplicate lines: the file has exactly header + 3 records.
  std::size_t lines = 0;
  for (const char c : after) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);
}

TEST(TruthStoreCheckpoint, TornAppendTailSelfHealsOnLoad) {
  const std::string path = test::temp_dir("checkpoint_torn.truthstore");
  fs::remove(path);
  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}},
               {"b", {SearchOutcome::kNoDeadlock, 20}}});
  ASSERT_TRUE(store.checkpoint(path));
  // A crash mid-append leaves a partial final line.
  std::string text = test::slurp(path);
  write_file(path, text.substr(0, text.size() - 7));

  TruthStore loaded(kFp);
  const TruthLoadStats stats = loaded.load(path);
  EXPECT_TRUE(stats.fingerprint_ok);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.dropped, 1u);  // the torn tail, truncated away
  EXPECT_TRUE(loaded.lookup("a").has_value());
}

TEST(TruthStoreCheckpoint, ForeignFingerprintFallsBackToFullSave) {
  const std::string path = test::temp_dir("checkpoint_foreign.truthstore");
  TruthStore foreign(kFp + 1);
  fill(foreign, {{"x", {SearchOutcome::kDeadlock, 1}}});
  ASSERT_TRUE(foreign.save(path));

  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}}});
  ASSERT_TRUE(store.checkpoint(path));  // cannot append: replaces wholesale
  EXPECT_EQ(store.unpersisted(), 0u);

  TruthStore loaded(kFp);
  ASSERT_TRUE(loaded.load(path).fingerprint_ok);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.lookup("a").has_value());
  EXPECT_FALSE(loaded.lookup("x").has_value());
}

using ClaimKind = TruthStore::Claim::Kind;

/// Long enough for a started thread to reach its blocking wait; the claim
/// tests pass whether or not it has, they only exercise less without it.
void let_waiters_block() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(TruthStoreClaim, EightClaimersYieldOneOwner) {
  TruthStore store(kFp);
  constexpr int kClaimers = 8;
  std::array<std::optional<ClaimKind>, kClaimers> kinds;
  std::atomic<int> claimed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClaimers; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const TruthStore::Claim claim = store.claim("k", /*wait=*/false);
      kinds[t] = claim.kind();
      // Hold every claim until all have been made, so no owner releases
      // the key before a rival probes it.
      claimed.fetch_add(1);
      while (claimed.load() < kClaimers) std::this_thread::yield();
      if (claim.kind() == ClaimKind::kOwner)
        store.insert("k", {SearchOutcome::kNoDeadlock, 7});
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  int owners = 0, in_flight = 0;
  for (const auto& kind : kinds) {
    owners += kind == ClaimKind::kOwner ? 1 : 0;
    in_flight += kind == ClaimKind::kInFlight ? 1 : 0;
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(in_flight, kClaimers - 1);
  ASSERT_TRUE(store.lookup("k").has_value());
  EXPECT_EQ(store.lookup("k")->states, 7u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TruthStoreClaim, OwnerInsertWakesAWaiterWithTheRecord) {
  TruthStore store(kFp);
  const TruthStore::Claim owner = store.claim("k", /*wait=*/false);
  ASSERT_EQ(owner.kind(), ClaimKind::kOwner);
  const TruthStore::Claim rival = store.claim("j", /*wait=*/false);
  ASSERT_EQ(rival.kind(), ClaimKind::kOwner);

  std::optional<ClaimKind> waited_kind;
  TruthRecord waited_record;
  std::thread waiter([&] {
    const TruthStore::Claim claim = store.claim("k", /*wait=*/true);
    waited_kind = claim.kind();
    waited_record = claim.record();
  });
  std::atomic<bool> other_done{false};
  std::thread other([&] {
    const TruthStore::Claim claim = store.claim("j", /*wait=*/true);
    other_done.store(true);
  });
  let_waiters_block();
  store.insert("k", {SearchOutcome::kDeadlock, 42});
  waiter.join();
  EXPECT_EQ(waited_kind, ClaimKind::kHit);
  EXPECT_EQ(waited_record.outcome, SearchOutcome::kDeadlock);
  EXPECT_EQ(waited_record.states, 42u);
  EXPECT_FALSE(waited_record.from_disk);

  // Settling "k" does not release "j"'s waiter.
  let_waiters_block();
  EXPECT_FALSE(other_done.load());
  store.insert("j", {SearchOutcome::kNoDeadlock, 5});
  other.join();
  EXPECT_TRUE(other_done.load());
  EXPECT_EQ(store.size(), 2u);
}

TEST(TruthStoreClaim, ReleasedClaimPassesToAWaiter) {
  TruthStore store(kFp);
  std::optional<TruthStore::Claim> owner;
  owner.emplace(store.claim("k", /*wait=*/false));
  ASSERT_EQ(owner->kind(), ClaimKind::kOwner);

  std::optional<ClaimKind> waited_kind;
  std::thread waiter([&] {
    const TruthStore::Claim claim = store.claim("k", /*wait=*/true);
    waited_kind = claim.kind();
    if (claim.kind() == ClaimKind::kOwner)
      store.insert("k", {SearchOutcome::kInconclusive, 9});
  });
  let_waiters_block();
  owner.reset();  // destroyed without a record: an exception path
  waiter.join();
  EXPECT_EQ(waited_kind, ClaimKind::kOwner);
  ASSERT_TRUE(store.lookup("k").has_value());
  EXPECT_EQ(store.lookup("k")->states, 9u);

  // With no waiter, a released key is simply claimable again.
  owner.emplace(store.claim("fresh", /*wait=*/false));
  EXPECT_EQ(owner->kind(), ClaimKind::kOwner);
  owner.reset();
  EXPECT_FALSE(store.lookup("fresh").has_value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.claim("fresh", /*wait=*/true).kind(), ClaimKind::kOwner);
}

TEST(TruthStoreClaim, UnclaimedKeysKeepLookupAndInsert) {
  const std::string path = test::temp_dir("claimed.truthstore");
  TruthStore store(kFp);
  fill(store, {{"a", {SearchOutcome::kDeadlock, 10}}});
  const TruthStore::Claim held = store.claim("b", /*wait=*/false);
  ASSERT_EQ(held.kind(), ClaimKind::kOwner);

  // A claimed key has no record: lookup misses it, size and files skip it.
  ASSERT_TRUE(store.lookup("a").has_value());
  EXPECT_EQ(store.lookup("a")->states, 10u);
  EXPECT_FALSE(store.lookup("b").has_value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.unpersisted(), 1u);
  ASSERT_TRUE(store.save(path));
  TruthStore loaded(kFp);
  EXPECT_EQ(loaded.load(path).records, 1u);

  // A stored key is a hit that carries its record.
  const TruthStore::Claim hit = store.claim("a", /*wait=*/false);
  EXPECT_EQ(hit.kind(), ClaimKind::kHit);
  EXPECT_EQ(hit.record().outcome, SearchOutcome::kDeadlock);
  EXPECT_EQ(hit.record().states, 10u);

  // Inserting an identical record is still not fresh; settling is.
  store.insert("a", {SearchOutcome::kDeadlock, 10});
  EXPECT_EQ(store.unpersisted(), 1u);
  store.insert("b", {SearchOutcome::kNoDeadlock, 20});
  EXPECT_EQ(store.unpersisted(), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.lookup("b")->states, 20u);
}

TEST(TruthStore, OutcomeStringsRoundTrip) {
  for (const SearchOutcome o :
       {SearchOutcome::kNotRun, SearchOutcome::kDeadlock,
        SearchOutcome::kNoDeadlock, SearchOutcome::kInconclusive})
    EXPECT_EQ(outcome_from_string(to_string(o)), o);
  EXPECT_FALSE(outcome_from_string("maybe").has_value());
}

}  // namespace
}  // namespace wormsim::campaign
