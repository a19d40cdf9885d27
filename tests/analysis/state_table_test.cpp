#include "analysis/state_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/varint.hpp"

namespace wormsim::analysis {
namespace {

using Lookup = StateTable::Lookup;

/// True when lookup_or_insert recorded `key` as a first visit.
bool fresh(StateTable& table, std::string_view key) {
  return table.lookup_or_insert(key) == Lookup::kFresh;
}

std::vector<std::string> random_keys(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Binary keys of varied length, like real state serializations.
    std::string key;
    const std::size_t len = 1 + rng.below(64);
    for (std::size_t j = 0; j < len; ++j)
      key.push_back(static_cast<char>(rng.below(256)));
    keys.push_back(std::move(key));
  }
  return keys;
}

std::string le64(std::uint64_t w) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &w, 8);
  return out;
}

/// Multiplicative inverse of the FNV prime mod 2^64 (Newton iteration:
/// each step doubles the valid low bits; five steps from an odd seed
/// cover all 64).
constexpr std::uint64_t inverse_of(std::uint64_t odd) {
  std::uint64_t inv = odd;
  for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
  return inv;
}

/// A genuine hash_bytes collision: an 8-byte key A and a 16-byte key B with
/// equal lane-FNV digests. hash_bytes folds whole 8-byte lanes and then the
/// length, every fold a xor followed by a multiply by the (odd, hence
/// invertible) FNV prime, and finishes with h ^= (h >> 32) ^ (h >> 48)
/// (its own inverse: it leaves the top 32 bits alone) — so the second lane
/// of B can be solved for exactly, working the digest backwards from A's.
std::pair<std::string, std::string> colliding_keys() {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kInv = inverse_of(kPrime);
  static_assert(kInv * kPrime == 1, "inverse sanity");

  const std::uint64_t word_a = 0x0123456789abcdefull;
  const std::string a = le64(word_a);
  const std::uint64_t target = hash_bytes(a);

  // B = [w1][w2], so hash(B) = fold((((basis ^ w1)*p ^ w2)*p ^ 16)*p).
  // Unwind:
  const std::uint64_t w1 = 0xfeedfacecafebeefull;
  const std::uint64_t x = (kBasis ^ w1) * kPrime;
  const std::uint64_t unfolded = target ^ (target >> 32) ^ (target >> 48);
  const std::uint64_t w2 = ((unfolded * kInv ^ 16) * kInv) ^ x;
  const std::string b = le64(w1) + le64(w2);

  EXPECT_EQ(hash_bytes(b), target);
  EXPECT_NE(a, b);
  return {a, b};
}

TEST(StateTable, InsertReportsFirstVisitExactlyOnce) {
  StateTable table;
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kSeen);
  EXPECT_EQ(table.lookup_or_insert("beta"), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert("beta"), Lookup::kSeen);
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kSeen);
  EXPECT_EQ(table.size(), 2u);
}

TEST(StateTable, RealHashCollisionNeverPrunes) {
  // Two different keys with equal hash_bytes digests. A false kSeen for the
  // second would prune a reachable subtree and turn "exhausted" into a lie:
  // only a byte-for-byte match may answer kSeen.
  const auto [a, b] = colliding_keys();
  StateTable table;
  EXPECT_EQ(table.lookup_or_insert(a), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert(b), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert(a), Lookup::kSeen);
  EXPECT_EQ(table.lookup_or_insert(b), Lookup::kSeen);
  EXPECT_EQ(table.size(), 2u);
}

TEST(StateTable, MatchesUnorderedSetReference) {
  // Random binary keys with deliberate duplicates: the table must agree
  // with std::unordered_set on every single first-visit verdict.
  auto keys = random_keys(2000, 12345);
  auto dups = keys;
  keys.insert(keys.end(), dups.begin(), dups.end());
  util::Rng rng(99);
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);

  StateTable table(4);
  std::unordered_set<std::string> reference;
  for (const std::string& key : keys)
    EXPECT_EQ(fresh(table, key), reference.insert(key).second)
        << "key mismatch";
  EXPECT_EQ(table.size(), reference.size());
}

TEST(StateTable, GrowsPastInitialCapacityPerStripe) {
  // Far more keys than the initial slot count; all verdicts stay exact.
  StateTable table;
  const auto keys = random_keys(5000, 777);
  std::unordered_set<std::string> reference;
  for (const std::string& key : keys)
    EXPECT_EQ(fresh(table, key), reference.insert(key).second);
  EXPECT_EQ(table.size(), reference.size());
  for (const std::string& key : keys)
    EXPECT_EQ(table.lookup_or_insert(key), Lookup::kSeen);
}

TEST(StateTable, StripeCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(StateTable(0).stripe_count(), 1u);
  EXPECT_EQ(StateTable(1).stripe_count(), 1u);
  EXPECT_EQ(StateTable(3).stripe_count(), 4u);
  EXPECT_EQ(StateTable(8).stripe_count(), 8u);
  EXPECT_EQ(StateTable(33).stripe_count(), 64u);
}

TEST(StateTable, HashBytesIsDeterministicAndLengthSensitive) {
  EXPECT_EQ(hash_bytes(""), 0xcbf29ce484222325ull);  // FNV offset basis
  EXPECT_EQ(hash_bytes("wormsim"), hash_bytes("wormsim"));
  EXPECT_NE(hash_bytes("wormsim"), hash_bytes("wormsin"));
  // Zero-padding of the final partial word must not alias keys that differ
  // only by trailing NUL bytes (length is mixed into the digest).
  const std::string a("a", 1);
  const std::string b("a\0", 2);
  EXPECT_NE(hash_bytes(a), hash_bytes(b));
  // Lane boundaries: differing bytes in every position change the hash.
  std::string base(17, 'x');
  const std::uint64_t h = hash_bytes(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] = 'y';
    EXPECT_NE(hash_bytes(mutated), h) << "byte " << i << " ignored";
  }
}

TEST(StateTable, ZeroHashKeysAreStillStoredExactly) {
  // Hash 0 is the empty-slot sentinel and gets remapped; distinct keys
  // forced onto it (the precomputed-hash call shape the engine uses) must
  // still be told apart by exact key compare.
  StateTable table;
  EXPECT_EQ(table.lookup_or_insert("first", 0), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert("first", 0), Lookup::kSeen);
  EXPECT_EQ(table.lookup_or_insert("second", 0), Lookup::kFresh);
  EXPECT_EQ(table.size(), 2u);
}

TEST(StateTable, EveryKeyByteReachesTheSlotIndex) {
  // The slot index is the digest's low bits. Keys that differ in one byte
  // at any lane position, 3-7 included, must not share their low 16 bits
  // (with 2^16 slots they would all start probing at one slot).
  const std::string base(24, 'x');
  const std::uint64_t low = hash_bytes(base) & 0xffff;
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] = 'y';
    EXPECT_NE(hash_bytes(mutated) & 0xffff, low) << "byte " << i;
  }
}

TEST(StateTable, AppendVarintEncodesLeb128) {
  using B = std::vector<unsigned char>;
  auto bytes = [](std::uint32_t v) {
    std::string key;
    util::append_varint(key, v);
    return B(key.begin(), key.end());
  };
  EXPECT_EQ(bytes(0), B({0x00}));
  EXPECT_EQ(bytes(127), B({0x7f}));
  EXPECT_EQ(bytes(128), B({0x80, 0x01}));
  EXPECT_EQ(bytes(300), B({0xac, 0x02}));
  EXPECT_EQ(bytes(0xffffffffu), B({0xff, 0xff, 0xff, 0xff, 0x0f}));
  EXPECT_EQ(bytes(0xffffffffu).size(), util::kMaxVarint32Bytes);
}

TEST(StateTable, VarintSequencesAreUniquelyDecodable) {
  // Keys concatenate varints, so no encoding may be a prefix of another:
  // otherwise (a, b) and (c, d) with a != c could serialize identically.
  const std::uint32_t values[] = {0,       1,       127,   128,
                                  255,     256,     16383, 16384,
                                  2097151, 2097152, 1u << 28, 0xffffffffu};
  std::unordered_set<std::string> pairs;
  for (const std::uint32_t a : values)
    for (const std::uint32_t b : values) {
      std::string key;
      util::append_varint(key, a);
      util::append_varint(key, b);
      EXPECT_TRUE(pairs.insert(key).second) << a << "," << b;
    }
}

TEST(StateTable, SpentCountersDifferingBy256DoNotAlias) {
  // Regression: the pre-StateTable search truncated each spent-delay
  // counter to its low byte when building the memo key, so states whose
  // counters differed by a multiple of 256 aliased whenever the budget
  // exceeded 255 — silently skipping live subtrees.
  std::string spent0;
  std::string spent256;
  util::append_varint(spent0, 0);
  util::append_varint(spent256, 256);
  EXPECT_NE(spent0, spent256);

  StateTable table;
  const std::string base = "state-bytes";
  EXPECT_TRUE(fresh(table, base + spent0));
  EXPECT_TRUE(fresh(table, base + spent256));  // distinct, not a revisit
  EXPECT_EQ(table.size(), 2u);
}

TEST(StateTable, BudgetIsAStrictCeiling) {
  // Generous enough for the empty table, far too small for thousands of
  // 64-byte keys: inserts must start failing with kOverBudget, and the
  // accounted footprint must never exceed the cap (the charge loop either
  // reserves the bytes or stores nothing).
  constexpr std::uint64_t kBudget = 16 * 1024;
  StateTable table(StateTable::Config{1, kBudget});
  bool overflowed = false;
  for (int i = 0; i < 4096; ++i) {
    std::string key(56, static_cast<char>('a' + (i % 26)));
    key += le64(static_cast<std::uint64_t>(i));
    const Lookup verdict = table.lookup_or_insert(key);
    ASSERT_LE(table.resident_bytes(), kBudget);
    if (verdict == Lookup::kOverBudget) {
      overflowed = true;
      break;
    }
    ASSERT_EQ(verdict, Lookup::kFresh);
  }
  EXPECT_TRUE(overflowed);
  EXPECT_GT(table.resident_bytes(), 0u);
}

TEST(StateTable, BudgetBelowBaselineFailsEveryExactInsert) {
  // A budget smaller than the empty table's slot arrays is reported
  // honestly: every insert needs arena bytes it cannot charge, so it is
  // kOverBudget and nothing pretends to be recorded.
  StateTable table(StateTable::Config{1, 64});
  EXPECT_EQ(table.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(table.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(table.size(), 0u);
}

TEST(StateTable, StatsReportOccupancyAfterQuiescence) {
  StateTable table(4);
  const obs::TableStats empty = table.stats();
  EXPECT_EQ(empty.keys, 0u);
  EXPECT_EQ(empty.stripes, 4u);
  EXPECT_EQ(empty.arena_bytes, 0u);
  EXPECT_EQ(empty.contended_locks, 0u);

  const auto keys = random_keys(1000, 31337);
  std::unordered_set<std::string> reference;
  std::uint64_t raw_bytes = 0;
  for (const std::string& key : keys)
    if (reference.insert(key).second) raw_bytes += key.size();
  for (const std::string& key : keys) table.lookup_or_insert(key);

  const obs::TableStats stats = table.stats();
  EXPECT_EQ(stats.keys, reference.size());
  EXPECT_EQ(stats.keys, table.size());
  EXPECT_EQ(stats.arena_bytes, raw_bytes);  // exactly the raw key bytes
  EXPECT_GE(stats.slots, stats.keys);       // open addressing: load < 1
  EXPECT_EQ(stats.stripes, 4u);
  EXPECT_EQ(stats.contended_locks, 0u);  // single-threaded: never waited
}

TEST(StateTable, StatsAreSamplingSafeDuringConcurrentInserts) {
  // stats() takes stripe locks one at a time, so calling it while inserters
  // run must be race-free (TSan covers this) and end with exact totals.
  const auto keys = random_keys(2000, 999);
  StateTable table(8);
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      const obs::TableStats s = table.stats();
      EXPECT_LE(s.keys, keys.size());
    }
  });
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 2; ++t)
    pool.emplace_back([&] {
      for (const std::string& key : keys) table.lookup_or_insert(key);
    });
  for (std::thread& th : pool) th.join();
  done.store(true);
  sampler.join();

  std::unordered_set<std::string> distinct(keys.begin(), keys.end());
  EXPECT_EQ(table.stats().keys, distinct.size());
}

TEST(StateTable, ConcurrentInsertersAgreeOnFirstVisit) {
  // Every key is inserted by several threads; across all threads exactly
  // one lookup per distinct key may return kFresh. Run under TSan in CI.
  const auto keys = random_keys(512, 4242);
  constexpr unsigned kThreads = 4;
  StateTable table(kThreads * 8);
  std::vector<std::vector<char>> won(
      kThreads, std::vector<char>(keys.size(), 0));

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      // Each thread visits the keys in a different order.
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t k = (i * (t + 1) + t) % keys.size();
        if (fresh(table, keys[k])) won[t][k] = 1;
      }
    });
  for (std::thread& th : pool) th.join();

  std::unordered_set<std::string> distinct(keys.begin(), keys.end());
  EXPECT_EQ(table.size(), distinct.size());
  std::size_t total_wins = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    std::size_t wins = 0;
    for (unsigned t = 0; t < kThreads; ++t) wins += won[t][k] != 0;
    EXPECT_LE(wins, 1u) << "key " << k << " won twice";
    total_wins += wins;
  }
  // Duplicate keys in the input can only win under one of their copies.
  EXPECT_EQ(total_wins, distinct.size());
}

}  // namespace
}  // namespace wormsim::analysis
