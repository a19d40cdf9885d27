// Compact, exact, thread-safe memoization for reachability searches.
//
// The deadlock search memoizes on a canonical binary serialization of the
// simulator state (WormholeSimulator::append_state_key plus, in the
// bounded-delay model, the spent-delay vector; both are LEB128 varints
// from util/varint.hpp). The pre-StateTable engine built a fresh heap
// std::string per state and stored it in an unordered_set<std::string> —
// two allocations and two full hash passes per lookup. StateTable replaces
// that with:
//
//   - key bytes serialized into a caller-owned scratch buffer (no per-state
//     allocation);
//   - one FNV-1a 64-bit hash pass;
//   - striped open-addressing slots {hash, offset, length} whose key bytes
//     live back-to-back in a per-stripe arena (~20 bytes of index per state
//     plus the raw key, vs. an unordered_set node + string header + heap
//     block each).
//
// Every pruning decision is *exact* — a kSeen verdict is a byte-for-byte
// match, never a hash-only guess — so "search exhausted without finding a
// deadlock" remains a proof of unreachability, not a probabilistic claim.
// Striping (high hash bits pick the stripe, each stripe has its own mutex)
// keeps concurrent DFS workers mostly out of each other's way; with one
// stripe the lock is uncontended and the table doubles as the serial
// engine's visited set.
//
// Config::budget_bytes caps the logical resident bytes (slot arrays +
// arenas, summed across stripes) with a compare-exchange charge loop, so
// the accounted footprint never exceeds the budget even under concurrent
// inserts. An insert that would overflow returns kOverBudget and stores
// nothing; the search reports itself non-exhausted, exactly like a
// max_states overflow.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/search_profile.hpp"

namespace wormsim::analysis {

/// FNV-1a, 64-bit, applied to 8-byte lanes: the key is consumed one 64-bit
/// word at a time (final partial word zero-padded, length mixed in last).
/// Byte-at-a-time FNV costs one dependent multiply per byte, which showed up
/// as the single largest line in the search profile when state keys were
/// fixed-width with a per-channel section (~340 bytes on Fig. 1 x2; the
/// varint keys average ~50); the lane variant does an eighth of the
/// multiplies with the same constants. A multiply carries differences only
/// upward, so bit k of a lane-FNV digest depends only on bits <= k of every
/// lane; the table's slot index (the low bits) would then ignore lane bytes
/// 3-7, and keys that differ only there — a varint suffix such as the
/// spent-delay counters — would all probe from one slot. The final fold of
/// bits 32-63 and 48-63 into the low bits makes every key bit reach the
/// slot index; the top 32 bits (the stripe choice) are untouched. Not the
/// canonical FNV digest — this is a process-local memoization hash, and
/// empty input still maps to the FNV offset basis.
[[nodiscard]] inline std::uint64_t hash_bytes(
    std::string_view bytes) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    __builtin_memcpy(&w, p, n);
    h = (h ^ w) * kPrime;
  }
  if (!bytes.empty()) {
    h = (h ^ bytes.size()) * kPrime;
    h ^= (h >> 32) ^ (h >> 48);
  }
  return h;
}

class StateTable {
 public:
  /// What a lookup learned about the key (and recorded as a side effect).
  enum class Lookup : std::uint8_t {
    kFresh,       ///< first touch; the full key is now recorded
    kSeen,        ///< exact byte-for-byte match — sound to prune
    kOverBudget,  ///< recording it would exceed budget_bytes; nothing stored
  };

  struct Config {
    /// Rounded up to a power of two (at least 1). Use 1 for a serial
    /// search; a few per worker thread for a parallel one.
    std::size_t stripes = 1;
    /// Cap on logical resident bytes across all stripes; 0 = unlimited.
    std::uint64_t budget_bytes = 0;
  };

  explicit StateTable(const Config& config);
  /// Unlimited budget.
  explicit StateTable(std::size_t stripes = 1)
      : StateTable(Config{stripes, 0}) {}

  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;

  /// Looks `key` up and records it if absent.
  Lookup lookup_or_insert(std::string_view key) {
    return lookup_or_insert(key, hash_bytes(key));
  }

  /// lookup_or_insert() with the hash precomputed by the caller.
  Lookup lookup_or_insert(std::string_view key, std::uint64_t hash);

  /// Distinct keys stored. Takes every stripe lock; a coherent total only
  /// once concurrent inserters have quiesced.
  [[nodiscard]] std::uint64_t size() const;

  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

  /// Logical bytes currently accounted (slot arrays + arenas). The table
  /// never shrinks, so this is also the peak.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }

  /// Occupancy and contention counters for live telemetry. Takes the
  /// stripe locks one at a time, so concurrent inserts can land between
  /// stripes — the totals are a sampling-grade snapshot (exact once
  /// inserters have quiesced), which is all the status heartbeat needs.
  [[nodiscard]] obs::TableStats stats() const;

 private:
  /// Open-addressing slot; hash == 0 marks an empty slot (a real zero hash
  /// is remapped in lookup_or_insert).
  struct Slot {
    std::uint64_t hash = 0;
    std::uint64_t offset = 0;  ///< into the stripe arena
    std::uint32_t length = 0;
  };

  struct Stripe {
    mutable std::mutex mutex;
    std::vector<Slot> slots;  ///< power-of-two size
    std::string arena;        ///< key bytes, back to back
    std::size_t count = 0;
    std::uint64_t contended = 0;  ///< lock waits, guarded by mutex
  };

  /// Adds `delta` to the accounted footprint; fails (adding nothing) if it
  /// would exceed the budget. The compare-exchange loop makes the bound
  /// strict even with concurrent charges — resident_ never overshoots.
  bool charge(std::uint64_t delta);

  bool grow(Stripe& stripe);

  std::vector<Stripe> stripes_;
  std::uint64_t stripe_mask_ = 0;
  std::uint64_t budget_ = 0;
  std::atomic<std::uint64_t> resident_{0};
};

}  // namespace wormsim::analysis
