#include "analysis/state_table.hpp"

#include <bit>

#include "util/assert.hpp"

namespace wormsim::analysis {

namespace {

constexpr std::size_t kInitialSlots = 64;  // per stripe; power of two
// Resize above count/capacity == 7/10; linear probing stays short there.
constexpr std::size_t kLoadNum = 7;
constexpr std::size_t kLoadDen = 10;

}  // namespace

StateTable::StateTable(const Config& config)
    : stripes_(std::bit_ceil(config.stripes == 0 ? std::size_t{1}
                                                 : config.stripes)),
      budget_(config.budget_bytes) {
  stripe_mask_ = stripes_.size() - 1;
  for (Stripe& s : stripes_) s.slots.resize(kInitialSlots);
  // The baseline arrays are charged unconditionally: a budget smaller than
  // the empty table makes every insert fail, reported honestly as
  // kOverBudget.
  resident_.fetch_add(stripes_.size() * kInitialSlots * sizeof(Slot),
                      std::memory_order_relaxed);
}

bool StateTable::charge(std::uint64_t delta) {
  if (budget_ == 0) {
    resident_.fetch_add(delta, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t current = resident_.load(std::memory_order_relaxed);
  do {
    if (current + delta > budget_) return false;
  } while (!resident_.compare_exchange_weak(current, current + delta,
                                            std::memory_order_relaxed));
  return true;
}

bool StateTable::grow(Stripe& stripe) {
  if (!charge(stripe.slots.size() * sizeof(Slot))) return false;
  std::vector<Slot> next(stripe.slots.size() * 2);
  const std::uint64_t mask = next.size() - 1;
  for (const Slot& slot : stripe.slots) {
    if (slot.hash == 0) continue;
    std::uint64_t i = slot.hash & mask;
    while (next[i].hash != 0) i = (i + 1) & mask;
    next[i] = slot;
  }
  stripe.slots = std::move(next);
  return true;
}

StateTable::Lookup StateTable::lookup_or_insert(std::string_view key,
                                                std::uint64_t hash) {
  WORMSIM_ASSERT(!key.empty());
  if (hash == 0) hash = 0x9e3779b97f4a7c15ull;  // 0 is the empty-slot mark
  // High bits pick the stripe, low bits the probe start, so the probe
  // sequence within a stripe is independent of the stripe choice.
  Stripe& stripe = stripes_[(hash >> 48) & stripe_mask_];
  // try_lock first so blocked acquisitions can be counted; `contended` is
  // only touched while the mutex is held, so the counter itself is safe.
  std::unique_lock<std::mutex> lock(stripe.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    ++stripe.contended;
  }

  // A byte match is the only verdict that prunes.
  {
    const std::uint64_t mask = stripe.slots.size() - 1;
    std::uint64_t i = hash & mask;
    while (true) {
      const Slot& slot = stripe.slots[i];
      if (slot.hash == 0) break;
      if (slot.hash == hash && slot.length == key.size() &&
          stripe.arena.compare(slot.offset, slot.length, key) == 0)
        return Lookup::kSeen;
      i = (i + 1) & mask;
    }
  }

  // Absent: record it. Growth can move the empty slot, so probe afresh.
  if ((stripe.count + 1) * kLoadDen > stripe.slots.size() * kLoadNum &&
      !grow(stripe))
    return Lookup::kOverBudget;
  if (!charge(key.size())) return Lookup::kOverBudget;
  const std::uint64_t mask = stripe.slots.size() - 1;
  std::uint64_t i = hash & mask;
  while (stripe.slots[i].hash != 0) i = (i + 1) & mask;
  Slot& slot = stripe.slots[i];
  slot.hash = hash;
  slot.offset = stripe.arena.size();
  slot.length = static_cast<std::uint32_t>(key.size());
  stripe.arena.append(key);
  ++stripe.count;
  return Lookup::kFresh;
}

std::uint64_t StateTable::size() const {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.count;
  }
  return total;
}

obs::TableStats StateTable::stats() const {
  obs::TableStats out;
  out.stripes = stripes_.size();
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    out.keys += stripe.count;
    out.slots += stripe.slots.size();
    out.arena_bytes += stripe.arena.size();
    out.contended_locks += stripe.contended;
  }
  out.resident_bytes = resident_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace wormsim::analysis
