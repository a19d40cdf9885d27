// Output-channel arbitration policies (paper Assumption 5 and the Section-3
// adversary).
//
// When several headers simultaneously request the same free output channel,
// the router grants it to exactly one. Assumption 5 requires the policy to
// be starvation-free for waiting messages; the paper additionally *assumes
// the adversary wins*: "when one of these messages can lead to a deadlock,
// that message is assumed to acquire the channel". The schedule-search in
// src/analysis realizes that adversary by sweeping PriorityArbitration over
// message orderings.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"
#include "util/assert.hpp"

namespace wormsim::sim {

/// One header's request for a free output channel.
struct ChannelRequest {
  MessageId message;
  ChannelId channel;
  Cycle waiting_since;  ///< cycle the message first wanted this hop
};

/// Strategy interface: a policy ranks each request, and the lowest
/// (rank, message id) among the requests for one channel wins it.
///
/// A request's rank must not change while its header stays blocked: the
/// event core (SimCore::kEvent) parks a blocked header in each wanted
/// channel's wait heap under the rank it had when it parked, and wakes only
/// the headers a release lets win (DESIGN.md §13).
class ArbitrationPolicy {
 public:
  virtual ~ArbitrationPolicy() = default;
  [[nodiscard]] virtual std::uint64_t rank(const ChannelRequest& r) const = 0;

  /// The winner among `requests`, which is non-empty and targets one
  /// channel: the lowest (rank, message id).
  [[nodiscard]] MessageId pick(std::span<const ChannelRequest> requests) const {
    WORMSIM_EXPECTS(!requests.empty());
    const ChannelRequest* best = &requests.front();
    std::uint64_t best_rank = rank(*best);
    for (const ChannelRequest& r : requests.subspan(1)) {
      const std::uint64_t k = rank(r);
      if (k < best_rank || (k == best_rank && r.message < best->message)) {
        best = &r;
        best_rank = k;
      }
    }
    return best->message;
  }
};

/// Longest-waiting-first, ties broken by lower message id. Starvation-free:
/// a waiting message's seniority only grows, so it is eventually the oldest.
class FifoArbitration final : public ArbitrationPolicy {
 public:
  [[nodiscard]] std::uint64_t rank(const ChannelRequest& r) const override {
    return r.waiting_since;
  }
};

/// Fixed global priority over messages (lower rank wins). Used by the
/// deadlock search to emulate the paper's adversarial tie-breaking; falls
/// back to message id for unranked messages.
class PriorityArbitration final : public ArbitrationPolicy {
 public:
  /// `ranking[i]` is the rank of message id i; lower rank wins. Messages
  /// beyond the vector rank after all ranked ones.
  explicit PriorityArbitration(std::vector<std::uint32_t> ranking)
      : ranking_(std::move(ranking)) {}

  [[nodiscard]] std::uint64_t rank(const ChannelRequest& r) const override {
    const std::size_t i = r.message.index();
    if (i < ranking_.size()) return ranking_[i];
    return std::uint64_t{1} << 40 | r.message.value();
  }

 private:
  std::vector<std::uint32_t> ranking_;
};

}  // namespace wormsim::sim
