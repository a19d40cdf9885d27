// Common simulator value types: message specifications and lifecycle states.
#pragma once

#include <cstdint>
#include <type_traits>

#include "util/ids.hpp"

namespace wormsim::sim {

using Cycle = std::uint64_t;

/// A packet to be injected into the network. The paper treats packet and
/// message interchangeably; so do we.
struct MessageSpec {
  NodeId src;
  NodeId dst;
  /// Total flits including the header flit. The paper's deadlock arguments
  /// use the *minimum* length that lets a message hold all its channels in a
  /// cycle; arbitrary lengths are supported (Assumption 1).
  std::uint32_t length = 1;
  /// Earliest cycle at which injection may be attempted.
  Cycle release_time = 0;
};

// Plain data: the deadlock search forks a simulator per transition, and
// each fork copies every message's spec without touching the heap.
static_assert(std::is_trivially_copyable_v<MessageSpec>);

enum class MessageStatus : std::uint8_t {
  kPending,    ///< not yet injected (header still at the source)
  kMoving,     ///< header in the network, not yet at the destination
  kDelivered,  ///< header consumed by the destination; worm draining
  kConsumed,   ///< every flit consumed; all channels released
};

/// Why a simulation run stopped.
enum class RunOutcome : std::uint8_t {
  kAllConsumed,  ///< every message fully drained
  kDeadlock,     ///< quiescent state with undelivered messages
  kHorizon,      ///< reached the configured cycle limit
};

}  // namespace wormsim::sim
