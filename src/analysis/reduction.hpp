// Sound state-space reductions for the deadlock search.
//
// The exhaustive search (deadlock_search.hpp) enumerates *every* resolution
// of simultaneous arbitration ties. Much of that enumeration is redundant:
// identical pending messages are interchangeable, and messages on
// route-disjoint channel sets never interact. ReductionMode::kSafe (the
// default) prunes both:
//
//   - twin_next_siblings (here): interchangeability classes of pending
//     requests (equal specs + equal candidate sets + equal spent delay).
//     The engine only enumerates grant combinations that are canonical
//     within each class; every non-canonical combination is the image of a
//     canonical one under a spec-preserving permutation of message indices,
//     which is an automorphism of the whole transition system.
//
//   - root component decomposition (deadlock_search.cpp): messages whose
//     full routes share no channel, directly or through a chain of other
//     messages, are searched as separate sub-problems.
//
// The soundness arguments (deadlock reachability and exhaustion-as-proof
// are both preserved) are written up in DESIGN.md §12 and mechanically
// cross-checked against kOff by `wormsim_campaign --cross-check-reduction`.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"

namespace wormsim::analysis {

/// How aggressively the search prunes commuting grant interleavings.
/// Verdicts (deadlock found / exhausted) are identical across modes on any
/// instance the unreduced search can decide within its limits; only
/// states_explored and the profile counters differ (see docs/campaign.md).
enum class ReductionMode : std::uint8_t {
  kOff,   ///< exact historical behaviour: enumerate every interleaving
  kSafe,  ///< twin-symmetry canonical grants + root component decomposition
};

const char* to_string(ReductionMode mode);

/// Parses to_string output ("off" / "safe"); nullopt otherwise.
[[nodiscard]] std::optional<ReductionMode> reduction_from_string(
    std::string_view text);

/// "No next sibling" marker in twin_next_siblings output.
inline constexpr std::uint32_t kNoTwin = 0xffffffffu;

/// Computes the twin chains of one state's request list. Requests i < j are
/// twins when both are pending injections (moving == false) of messages
/// with byte-identical specs and identical candidate-channel sets, and —
/// when `spent` is non-empty (bounded-delay model; indexed by MessageId) —
/// equal spent-delay counters. Returns a vector parallel to `requests`:
/// out[i] is the index of the next twin after i in its class, or kNoTwin.
///
/// `specs` is indexed by MessageId (one entry per simulator message).
[[nodiscard]] std::vector<std::uint32_t> twin_next_siblings(
    std::span<const sim::MessageRequests> requests,
    std::span<const sim::MessageSpec> specs,
    std::span<const std::uint32_t> spent = {});

/// twin_next_siblings into a caller-owned buffer (overwritten). The search
/// calls this once per explored state; reusing the buffer keeps the hot
/// loop free of the per-state result allocation.
void twin_next_siblings(std::span<const sim::MessageRequests> requests,
                        std::span<const sim::MessageSpec> specs,
                        std::span<const std::uint32_t> spent,
                        std::vector<std::uint32_t>& out);

}  // namespace wormsim::analysis
