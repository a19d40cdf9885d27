// Structural theorem checkers (paper Section 5).
//
// Each checker evaluates the *static* side of one of the paper's results on
// a CyclicFamily instance. Theorems 4 and 5 read only each ring message's
// access length, hold length and use of c_s, so their checkers take the
// spec and need no built network. The corresponding tests cross-validate
// every verdict against the exhaustive reachability search, which is the
// operational ground truth. In particular the Theorem-5 evaluator encodes
// the eight conditions for a three-message shared channel; where the scan of
// the paper garbles a condition's exact inequality, the formalization below
// is the one validated against the search over a systematic parameter sweep
// (tests/core/theorem5_sweep_test.cpp).
#pragma once

#include <array>
#include <optional>
#include <string>

#include "core/cyclic_family.hpp"

namespace wormsim::core {

/// Evaluation of Theorem 5's eight conditions on a family instance with
/// exactly three messages using the shared channel (other, non-sharing
/// messages may be interposed). The cycle is an unreachable configuration
/// iff all eight hold.
struct Theorem5Report {
  bool applicable = false;  ///< exactly three sharing messages in the ring
  std::array<bool, 8> conditions{};
  [[nodiscard]] bool all_hold() const {
    if (!applicable) return false;
    for (const bool c : conditions)
      if (!c) return false;
    return true;
  }
  [[nodiscard]] std::string describe() const;
};

Theorem5Report evaluate_theorem5(const CyclicFamilySpec& spec);

/// Theorem 4 precondition: exactly two messages use the shared channel
/// (outside the ring). When true, the paper proves the ring deadlocks.
bool theorem4_applies(const CyclicFamilySpec& spec);

/// Theorem 3's arithmetic core: under minimal routing with a single shared
/// channel used by every ring message, each message must use strictly more
/// access channels than its successor to be able to block it, i.e.
/// a_0 > a_1 > ... > a_{m-1} > a_0 — a circular chain of strict
/// inequalities. Returns true iff that chain is unsatisfiable for the given
/// ring size (always, for m >= 1), mirroring the proof's contradiction; the
/// helper exists so tests can probe the inequality structure directly and
/// cross-check it against the search on random minimal algorithms.
bool theorem3_contradiction(std::span<const int> access_in_ring_order);

}  // namespace wormsim::core
