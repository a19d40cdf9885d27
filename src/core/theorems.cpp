#include "core/theorems.hpp"

#include <algorithm>
#include <sstream>

namespace wormsim::core {

namespace {

/// Indices of the ring messages that use the shared channel.
std::vector<std::size_t> sharing_indices(const CyclicFamilySpec& spec) {
  std::vector<std::size_t> sharing;
  for (std::size_t i = 0; i < spec.messages.size(); ++i)
    if (spec.messages[i].uses_shared) sharing.push_back(i);
  return sharing;
}

/// Sum of hold lengths of the ring messages strictly between `from` and
/// `to`, walking forward in ring order.
int between_hold(const CyclicFamilySpec& spec, std::size_t from,
                 std::size_t to) {
  const std::size_t m = spec.messages.size();
  int sum = 0;
  for (std::size_t i = (from + 1) % m; i != to; i = (i + 1) % m)
    sum += spec.messages[i].hold;
  return sum;
}

/// True when walking forward from `from`, `first` is reached before
/// `second`.
bool reaches_first(std::size_t m, std::size_t from, std::size_t first,
                   std::size_t second) {
  for (std::size_t i = (from + 1) % m;; i = (i + 1) % m) {
    if (i == first) return true;
    if (i == second) return false;
    WORMSIM_ASSERT(i != from);
  }
}

}  // namespace

Theorem5Report evaluate_theorem5(const CyclicFamilySpec& spec) {
  Theorem5Report report;
  const auto sharing = sharing_indices(spec);
  if (sharing.size() != 3) return report;  // not the Theorem-5 setting
  report.applicable = true;

  const auto& msgs = spec.messages;
  const std::size_t m = msgs.size();

  // Label by access length: A longest, B middle, C shortest.
  std::array<std::size_t, 3> order = {sharing[0], sharing[1], sharing[2]};
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return msgs[x].access > msgs[y].access;
  });
  const std::size_t A = order[0], B = order[1], C = order[2];
  const int aA = msgs[A].access, hA = msgs[A].hold;
  const int aB = msgs[B].access, hB = msgs[B].hold;
  const int aC = msgs[C].access, hC = msgs[C].hold;

  // 1. In ring order, A is followed by C before B.
  report.conditions[0] = reaches_first(m, A, C, B);
  // 2. All three use the shared channel outside the ring — structural in
  //    this family (access arms never overlap the ring).
  report.conditions[1] = true;
  // 3. All three access lengths are distinct.
  report.conditions[2] = aA != aB && aB != aC && aA != aC;
  // 4. A holds more ring channels than its access path.
  report.conditions[3] = hA > aA;
  // 5. If the ring message immediately preceding C does not use the shared
  //    channel, C must hold more ring channels than its access path.
  {
    const std::size_t prevC = (C + m - 1) % m;
    report.conditions[4] =
        msgs[prevC].uses_shared ? true : hC > aC;
  }
  // 6. Either B holds more ring channels than its access path, or C
  //    immediately precedes B and C's total path is short enough that
  //    starving B of ring holding cannot be sustained. (Reconstruction of
  //    the scan-garbled disjunct, calibrated against the reachability
  //    search: see tests/core/theorem5_sweep_test.cpp.)
  {
    const std::size_t prevB = (B + m - 1) % m;
    const bool c_precedes_b = prevB == C;
    report.conditions[5] =
        hB > aB || (c_precedes_b && aC + hC < aB + hB);
  }
  // 7. A's access plus interposed holds between A and C is less than C's
  //    ring holding plus access.
  report.conditions[6] = aA + between_hold(spec, A, C) < hC + aC;
  // 8. C's access plus interposed holds between C and B is less than A's
  //    access.
  report.conditions[7] = aC + between_hold(spec, C, B) < aA;

  return report;
}

std::string Theorem5Report::describe() const {
  std::ostringstream os;
  if (!applicable) return "not applicable (needs exactly 3 sharing messages)";
  for (std::size_t i = 0; i < conditions.size(); ++i)
    os << "cond" << (i + 1) << "=" << (conditions[i] ? "T" : "F")
       << (i + 1 < conditions.size() ? " " : "");
  os << " => " << (all_hold() ? "unreachable (false resource cycle)"
                              : "deadlock reachable");
  return os.str();
}

bool theorem4_applies(const CyclicFamilySpec& spec) {
  return sharing_indices(spec).size() == 2;
}

bool theorem3_contradiction(std::span<const int> access_in_ring_order) {
  // The blocking chain demands a_0 > a_1 > ... > a_{m-1} > a_0; any
  // satisfying assignment would give a_0 > a_0. Empty rings are vacuously
  // satisfiable.
  return !access_in_ring_order.empty();
}

}  // namespace wormsim::core
