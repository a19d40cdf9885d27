// ring_probe: analyze an arbitrary instance of the paper's ring family.
//
// Usage: ring_probe (access hold shared)+
//   access  channels from (and including) c_s to the ring entry (>= 2 for
//           sharing messages; private-arm length for non-sharing ones)
//   hold    ring channels the message must hold (its segment length)
//   shared  1 = reaches the ring through the shared channel c_s, 0 = has
//           its own source (the paper's interposed-message device)
// Triples are given in ring order. Prints the Theorem-5 eight-condition
// evaluation (when exactly three messages share c_s) and the exhaustive
// reachability-probe verdict. This is the tool the Figure-3 instances were
// calibrated with.
#include <cstdio>
#include <cstdlib>

#include "core/analyzer.hpp"
#include "core/cyclic_family.hpp"
#include "core/theorems.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  if (argc < 7 || (argc - 1) % 3 != 0) {
    std::fprintf(stderr, "usage: %s (access hold shared)+\n", argv[0]);
    return 1;
  }
  core::CyclicFamilySpec spec;
  spec.name = "calibrate";
  for (int i = 1; i + 2 < argc; i += 3)
    spec.messages.push_back(core::CyclicMessageParams{
        std::atoi(argv[i]), std::atoi(argv[i + 1]),
        std::atoi(argv[i + 2]) != 0});
  const core::CyclicFamily family(spec);

  const auto t5 = core::evaluate_theorem5(family.spec());
  std::printf("%s\n", t5.describe().c_str());

  analysis::SearchLimits limits;
  limits.max_states = 8'000'000;
  const auto probe = core::probe_family_deadlock(family, limits);
  std::printf("probe: %s (states=%llu exhausted=%s aux=%zd)\n",
              probe.deadlock_found ? "DEADLOCK" : "no deadlock",
              static_cast<unsigned long long>(probe.total_states),
              probe.exhausted ? "yes" : "no",
              static_cast<std::ptrdiff_t>(probe.auxiliary_index));
  return 0;
}
