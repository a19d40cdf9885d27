#include "analysis/reduction.hpp"

#include "util/assert.hpp"

namespace wormsim::analysis {

const char* to_string(ReductionMode mode) {
  switch (mode) {
    case ReductionMode::kOff: return "off";
    case ReductionMode::kSafe: return "safe";
  }
  WORMSIM_UNREACHABLE("bad ReductionMode");
}

std::optional<ReductionMode> reduction_from_string(std::string_view text) {
  for (const ReductionMode m : {ReductionMode::kOff, ReductionMode::kSafe}) {
    if (text == to_string(m)) return m;
  }
  return std::nullopt;
}

std::vector<std::uint32_t> twin_next_siblings(
    std::span<const sim::MessageRequests> requests,
    std::span<const sim::MessageSpec> specs,
    std::span<const std::uint32_t> spent) {
  std::vector<std::uint32_t> next;
  twin_next_siblings(requests, specs, spent, next);
  return next;
}

void twin_next_siblings(std::span<const sim::MessageRequests> requests,
                        std::span<const sim::MessageSpec> specs,
                        std::span<const std::uint32_t> spent,
                        std::vector<std::uint32_t>& next) {
  const std::size_t n = requests.size();
  next.assign(n, kNoTwin);

  const auto twins = [&](std::size_t i, std::size_t j) {
    const sim::MessageRequests& a = requests[i];
    const sim::MessageRequests& b = requests[j];
    // Only never-injected messages are interchangeable: once a header is in
    // the network the two copies' dynamic states (held channels, progress)
    // differ, and swapping them is no longer an automorphism.
    if (a.moving || b.moving) return false;
    const sim::MessageSpec& sa = specs[a.message.index()];
    const sim::MessageSpec& sb = specs[b.message.index()];
    if (sa.src != sb.src || sa.dst != sb.dst || sa.length != sb.length ||
        sa.release_time != sb.release_time)
      return false;
    // Equal specs imply equal desired channels, but the free-channel filter
    // ran per message; require byte-equal candidate sets so the canonical
    // odometer constraint compares like with like.
    if (a.channels != b.channels) return false;
    if (!spent.empty() &&
        spent[a.message.index()] != spent[b.message.index()])
      return false;
    return true;
  };

  // O(n^2) pairing over this state's requests; request lists are small (one
  // per unfinished message at most), so this never shows up in profiles.
  std::vector<bool> claimed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (claimed[i]) continue;
    std::size_t last = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (claimed[j] || !twins(last, j)) continue;
      next[last] = static_cast<std::uint32_t>(j);
      claimed[j] = true;
      last = j;
    }
  }
}

}  // namespace wormsim::analysis
