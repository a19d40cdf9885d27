#include "obs/metrics.hpp"

#include <algorithm>

namespace wormsim::obs {

void Histogram::observe(double v) {
  const auto it = std::lower_bound(kBounds.begin(), kBounds.end(), v);
  ++counts_[static_cast<std::size_t>(it - kBounds.begin())];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count_ - 1));  // 0-based
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative > rank)
      return i < kBounds.size() ? std::min(kBounds[i], max_) : max_;
  }
  return max_;
}

}  // namespace wormsim::obs
