#include "obs/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wormsim::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  WORMSIM_EXPECTS_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                      "histogram bounds must be ascending");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
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
  if (bounds_ != other.bounds_) {
    WORMSIM_EXPECTS_MSG(count_ == 0 && bounds_.empty(),
                        "histogram merge requires identical bounds");
    bounds_ = other.bounds_;
    counts_ = other.counts_;
    count_ = other.count_;
    sum_ = other.sum_;
    min_ = other.min_;
    max_ = other.max_;
    return;
  }
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
      return i < bounds_.size() ? std::min(bounds_[i], max_) : max_;
  }
  return max_;
}

std::vector<double> Histogram::exponential_bounds(double first, double limit) {
  WORMSIM_EXPECTS(first > 0 && limit >= first);
  std::vector<double> bounds;
  for (double b = first; b <= limit; b *= 2) bounds.push_back(b);
  return bounds;
}

}  // namespace wormsim::obs
