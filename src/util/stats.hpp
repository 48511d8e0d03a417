#pragma once
// Streaming statistics and histograms used by the experiment harness.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace watchmen {

/// Welford's online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) { *this = o; return; }
    const double delta = o.mean_ - mean_;
    const auto n = static_cast<double>(n_), m = static_cast<double>(o.n_);
    m2_ += o.m2_ + delta * delta * n * m / (n + m);
    mean_ += delta * m / (n + m);
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    n_ += o.n_;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin (so the total count is preserved).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {
    if (bins == 0 || !(hi > lo)) throw std::invalid_argument("Histogram: bad range");
  }

  void add(double x, std::uint64_t weight = 1) {
    const auto b = bin_of(x);
    counts_[b] += weight;
    total_ += weight;
  }

  std::size_t bin_of(double x) const {
    // Non-finite samples never reach the cast below: NaN passes `x < lo_`
    // and a NaN/inf-valued `t` makes static_cast<std::size_t> UB. NaN and
    // -inf clamp to the first bin, +inf to the last (the documented
    // out-of-range clamp), so total counts stay preserved either way.
    if (std::isnan(x) || x < lo_) return 0;
    if (x >= hi_) return counts_.size() - 1;
    const double t = (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
    const auto b = static_cast<std::size_t>(t);
    return std::min(b, counts_.size() - 1);
  }

  double bin_center(std::size_t b) const {
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(b) + 0.5) * w;
  }

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count(std::size_t b) const { return counts_.at(b); }
  std::uint64_t total() const { return total_; }
  double fraction(std::size_t b) const {
    return total_ == 0 ? 0.0 : static_cast<double>(counts_[b]) / static_cast<double>(total_);
  }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Stores all samples; exact quantiles. Fine for experiment-sized data.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t count() const { return xs_.size(); }

  double mean() const {
    if (xs_.empty()) return 0.0;
    return std::accumulate(xs_.begin(), xs_.end(), 0.0) / static_cast<double>(xs_.size());
  }

  double stddev() const {
    if (xs_.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double x : xs_) acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
  }

  /// Quantile q in [0,1] with linear interpolation between the order
  /// statistics at ranks ⌊q(n−1)⌋ and ⌊q(n−1)⌋+1. Works on a local copy,
  /// so concurrent const reads are safe and values() keeps insertion order.
  /// Batch related quantiles through quantiles() to share the copy.
  double quantile(double q) const { return quantiles({q}).front(); }

  /// The quantile for each q in `qs`, in the order given. Selection, not a
  /// sort: walking the qs in ascending order, nth_element places rank i
  /// (narrowing the range to the part above the previous rank) and
  /// min_element over the part above i finds rank i+1. The two order
  /// statistics, and so the result, are bit-identical to a full sort's.
  std::vector<double> quantiles(std::initializer_list<double> qs) const {
    std::vector<double> out(qs.size(), 0.0);
    if (xs_.empty()) return out;
    std::vector<std::pair<double, std::size_t>> order;
    order.reserve(qs.size());
    for (double q : qs) order.emplace_back(q, order.size());
    std::sort(order.begin(), order.end());

    std::vector<double> ys(xs_);
    const std::size_t last = ys.size() - 1;
    // Nothing in ys[0, lo) exceeds anything in ys[lo, n), and ys[lo - 1]
    // holds its own order statistic.
    std::size_t lo = 0;
    for (const auto& [q, k] : order) {
      const double pos = q * static_cast<double>(last);
      const auto i = std::min(static_cast<std::size_t>(pos), last);
      if (i >= lo) {
        std::nth_element(ys.begin() + static_cast<std::ptrdiff_t>(lo),
                         ys.begin() + static_cast<std::ptrdiff_t>(i), ys.end());
        lo = i + 1;
      }
      if (i == last) {
        out[k] = ys[i];
        continue;
      }
      const double frac = pos - static_cast<double>(i);
      const double next = *std::min_element(
          ys.begin() + static_cast<std::ptrdiff_t>(i + 1), ys.end());
      out[k] = ys[i] * (1.0 - frac) + next * frac;
    }
    return out;
  }

  const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
};

/// Gini coefficient of a set of non-negative values (0 = perfectly even,
/// 1 = fully concentrated). Used to quantify the Fig. 1 presence skew.
double gini(std::vector<double> values);

}  // namespace watchmen
