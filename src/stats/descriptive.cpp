#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "common/error.hpp"

namespace hpcfail::stats {

double mean(std::span<const double> xs) {
  HPCFAIL_EXPECTS(!xs.empty(), "mean of empty sample");
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  HPCFAIL_EXPECTS(!xs.empty(), "variance of empty sample");
  if (xs.size() == 1) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (const double x : xs) {
    const double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(xs.size() - 1);
}

double cv_squared(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return variance(xs) / (m * m);
}

double quantile_sorted(std::span<const double> sorted, double p) {
  HPCFAIL_EXPECTS(!sorted.empty(), "quantile of empty sample");
  HPCFAIL_EXPECTS(p >= 0.0 && p <= 1.0, "quantile p must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double median(std::span<const double> xs) {
  auto sorted = sorted_copy(xs);
  return quantile_sorted(sorted, 0.5);
}

namespace {

/// Moves the order statistic of each rank in `ranks` (ascending; ranks
/// past the end are ignored) to that position of `v`, where a full sort
/// would put it: one selection per rank over a shrinking suffix.
void select_ranks(std::vector<double>& v,
                  std::initializer_list<std::size_t> ranks) {
  auto first = v.begin();
  for (const std::size_t rank : ranks) {
    if (rank >= v.size()) break;
    const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank);
    if (nth < first) continue;  // already placed
    std::nth_element(first, nth, v.end());
    first = nth + 1;
  }
}

}  // namespace

Summary summarize(std::span<const double> xs) {
  HPCFAIL_EXPECTS(!xs.empty(), "summarize of empty sample");
  // The summary needs only the extremes and the two ranks each quartile
  // interpolates between (lo = floor(p (n - 1)) and lo + 1, as in
  // quantile_sorted), so those are selected rather than the whole sample
  // sorted; quantile_sorted then reads the same values a sort gives.
  std::vector<double> ranked(xs.begin(), xs.end());
  const std::size_t last = ranked.size() - 1;
  const auto rank = [last](double p) {
    return static_cast<std::size_t>(p * static_cast<double>(last));
  };
  const std::size_t r25 = rank(0.25);
  const std::size_t r50 = rank(0.5);
  const std::size_t r75 = rank(0.75);
  select_ranks(ranked, {0, r25, r25 + 1, r50, r50 + 1, r75, r75 + 1, last});
  Summary s;
  s.n = xs.size();
  // Fused moments: one sum pass, then one squared-deviation pass reusing
  // the mean (the standalone variance() recomputes it — same value, same
  // accumulation order, so the results are bit-identical).
  s.mean = mean(xs);
  if (xs.size() == 1) {
    s.variance = 0.0;
  } else {
    double ss = 0.0;
    for (const double x : xs) {
      const double d = x - s.mean;
      ss += d * d;
    }
    s.variance = ss / static_cast<double>(xs.size() - 1);
  }
  s.stddev = std::sqrt(s.variance);
  s.cv2 = (s.mean != 0.0) ? s.variance / (s.mean * s.mean)
                          : std::numeric_limits<double>::quiet_NaN();
  s.median = quantile_sorted(ranked, 0.5);
  s.q25 = quantile_sorted(ranked, 0.25);
  s.q75 = quantile_sorted(ranked, 0.75);
  s.min = ranked.front();
  s.max = ranked.back();
  if (s.n >= 3 && s.stddev > 0.0) {
    double cubed = 0.0;
    for (const double x : xs) {
      const double z = (x - s.mean) / s.stddev;
      cubed += z * z * z;
    }
    const auto n = static_cast<double>(s.n);
    s.skewness = cubed * n / ((n - 1.0) * (n - 2.0));
  }
  return s;
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hpcfail::stats
