#ifndef CONCORD_BENCH_E2E_E2E_STATS_H_
#define CONCORD_BENCH_E2E_E2E_STATS_H_

// Percentile helpers for the end-to-end bench. Timings are reported as
// nearest-rank percentiles with their sample count, and each summary
// names the highest percentile the sample supports: the highest of
// p50, p90, p99, p99.9, p99.99 that still has at least ten samples
// ranked beyond it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace concord::bench_e2e {

/// Percentiles a summary may name as its highest supported one.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// Samples that must rank beyond a percentile before it is reported.
inline constexpr size_t kSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: ceil(p/100 * n), clamped to [1, n]. The epsilon keeps an
/// exact product (p99.9 of 1000 samples = rank 999) from rounding up.
inline size_t NearestRank(double p, size_t n) {
  if (n == 0) return 0;
  double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile of an ascending-sorted sample (0 if empty).
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(p, sorted.size()) - 1];
}

/// Highest ladder percentile with at least kSamplesBeyond samples ranked
/// above it, or 0 when even the median lacks them (fewer than 20
/// samples).
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : kPercentileLadder) {
    if (n - NearestRank(p, n) >= kSamplesBeyond) best = p;
  }
  return best;
}

struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  /// HighestSupportedPercentile(n).
  double supported = 0.0;
};

/// Sorts `samples` in place and summarizes them.
inline Summary Summarize(std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (double v : samples) total += v;
  s.mean = total / static_cast<double>(s.n);
  s.p50 = PercentileSorted(samples, 50.0);
  s.p99 = PercentileSorted(samples, 99.0);
  s.p999 = PercentileSorted(samples, 99.9);
  s.supported = HighestSupportedPercentile(s.n);
  return s;
}

}  // namespace concord::bench_e2e

#endif  // CONCORD_BENCH_E2E_E2E_STATS_H_
