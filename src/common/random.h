#ifndef CONCORD_COMMON_RANDOM_H_
#define CONCORD_COMMON_RANDOM_H_

#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace concord {

/// Deterministic RNG wrapper. All stochastic behaviour in the
/// simulation (tool run times, failure injection, workload mixes) draws
/// from an explicitly seeded Rng so runs are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t Uniform(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli draw with probability `p`.
  bool Chance(double p) { return NextDouble() < p; }

  /// Picks a uniformly random element index for a container of `size`.
  size_t Index(size_t size) {
    assert(size > 0);
    return static_cast<size_t>(Uniform(0, static_cast<int64_t>(size) - 1));
  }

  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Index(items.size())];
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace concord

#endif  // CONCORD_COMMON_RANDOM_H_
