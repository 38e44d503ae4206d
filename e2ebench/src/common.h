// Shared helpers of the end-to-end benchmark: its own seeded generator,
// wall-clock timing, order statistics, and the failure type the checkers
// raise. Nothing here calls into the library under test.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2e {

/// splitmix64: the benchmark's own generator, so a change to the library's
/// workload generators cannot change these inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x5851f42d4c957f2dull) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); 0 when n == 0.
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Raised by a checker when an engine output contradicts the benchmark's
/// own computation. The run then reports correct=false.
class CheckFailure : public std::runtime_error {
 public:
  explicit CheckFailure(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when an engine call returns an error status; the operation is
/// counted as failed.
class EngineError : public std::runtime_error {
 public:
  explicit EngineError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
