// Fixed-memory latency histogram for percentiles over a whole run.
//
// Log-linear buckets: exact below 1024 ns, then 1024 buckets per power of
// two (0.1% relative width) up to 2^40 ns. Quantiles interpolate linearly
// inside their bucket. Memory does not grow with the number of samples,
// so the peak RSS the benchmark reports does not depend on how fast the
// machine ran.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace qres::perfbench {

class LatencyHistogram {
 public:
  void add(std::int64_t ns) {
    ++buckets_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++count_;
  }

  /// Adds `n` samples of the same value.
  void add(std::int64_t ns, std::uint64_t n) {
    buckets_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))] += n;
    count_ += n;
  }

  std::uint64_t count() const noexcept { return count_; }

  /// Adds every sample of `other` with its value multiplied by `factor`
  /// (each bucket's samples at the bucket's midpoint).
  void add_scaled(const LatencyHistogram& other, double factor) {
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
      if (other.buckets_[i] != 0)
        add(static_cast<std::int64_t>((lower(i) + 0.5 * width(i)) * factor),
            other.buckets_[i]);
  }

  void clear() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
  }

  /// The q-quantile in microseconds; 0 when empty.
  double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double below = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const auto in_bucket = static_cast<double>(buckets_[i]);
      if (in_bucket == 0.0 || below + in_bucket < target) {
        below += in_bucket;
        continue;
      }
      const double fraction = (target - below) / in_bucket;
      return (lower(i) + fraction * width(i)) * 1e-3;
    }
    return lower(buckets_.size() - 1) * 1e-3;
  }

 private:
  static constexpr std::uint64_t kLinear = 1024;  // exact ns buckets
  static constexpr int kSubBits = 10;              // 1024 per octave
  static constexpr int kMaxOctave = 40;            // 2^40 ns ~ 18 min

  static std::size_t index(std::uint64_t ns) {
    if (ns < kLinear) return static_cast<std::size_t>(ns);
    int octave = std::bit_width(ns) - 1;  // >= kSubBits
    if (octave >= kMaxOctave) {
      octave = kMaxOctave - 1;
      ns = (std::uint64_t{2} << octave) - 1;
    }
    const auto shift = static_cast<std::uint64_t>(octave - kSubBits);
    const std::uint64_t sub = (ns >> shift) - kLinear;
    return static_cast<std::size_t>(kLinear + shift * kLinear + sub);
  }

  static double lower(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t octave = (i - kLinear) / kLinear;
    const std::size_t sub = (i - kLinear) % kLinear;
    return static_cast<double>((kLinear + sub) << octave);
  }

  static double width(std::size_t i) {
    if (i < kLinear) return 1.0;
    return static_cast<double>(std::uint64_t{1} << ((i - kLinear) / kLinear));
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(
      kLinear + (kMaxOctave - kSubBits) * kLinear, 0);
  std::uint64_t count_ = 0;
};

}  // namespace qres::perfbench
