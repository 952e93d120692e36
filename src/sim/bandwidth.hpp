// Bandwidth-vs-parallelism curves for the simulated memory devices.
//
// The central hardware facts the paper's policy design rests on (§III-D and
// §V-d, citing Izraelevitz et al. and Hildebrand et al.):
//   * NVRAM writes are slow and low bandwidth, and DRAM->NVRAM copy
//     bandwidth *decreases* with increasing parallelism.
//   * NVRAM reads are not much slower than DRAM.
//   * Non-temporal stores are crucial for NVRAM write performance.
// A piecewise-linear curve over (thread-count, bandwidth) control points
// captures all three regimes.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace ca::sim {

class BandwidthCurve {
 public:
  struct Point {
    std::size_t threads;
    double bytes_per_sec;
  };

  BandwidthCurve() = default;

  /// Points must be given in strictly increasing thread order with at least
  /// one entry; bandwidth is linearly interpolated between points and clamped
  /// flat outside the given range.
  BandwidthCurve(std::initializer_list<Point> points);

  /// Constant bandwidth regardless of parallelism.
  static BandwidthCurve flat(double bytes_per_sec);

  /// Bandwidth achieved when `threads` workers drive the device.
  [[nodiscard]] double at(std::size_t threads) const;

  /// Peak bandwidth over all thread counts.
  [[nodiscard]] double peak() const;

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

 private:
  std::vector<Point> points_;
};

}  // namespace ca::sim
