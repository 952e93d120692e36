#include "sim/bandwidth.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ca::sim {

BandwidthCurve::BandwidthCurve(std::initializer_list<Point> points)
    : points_(points) {
  CA_CHECK(!points_.empty(), "bandwidth curve needs at least one point");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    CA_CHECK(points_[i].threads > points_[i - 1].threads,
             "curve points must have strictly increasing thread counts");
  }
  for (const auto& p : points_) {
    CA_CHECK(p.bytes_per_sec > 0.0, "bandwidth must be positive");
    CA_CHECK(p.threads >= 1, "thread count must be at least 1");
  }
}

BandwidthCurve BandwidthCurve::flat(double bytes_per_sec) {
  return BandwidthCurve{{1, bytes_per_sec}};
}

double BandwidthCurve::at(std::size_t threads) const {
  CA_CHECK(!points_.empty(), "bandwidth curve is empty");
  if (threads <= points_.front().threads) {
    return points_.front().bytes_per_sec;
  }
  if (threads >= points_.back().threads) {
    return points_.back().bytes_per_sec;
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (threads <= points_[i].threads) {
      const auto& lo = points_[i - 1];
      const auto& hi = points_[i];
      const double t = static_cast<double>(threads - lo.threads) /
                       static_cast<double>(hi.threads - lo.threads);
      return lo.bytes_per_sec + t * (hi.bytes_per_sec - lo.bytes_per_sec);
    }
  }
  return points_.back().bytes_per_sec;  // unreachable
}

double BandwidthCurve::peak() const {
  CA_CHECK(!points_.empty(), "bandwidth curve is empty");
  return std::max_element(points_.begin(), points_.end(),
                          [](const Point& a, const Point& b) {
                            return a.bytes_per_sec < b.bytes_per_sec;
                          })
      ->bytes_per_sec;
}

}  // namespace ca::sim
