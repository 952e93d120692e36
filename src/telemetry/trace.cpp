#include "telemetry/trace.hpp"

#include <algorithm>

namespace ca::telemetry {

double TimeSeries::max_value() const noexcept {
  double m = 0.0;
  for (const auto& s : samples_) m = std::max(m, s.value);
  return m;
}

std::vector<TimeSeries::Sample> TimeSeries::downsample(
    std::size_t buckets) const {
  if (samples_.size() <= buckets || buckets == 0) return samples_;
  const double t0 = samples_.front().t;
  const double t1 = samples_.back().t;
  const double span = t1 - t0;
  if (span <= 0.0) return {samples_.back()};

  std::vector<Sample> out;
  out.reserve(buckets);
  std::size_t i = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double hi = t0 + span * static_cast<double>(b + 1) /
                               static_cast<double>(buckets);
    double sum = 0.0;
    std::size_t n = 0;
    double last_t = hi;
    while (i < samples_.size() && (samples_[i].t <= hi || b + 1 == buckets)) {
      sum += samples_[i].value;
      last_t = samples_[i].t;
      ++n;
      ++i;
    }
    if (n > 0) out.push_back({last_t, sum / static_cast<double>(n)});
  }
  return out;
}

}  // namespace ca::telemetry
