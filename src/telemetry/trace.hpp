// Time-series tracing: heap occupancy over simulated time (Fig. 3).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ca::telemetry {

/// A (simulated-time, value) sample stream, e.g. resident heap bytes.
class TimeSeries {
 public:
  struct Sample {
    double t;
    double value;
  };

  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void record(double t, double value) { samples_.push_back({t, value}); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Maximum value over the series (0 when empty).
  [[nodiscard]] double max_value() const noexcept;

  /// Downsample to at most `buckets` points by averaging within equal time
  /// bins; used to print compact figure data.
  [[nodiscard]] std::vector<Sample> downsample(std::size_t buckets) const;

  void clear() noexcept { samples_.clear(); }

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace ca::telemetry
