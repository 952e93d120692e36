#include <gtest/gtest.h>

#include "sim/platform.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"

namespace ca::telemetry {
namespace {

TEST(TrafficCounters, StartsAtZero) {
  TrafficCounters c;
  EXPECT_EQ(c.device(sim::kFast).total(), 0u);
  EXPECT_EQ(c.device(sim::kSlow).total(), 0u);
}

TEST(TrafficCounters, RecordsPerDeviceAndDirection) {
  TrafficCounters c;
  c.record_read(sim::kFast, 100);
  c.record_write(sim::kFast, 50);
  c.record_read(sim::kSlow, 7);
  EXPECT_EQ(c.device(sim::kFast).bytes_read, 100u);
  EXPECT_EQ(c.device(sim::kFast).bytes_written, 50u);
  EXPECT_EQ(c.device(sim::kFast).read_ops, 1u);
  EXPECT_EQ(c.device(sim::kFast).write_ops, 1u);
  EXPECT_EQ(c.device(sim::kSlow).bytes_read, 7u);
  EXPECT_EQ(c.device(sim::kFast).total(), 150u);
}

TEST(TrafficCounters, DeltaSinceSnapshot) {
  TrafficCounters c;
  c.record_read(sim::kFast, 100);
  const auto snap = c.device(sim::kFast);
  c.record_read(sim::kFast, 30);
  c.record_write(sim::kFast, 20);
  const auto d = c.delta(sim::kFast, snap);
  EXPECT_EQ(d.bytes_read, 30u);
  EXPECT_EQ(d.bytes_written, 20u);
  EXPECT_EQ(d.read_ops, 1u);
}

TEST(TrafficCounters, ResetClears) {
  TrafficCounters c;
  c.record_write(sim::kSlow, 99);
  c.reset();
  EXPECT_EQ(c.device(sim::kSlow).total(), 0u);
}

TEST(TimeSeries, RecordsSamples) {
  TimeSeries s("x");
  EXPECT_TRUE(s.empty());
  s.record(0.0, 1.0);
  s.record(1.0, 3.0);
  EXPECT_EQ(s.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(s.max_value(), 3.0);
}

TEST(TimeSeries, MaxOfEmptyIsZero) {
  TimeSeries s("x");
  EXPECT_DOUBLE_EQ(s.max_value(), 0.0);
}

TEST(TimeSeries, DownsampleReducesToBucketCount) {
  TimeSeries s("x");
  for (int i = 0; i < 1000; ++i) {
    s.record(static_cast<double>(i), static_cast<double>(i % 10));
  }
  const auto out = s.downsample(10);
  EXPECT_LE(out.size(), 10u);
  EXPECT_GE(out.size(), 9u);
  // Bucket means of a repeating 0..9 pattern are ~4.5.
  for (const auto& sample : out) EXPECT_NEAR(sample.value, 4.5, 1.0);
}

TEST(TimeSeries, DownsampleOfShortSeriesIsIdentity) {
  TimeSeries s("x");
  s.record(0.0, 1.0);
  s.record(1.0, 2.0);
  const auto out = s.downsample(10);
  EXPECT_EQ(out.size(), 2u);
}

TEST(TimeSeries, DownsamplePreservesTimeOrder) {
  TimeSeries s("x");
  for (int i = 0; i < 100; ++i) s.record(i * 0.1, 1.0);
  const auto out = s.downsample(7);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GT(out[i].t, out[i - 1].t);
  }
}

}  // namespace
}  // namespace ca::telemetry
