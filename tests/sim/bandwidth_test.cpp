#include "sim/bandwidth.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ca::sim {
namespace {

TEST(BandwidthCurve, FlatCurve) {
  const auto c = BandwidthCurve::flat(100.0);
  EXPECT_DOUBLE_EQ(c.at(1), 100.0);
  EXPECT_DOUBLE_EQ(c.at(64), 100.0);
  EXPECT_DOUBLE_EQ(c.peak(), 100.0);
}

TEST(BandwidthCurve, ExactControlPoints) {
  const BandwidthCurve c{{1, 10.0}, {4, 40.0}, {8, 80.0}};
  EXPECT_DOUBLE_EQ(c.at(1), 10.0);
  EXPECT_DOUBLE_EQ(c.at(4), 40.0);
  EXPECT_DOUBLE_EQ(c.at(8), 80.0);
}

TEST(BandwidthCurve, LinearInterpolation) {
  const BandwidthCurve c{{1, 10.0}, {5, 50.0}};
  EXPECT_DOUBLE_EQ(c.at(2), 20.0);
  EXPECT_DOUBLE_EQ(c.at(3), 30.0);
  EXPECT_DOUBLE_EQ(c.at(4), 40.0);
}

TEST(BandwidthCurve, ClampedOutsideRange) {
  const BandwidthCurve c{{2, 20.0}, {8, 80.0}};
  EXPECT_DOUBLE_EQ(c.at(1), 20.0);
  EXPECT_DOUBLE_EQ(c.at(100), 80.0);
}

TEST(BandwidthCurve, DecreasingCurveModelsNvramWrites) {
  // NVRAM write bandwidth peaks at low parallelism and then degrades.
  const BandwidthCurve c{{1, 4.0}, {4, 8.0}, {16, 5.0}, {32, 4.0}};
  EXPECT_GT(c.at(4), c.at(1));
  EXPECT_GT(c.at(4), c.at(16));
  EXPECT_GT(c.at(16), c.at(32));
  EXPECT_DOUBLE_EQ(c.peak(), 8.0);
}

TEST(BandwidthCurve, NonIncreasingThreadOrderThrows) {
  EXPECT_THROW((BandwidthCurve{{4, 1.0}, {2, 2.0}}), InternalError);
  EXPECT_THROW((BandwidthCurve{{4, 1.0}, {4, 2.0}}), InternalError);
}

TEST(BandwidthCurve, NonPositiveBandwidthThrows) {
  EXPECT_THROW((BandwidthCurve{{1, 0.0}}), InternalError);
  EXPECT_THROW((BandwidthCurve{{1, -5.0}}), InternalError);
}

TEST(BandwidthCurve, InterpolationIsMonotonicBetweenPoints) {
  const BandwidthCurve c{{1, 10.0}, {8, 80.0}, {16, 40.0}};
  double prev = c.at(1);
  for (std::size_t t = 2; t <= 8; ++t) {
    EXPECT_GE(c.at(t), prev);
    prev = c.at(t);
  }
  for (std::size_t t = 9; t <= 16; ++t) {
    EXPECT_LE(c.at(t), prev);
    prev = c.at(t);
  }
}

}  // namespace
}  // namespace ca::sim
