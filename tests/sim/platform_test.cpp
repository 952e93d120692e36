#include "sim/platform.hpp"

#include <gtest/gtest.h>

#include "util/align.hpp"

namespace ca::sim {
namespace {

TEST(Platform, DefaultPresetShape) {
  const auto p = Platform::cascade_lake_default();
  ASSERT_EQ(p.devices.size(), 2u);
  EXPECT_EQ(p.devices[0].kind, DeviceKind::kDram);
  EXPECT_EQ(p.devices[1].kind, DeviceKind::kNvram);
  EXPECT_EQ(p.devices[0].capacity, 180 * util::MiB);
  EXPECT_EQ(p.devices[1].capacity, 1300 * util::MiB);
}

TEST(Platform, FastSlowAliasesMatchKinds) {
  const auto p = Platform::cascade_lake_default();
  EXPECT_EQ(p.spec(kFast).kind, DeviceKind::kDram);
  EXPECT_EQ(p.spec(kSlow).kind, DeviceKind::kNvram);
}

TEST(Platform, NvramWriteSlowerThanRead) {
  const auto p = Platform::cascade_lake_default();
  const auto& nvram = p.spec(kSlow);
  for (std::size_t t : {1u, 4u, 8u, 16u}) {
    EXPECT_LT(nvram.write_bw_nt.at(t), nvram.read_bw.at(t));
  }
}

TEST(Platform, NvramWriteBandwidthDegradesWithParallelism) {
  const auto p = Platform::cascade_lake_default();
  const auto& nvram = p.spec(kSlow);
  EXPECT_GT(nvram.write_bw_nt.at(4), nvram.write_bw_nt.at(16));
  EXPECT_GT(nvram.write_bw_nt.at(4), nvram.write_bw_nt.at(32));
}

TEST(Platform, NonTemporalStoresAreCrucialForNvram) {
  const auto p = Platform::cascade_lake_default();
  const auto& nvram = p.spec(kSlow);
  for (std::size_t t : {1u, 4u, 16u}) {
    EXPECT_LT(nvram.write_bw.at(t), 0.6 * nvram.write_bw_nt.at(t));
  }
}

TEST(Platform, DramFasterThanNvramEverywhere) {
  const auto p = Platform::cascade_lake_default();
  const auto& dram = p.spec(kFast);
  const auto& nvram = p.spec(kSlow);
  for (std::size_t t : {1u, 4u, 8u, 16u}) {
    EXPECT_GT(dram.read_bw.at(t), nvram.read_bw.at(t));
    EXPECT_GT(dram.write_bw_nt.at(t), nvram.write_bw_nt.at(t));
  }
}

TEST(Platform, NvramReadNotMuchSlowerThanDramAtLowParallelism) {
  // Paper: "Reads to NVRAM are not much slower than DRAM" -- within ~2.5x
  // in the regime kernels operate in.
  const auto p = Platform::cascade_lake_default();
  EXPECT_LT(p.spec(kFast).read_bw.at(1) / p.spec(kSlow).read_bw.at(1), 2.5);
}

TEST(Platform, CustomCapacities) {
  const auto p = Platform::cascade_lake_scaled(10 * util::MiB, 50 * util::MiB);
  EXPECT_EQ(p.spec(kFast).capacity, 10 * util::MiB);
  EXPECT_EQ(p.spec(kSlow).capacity, 50 * util::MiB);
}

TEST(Platform, DeviceKindNames) {
  EXPECT_STREQ(to_string(DeviceKind::kDram), "DRAM");
  EXPECT_STREQ(to_string(DeviceKind::kNvram), "NVRAM");
}

TEST(ThreeTierPlatform, ShapeAndOrdering) {
  const auto p = Platform::three_tier_scaled(
      32 * util::MiB, 128 * util::MiB, 1024 * util::MiB);
  ASSERT_EQ(p.devices.size(), 3u);
  EXPECT_EQ(p.devices[0].capacity, 32 * util::MiB);
  EXPECT_EQ(p.devices[1].capacity, 128 * util::MiB);
  EXPECT_EQ(p.devices[2].capacity, 1024 * util::MiB);
  // Strictly faster as you go up.
  for (std::size_t t : {1u, 4u, 8u}) {
    EXPECT_GT(p.devices[0].read_bw.at(t), p.devices[1].read_bw.at(t));
    EXPECT_GT(p.devices[1].read_bw.at(t), p.devices[2].read_bw.at(t));
  }
}

}  // namespace
}  // namespace ca::sim
