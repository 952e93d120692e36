#include "util/align.hpp"

#include <gtest/gtest.h>

namespace ca::util {
namespace {

TEST(Align, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
  EXPECT_TRUE(is_pow2(std::size_t{1} << 63));
}

TEST(Align, AlignUpBasics) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
}

TEST(Align, AlignDownBasics) {
  EXPECT_EQ(align_down(0, 64), 0u);
  EXPECT_EQ(align_down(63, 64), 0u);
  EXPECT_EQ(align_down(64, 64), 64u);
  EXPECT_EQ(align_down(127, 64), 64u);
}

TEST(Align, AlignUpIsIdempotent) {
  for (std::size_t x : {std::size_t{0}, std::size_t{7}, std::size_t{100},
                        std::size_t{4095}, std::size_t{4096}}) {
    const std::size_t once = align_up(x, 4096);
    EXPECT_EQ(align_up(once, 4096), once);
    EXPECT_TRUE(is_aligned(once, 4096));
    EXPECT_GE(once, x);
    EXPECT_LT(once - x, std::size_t{4096});
  }
}

TEST(Align, PointerAlignment) {
  alignas(64) char buf[128] = {};
  EXPECT_TRUE(is_aligned(static_cast<void*>(buf), 64));
  EXPECT_FALSE(is_aligned(static_cast<void*>(buf + 1), 64));
}

TEST(Align, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
}

TEST(Align, ByteUnits) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

}  // namespace
}  // namespace ca::util
