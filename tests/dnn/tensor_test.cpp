#include "dnn/tensor.hpp"

#include <gtest/gtest.h>

#include "dnn/harness.hpp"
#include "util/align.hpp"

namespace ca::dnn {
namespace {

TEST(Shape, RankAndNumel) {
  Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.numel(), 120u);
  EXPECT_EQ(s.n(), 2u);
  EXPECT_EQ(s.c(), 3u);
  EXPECT_EQ(s.h(), 4u);
  EXPECT_EQ(s.w(), 5u);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_FALSE((Shape{2, 3}) == (Shape{3, 2}));
  EXPECT_FALSE((Shape{2, 3}) == (Shape{2, 3, 1}));
}

TEST(Shape, IndexOutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW((void)s[2], InternalError);
}

TEST(Shape, Str) { EXPECT_EQ((Shape{2, 3, 4, 4}).str(), "(2x3x4x4)"); }

TEST(Tensor, DefaultIsInvalid) {
  Tensor t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.object(), nullptr);
}

TEST(Tensor, BackedByCachedArray) {
  HarnessConfig cfg;
  cfg.mode = Mode::kCaLM;
  cfg.dram_bytes = 4 * util::MiB;
  cfg.nvram_bytes = 8 * util::MiB;
  cfg.backend = Backend::kReal;
  Harness h(cfg);
  Tensor t(h.runtime(), {4, 4}, "t");
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.numel(), 16u);
  EXPECT_EQ(t.bytes(), 64u);
  EXPECT_EQ(t.object()->size(), 64u);
  EXPECT_EQ(t.object()->name(), "t");
}

TEST(Tensor, IdentityComparesObjects) {
  HarnessConfig cfg;
  cfg.mode = Mode::kCaLM;
  cfg.dram_bytes = 4 * util::MiB;
  cfg.nvram_bytes = 8 * util::MiB;
  Harness h(cfg);
  Tensor a(h.runtime(), {4});
  Tensor b = a;
  Tensor c(h.runtime(), {4});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace ca::dnn
