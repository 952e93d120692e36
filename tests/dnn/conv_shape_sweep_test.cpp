// Parameterized property sweep over convolution geometries: for every
// (channels, spatial, kernel, stride, pad) combination, the engine's
// analytic weight gradient must match central finite differences.  This
// covers the index arithmetic corners (padding clipping, strided output
// maps, 1x1 kernels, channel mixing) in one sweep.
#include <cmath>

#include <gtest/gtest.h>

#include "dnn/harness.hpp"
#include "util/align.hpp"

namespace ca::dnn {
namespace {

struct ConvCase {
  std::size_t cin, cout, hw, k, stride, pad;
};

class ConvShapeSweep : public ::testing::TestWithParam<ConvCase> {
 protected:
  ConvShapeSweep() : harness_(config()) {}

  static HarnessConfig config() {
    HarnessConfig cfg;
    cfg.mode = Mode::kCaL;
    cfg.dram_bytes = 16 * util::MiB;
    cfg.nvram_bytes = 64 * util::MiB;
    cfg.backend = Backend::kReal;
    return cfg;
  }

  Harness harness_;
};

TEST_P(ConvShapeSweep, WeightGradMatchesFiniteDifferences) {
  const auto p = GetParam();
  // Output geometry must be well-formed for this case.
  ASSERT_GE(p.hw + 2 * p.pad, p.k);

  auto& e = harness_.engine();
  Tensor x = e.tensor({2, p.cin, p.hw, p.hw}, "x");
  Tensor w = e.parameter({p.cout, p.cin, p.k, p.k}, "w");
  Tensor b = e.parameter({p.cout}, "b");
  Tensor hw_ = e.parameter({3, p.cout}, "hw");
  Tensor hb = e.parameter({3}, "hb");
  Tensor labels = e.tensor({2}, "labels");
  e.fill_normal(x, 1.0f, 1);
  e.fill_normal(w, 0.4f, 2);
  e.fill_normal(b, 0.1f, 3);
  e.fill_normal(hw_, 0.5f, 4);
  e.fill_zero(hb);
  e.fill_labels(labels, 3, 5);

  auto loss = [&] {
    Tensor y = e.global_avgpool(e.conv2d(x, w, b, p.stride, p.pad));
    return e.softmax_ce_loss(e.dense(y, hw_, hb), labels);
  };

  loss();
  e.backward();
  Tensor g = e.grad(w);
  ASSERT_TRUE(g.valid());
  std::vector<float> analytic(g.numel());
  g.array().with_read([&](std::span<const float> s) {
    std::copy(s.begin(), s.end(), analytic.begin());
  });
  e.end_iteration();

  const std::size_t n = w.numel();
  const std::size_t stride = std::max<std::size_t>(1, n / 4);
  for (std::size_t i = 0; i < n; i += stride) {
    const float eps = 1e-2f;
    float original = 0.0f;
    w.array().with_write([&](std::span<float> s) {
      original = s[i];
      s[i] = original + eps;
    });
    const float up = loss();
    e.end_iteration();
    w.array().with_write([&](std::span<float> s) { s[i] = original - eps; });
    const float down = loss();
    e.end_iteration();
    w.array().with_write([&](std::span<float> s) { s[i] = original; });

    const double numeric = (up - down) / (2.0 * eps);
    const double scale =
        std::max({std::abs(numeric), std::abs(double{analytic[i]}), 0.05});
    EXPECT_NEAR(analytic[i], numeric, 0.06 * scale)
        << "weight " << i << " cin=" << p.cin << " k=" << p.k
        << " stride=" << p.stride << " pad=" << p.pad;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvShapeSweep,
    ::testing::Values(ConvCase{1, 1, 4, 1, 1, 0},   // pointwise
                      ConvCase{2, 3, 4, 1, 1, 0},   // 1x1 channel mixing
                      ConvCase{1, 2, 6, 3, 1, 1},   // standard 3x3 same
                      ConvCase{2, 2, 6, 3, 2, 1},   // strided downsample
                      ConvCase{3, 2, 5, 3, 1, 0},   // valid (no pad)
                      ConvCase{1, 1, 6, 5, 1, 2},   // big kernel, big pad
                      ConvCase{2, 4, 4, 3, 1, 2},   // pad > natural
                      ConvCase{4, 1, 4, 3, 2, 1}),  // many-in one-out strided
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      const auto& p = info.param;
      return "cin" + std::to_string(p.cin) + "cout" + std::to_string(p.cout) +
             "hw" + std::to_string(p.hw) + "k" + std::to_string(p.k) + "s" +
             std::to_string(p.stride) + "p" + std::to_string(p.pad);
    });

}  // namespace
}  // namespace ca::dnn
