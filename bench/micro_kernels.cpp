// Microbenchmark: the fast compute-kernel tier against the scalar seed
// kernels, on VGG-416-shaped layers (DESIGN.md §"Compute kernels").
//
// Three families are timed:
//   conv     im2col + blocked GEMM vs the scalar direct convolution, on the
//            per-stage 3x3 layer shapes of ModelSpec::vgg416_large
//            (forward + backward data + backward weights, like one training
//            step touches them)
//   gemm     the cache-blocked register-tiled GEMM core vs a naive triple
//            loop, on the implied im2col matrix shapes
//   eltwise  the ThreadPool-parallel elementwise family (relu fwd+bwd, add,
//            sgd) vs the scalar loops, on a stage-0 activation-sized buffer
//
// Every row reports host wall seconds (simulated seconds do not apply: this
// measures the real arithmetic the Sentinel argument rests on) and the
// achieved GEMM GFLOP/s from the kernel counters.  The headline acceptance
// number -- fast-tier speedup on the 3x3 conv fwd+bwd at 8 threads -- is
// emitted into BENCH_kernels.json as an explicit "speedup:" record so CI
// can regress on it.
//
// `--smoke` switches to tiny shapes / one repetition for the bench-smoke
// ctest label.
#include <cstdio>

#include "common.hpp"
#include "dnn/gemm.hpp"
#include "dnn/ops_real.hpp"
#include "dnn/scratch.hpp"
#include "simd/gemm_kernel.hpp"
#include "simd/isa.hpp"
#include "telemetry/counters.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

using namespace ca;
using namespace ca::bench;
using dnn::real::ConvDims;
using dnn::real::KernelCtx;

namespace {

constexpr std::size_t kThreads = 8;

std::vector<float> randn(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// The steady-state 3x3 conv layer of each VGG-416 stage (cin == cout; the
/// builder doubles channels and maxpool halves the spatial dims per stage).
std::vector<ConvDims> vgg416_layers(bool smoke) {
  const dnn::ModelSpec spec = dnn::ModelSpec::vgg416_large();
  std::vector<ConvDims> layers;
  std::size_t hw = spec.image;
  for (std::size_t s = 0; s < spec.stages.size() && hw >= 2; ++s) {
    const std::size_t c =
        spec.base_channels * std::min<std::size_t>(std::size_t{1} << s, 8);
    ConvDims d;
    d.n = smoke ? 2 : spec.batch;
    d.cin = c;
    d.cout = c;
    d.h = hw;
    d.w = hw;
    d.k = 3;
    d.stride = 1;
    d.pad = 1;
    layers.push_back(d);
    hw /= 2;
    if (smoke && layers.size() == 2) break;
  }
  return layers;
}

struct ConvTiming {
  double fwd = 0.0;
  double bwd = 0.0;  ///< bwd_data + bwd_weights
  [[nodiscard]] double total() const { return fwd + bwd; }
};

/// One training step's worth of conv work on `d`, repeated `reps` times.
/// With ctx == nullptr the scalar tier runs.
ConvTiming time_conv(const ConvDims& d, int reps, const KernelCtx* ctx) {
  const auto x = randn(d.n * d.cin * d.h * d.w, 1);
  const auto w = randn(d.cout * d.cin * d.k * d.k, 2);
  const auto b = randn(d.cout, 3);
  const std::size_t ysz = d.n * d.cout * d.hout() * d.wout();
  const auto gy = randn(ysz, 4);
  std::vector<float> y(ysz), gx(x.size()), gw(w.size());

  ConvTiming t;
  for (int r = 0; r < reps; ++r) {
    {
      WallTimer wall;
      if (ctx != nullptr) {
        dnn::real::conv2d_fwd(*ctx, x.data(), w.data(), b.data(), y.data(),
                              d);
      } else {
        dnn::real::conv2d_fwd(x.data(), w.data(), b.data(), y.data(), d);
      }
      t.fwd += wall.seconds();
    }
    {
      WallTimer wall;
      if (ctx != nullptr) {
        dnn::real::conv2d_bwd_data(*ctx, w.data(), gy.data(), gx.data(), d);
        dnn::real::conv2d_bwd_weights(*ctx, x.data(), gy.data(), gw.data(),
                                      d);
      } else {
        dnn::real::conv2d_bwd_data(w.data(), gy.data(), gx.data(), d);
        dnn::real::conv2d_bwd_weights(x.data(), gy.data(), gw.data(), d);
      }
      t.bwd += wall.seconds();
    }
  }
  return t;
}

double time_gemm(std::size_t m, std::size_t n, std::size_t k, int reps,
                 const KernelCtx* ctx) {
  const auto a = randn(m * k, 5);
  const auto b = randn(k * n, 6);
  std::vector<float> c(m * n);
  WallTimer wall;
  for (int r = 0; r < reps; ++r) {
    if (ctx != nullptr) {
      dnn::real::gemm(*ctx, false, false, m, n, k, 1.0f, a.data(), k,
                      b.data(), n, 0.0f, c.data(), n);
    } else {
      // Naive triple loop: the pre-fast-tier baseline.
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float acc = 0.0f;
          for (std::size_t p = 0; p < k; ++p) {
            acc += a[i * k + p] * b[p * n + j];
          }
          c[i * n + j] = acc;
        }
      }
    }
  }
  return wall.seconds();
}

double time_eltwise(std::size_t n, int reps, const KernelCtx* ctx) {
  const auto x = randn(n, 7);
  const auto g = randn(n, 8);
  std::vector<float> y(n), w(x);
  WallTimer wall;
  for (int r = 0; r < reps; ++r) {
    if (ctx != nullptr) {
      dnn::real::relu_fwd(*ctx, x.data(), y.data(), n);
      dnn::real::relu_bwd(*ctx, x.data(), g.data(), y.data(), n);
      dnn::real::add_fwd(*ctx, x.data(), g.data(), y.data(), n);
      dnn::real::sgd_update(*ctx, w.data(), g.data(), 0.01f, n);
    } else {
      dnn::real::relu_fwd(x.data(), y.data(), n);
      dnn::real::relu_bwd(x.data(), g.data(), y.data(), n);
      dnn::real::add_fwd(x.data(), g.data(), y.data(), n);
      dnn::real::sgd_update(w.data(), g.data(), 0.01f, n);
    }
  }
  return wall.seconds();
}

std::string conv_label(const ConvDims& d) {
  return "conv3x3 n" + std::to_string(d.n) + " c" + std::to_string(d.cin) +
         " " + std::to_string(d.h) + "x" + std::to_string(d.w);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = smoke ? 1 : 3;

  util::ThreadPool pool(kThreads);
  dnn::real::ScratchPool scratch;
  telemetry::KernelCounters counters;
  const KernelCtx fast{&pool, &scratch, &counters, false};

  std::printf("=== micro_kernels ===\n");
  std::printf(
      "Fast compute-kernel tier (blocked GEMM + im2col + pool-parallel "
      "eltwise,\n%zu threads) vs the scalar seed kernels, on VGG-416-shaped "
      "layers.\nHost wall seconds; %d rep(s) per row.%s\n\n",
      kThreads, reps, smoke ? "  [smoke shapes]" : "");

  BenchReport report("kernels");

  // --- conv: the headline numbers -------------------------------------------
  double conv_scalar_total = 0.0, conv_fast_total = 0.0;
  std::printf("%-26s %12s %12s %9s %10s\n", "conv layer (fwd+bwd)",
              "scalar [s]", "fast [s]", "speedup", "GFLOP/s");
  for (const ConvDims& d : vgg416_layers(smoke)) {
    const ConvTiming scalar = time_conv(d, reps, nullptr);
    const telemetry::KernelCounters before = counters;
    const ConvTiming fastt = time_conv(d, reps, &fast);
    const telemetry::KernelCounters delta = counters.delta(before);
    const double speedup =
        fastt.total() > 0.0 ? scalar.total() / fastt.total() : 0.0;
    conv_scalar_total += scalar.total();
    conv_fast_total += fastt.total();
    std::printf("%-26s %12.4f %12.4f %8.1fx %10.1f\n",
                conv_label(d).c_str(), scalar.total(), fastt.total(), speedup,
                delta.gemm_gflops());
    report.add(conv_label(d) + " scalar", scalar.total(), "s",
               Better::kLower);
    report.add(conv_label(d) + " fast", fastt.total(), "s", Better::kLower);
  }
  const double conv_speedup =
      conv_fast_total > 0.0 ? conv_scalar_total / conv_fast_total : 0.0;
  std::printf("%-26s %12.4f %12.4f %8.1fx\n\n", "all conv layers",
              conv_scalar_total, conv_fast_total, conv_speedup);
  report.add("speedup: conv3x3 fwd+bwd, 8 threads vs scalar", conv_speedup,
             "ratio", Better::kHigher);

  // --- gemm: the im2col matrix shapes ---------------------------------------
  std::printf("%-26s %12s %12s %9s\n", "gemm m*n*k", "naive [s]", "fast [s]",
              "speedup");
  struct GemmShape {
    std::size_t m, n, k;
  };
  std::vector<GemmShape> gemms;
  for (const ConvDims& d : vgg416_layers(smoke)) {
    // The forward im2col GEMM of one image: (cout) x (ho*wo) x (cin*k*k).
    gemms.push_back({d.cout, d.hout() * d.wout(), d.cin * d.k * d.k});
  }
  gemms.push_back(smoke ? GemmShape{64, 64, 64} : GemmShape{256, 1024, 512});
  for (const auto& g : gemms) {
    const double naive = time_gemm(g.m, g.n, g.k, reps, nullptr);
    const double fastt = time_gemm(g.m, g.n, g.k, reps, &fast);
    const double speedup = fastt > 0.0 ? naive / fastt : 0.0;
    const std::string label = "gemm " + std::to_string(g.m) + "x" +
                              std::to_string(g.n) + "x" + std::to_string(g.k);
    std::printf("%-26s %12.4f %12.4f %8.1fx\n", label.c_str(), naive, fastt,
                speedup);
    report.add(label + " naive", naive, "s", Better::kLower);
    report.add(label + " fast", fastt, "s", Better::kLower);
  }
  std::printf("\n");

  // --- gemm dispatch sweep: each ISA tile vs the 4x8 scalar tile ------------
  // Same blocked code path at every level; only the register tile changes.
  // The "dispatched vs 4x8" ratio is the acceptance record for the
  // CA_NATIVE=OFF build hitting native width through runtime dispatch.
  {
    const std::size_t m = smoke ? 96 : 384;
    const std::size_t n = smoke ? 128 : 1024;
    const std::size_t k = smoke ? 96 : 512;
    const int sweep_reps = smoke ? 1 : 5;
    const simd::IsaLevel entry = simd::active_level();
    std::printf("%-26s %12s %9s   (m=%zu n=%zu k=%zu, blocked path)\n",
                "gemm dispatch level", "fast [s]", "vs 4x8", m, n, k);
    double scalar_s = 0.0, best_s = 0.0;
    for (int l = 0; l <= static_cast<int>(simd::max_supported_level()); ++l) {
      const auto level = static_cast<simd::IsaLevel>(l);
      simd::set_level(level);
      const simd::GemmTile& tile = simd::gemm_tile(level);
      const double t = time_gemm(m, n, k, sweep_reps, &fast);
      if (level == simd::IsaLevel::kScalar) scalar_s = t;
      best_s = t;  // levels ascend; the last one is the dispatched choice
      const double vs = t > 0.0 ? scalar_s / t : 0.0;
      const std::string label = std::string("gemm dispatch ") +
                                simd::level_name(level) + " (" +
                                std::to_string(tile.mr) + "x" +
                                std::to_string(tile.nr) + ")";
      std::printf("%-26s %12.4f %8.1fx\n", label.c_str(), t, vs);
      report.add(label, t, "s", Better::kLower);
    }
    simd::set_level(entry);
    const double dispatch_speedup = best_s > 0.0 ? scalar_s / best_s : 0.0;
    std::printf("%-26s %12s %8.1fx\n\n", "dispatched vs 4x8 scalar", "",
                dispatch_speedup);
    report.add("speedup: dispatched gemm vs 4x8 scalar tile (CA_NATIVE=OFF)",
               dispatch_speedup, "ratio", Better::kHigher);
  }

  // --- eltwise: stage-0 activation-sized buffers ----------------------------
  const std::size_t elt_n = smoke ? 64 * 1024 : 20 * 16 * 32 * 32 * 4;
  const int elt_reps = reps * 20;
  const double elt_scalar = time_eltwise(elt_n, elt_reps, nullptr);
  const double elt_fast = time_eltwise(elt_n, elt_reps, &fast);
  const std::string elt_label = "eltwise " + std::to_string(elt_n) + " floats";
  std::printf("%-26s %12.4f %12.4f %8.1fx\n\n", elt_label.c_str(), elt_scalar,
              elt_fast, elt_fast > 0.0 ? elt_scalar / elt_fast : 0.0);
  report.add(elt_label + " scalar", elt_scalar, "s", Better::kLower);
  report.add(elt_label + " fast", elt_fast, "s", Better::kLower);

  // --- parallel_for rendezvous: the latch wakeup tail -----------------------
  // Each round is one tiny fan-out/fan-in through the pool: the cost is
  // almost entirely the rendezvous (CompletionLatch arrive/wait), so the
  // p99 exposes the wakeup tail the spin-then-park latch is meant to keep
  // short.  min_grain = 1 forces the pool path even at this size.
  {
    const int rounds = smoke ? 200 : 5000;
    std::vector<float> buf(kThreads * 8, 0.0f);
    std::vector<double> lat(static_cast<std::size_t>(rounds));
    for (int i = 0; i < rounds; ++i) {
      WallTimer t;
      pool.parallel_for(
          buf.size(),
          [&](std::size_t b, std::size_t e) {
            for (std::size_t j = b; j < e; ++j) buf[j] += 1.0f;
          },
          /*min_grain=*/1);
      lat[static_cast<std::size_t>(i)] = t.seconds();
    }
    const double p50 = percentile(lat, 0.5);
    const double p99 = percentile(lat, 0.99);
    std::printf("parallel_for rendezvous (%d rounds, n=%zu): "
                "p50 %.2fus, p99 %.2fus wakeup tail\n\n",
                rounds, buf.size(), p50 * 1e6, p99 * 1e6);
    report.add("parallel_for rendezvous p50 s", p50, "s", Better::kLower);
    report.add("parallel_for rendezvous p99 s", p99, "s", Better::kLower);
  }

  std::printf("Totals: %zu gemm calls, %.1f achieved GFLOP/s, "
              "%.3f s in gemm, %.3f s in im2col.\n",
              static_cast<std::size_t>(counters.gemm_calls),
              counters.gemm_gflops(), counters.gemm_seconds,
              counters.im2col_seconds);
  const auto sstats = scratch.stats();
  std::printf("Scratch: %zu leases over %zu buffers, %s peak.\n",
              static_cast<std::size_t>(sstats.leases), sstats.buffers,
              util::format_bytes(sstats.peak_bytes).c_str());

  if (!smoke && conv_speedup < 5.0) {
    std::printf("\nWARNING: conv fwd+bwd speedup %.1fx is below the 5x "
                "acceptance floor.\n",
                conv_speedup);
  }

  report.write(argc, argv);
  return 0;
}
