#include "dnn/engine.hpp"

#include <algorithm>
#include <cmath>

#include "dnn/ops_real.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ca::dnn {

namespace {

/// Peak arithmetic rate in flops per simulated second.  Together with a
/// per-model efficiency this calibrates where kernels sit on the roofline
/// (see DESIGN.md §6).
constexpr double kFlopRate = 2.9e9;

/// Elementwise kernels are memory-bound by construction; give them full
/// arithmetic efficiency so the roofline's memory term dominates.
constexpr double kEltwiseEfficiency = 1.0;

}  // namespace

Engine::Engine(core::Runtime& rt, ExecContext& ctx, EngineConfig config)
    : rt_(&rt), ctx_(&ctx), config_(config) {
  CA_CHECK(config_.compute_efficiency > 0.0, "efficiency must be positive");
}

// --- tensors -----------------------------------------------------------------

Tensor Engine::tensor(Shape shape, std::string name) {
  return Tensor(*rt_, shape, std::move(name), /*parameter=*/false);
}

Tensor Engine::parameter(Shape shape, std::string name) {
  Tensor t(*rt_, shape, std::move(name), /*parameter=*/true);
  params_.push_back(t);
  return t;
}

void Engine::fill_normal(Tensor& t, float stddev, std::uint64_t seed) {
  if (config_.backend == Backend::kSim) return;
  util::Xoshiro256 rng(seed);
  t.array().with_write([&](std::span<float> s) {
    for (auto& v : s) v = static_cast<float>(rng.normal()) * stddev;
  });
}

void Engine::fill_zero(Tensor& t) {
  if (config_.backend == Backend::kSim) return;
  t.array().with_write(
      [](std::span<float> s) { std::fill(s.begin(), s.end(), 0.0f); });
}

void Engine::fill_const(Tensor& t, float value) {
  if (config_.backend == Backend::kSim) return;
  t.array().with_write(
      [value](std::span<float> s) { std::fill(s.begin(), s.end(), value); });
}

void Engine::fill_labels(Tensor& t, std::size_t classes, std::uint64_t seed) {
  if (config_.backend == Backend::kSim) return;
  util::Xoshiro256 rng(seed);
  t.array().with_write([&](std::span<float> s) {
    for (auto& v : s) v = static_cast<float>(rng.bounded(classes));
  });
}

// --- kernel launch ---------------------------------------------------------

void Engine::execute_args(const std::vector<KernelArg>& args, double flops,
                          double efficiency, const RealFn& real_fn) {
  std::vector<dm::Object*> objs;
  objs.reserve(args.size());
  for (const auto& a : args) {
    CA_CHECK(a.tensor.object() != nullptr,
             "kernel argument is invalid or retired");
    objs.push_back(a.tensor.object());
  }

  // Stage: hints under displacement protection (the policy must not evict
  // one argument while prefetching another).
  auto& pol = rt_->policy();
  pol.begin_kernel(objs);
  for (const auto& a : args) {
    const std::size_t touched =
        a.bytes == 0 ? a.tensor.bytes() : a.bytes;
    if (a.partial) {
      // Sparse access: never worth migrating the whole object for it.
      rt_->will_read_partial(*a.tensor.object(), touched);
    } else if (a.write) {
      rt_->will_write(*a.tensor.object());
    } else {
      rt_->will_read(*a.tensor.object());
    }
  }
  pol.end_kernel();

  // Pin for the kernel's duration; resolve the indirection once.
  rt_->begin_kernel(objs);
  struct Unpin {
    core::Runtime* rt;
    std::span<dm::Object* const> objs;
    ~Unpin() { rt->end_kernel(objs); }
  } unpin{rt_, objs};

  // Cost: roofline of modeled compute vs modeled memory.
  std::vector<ArgAccess> accesses;
  accesses.reserve(args.size());
  for (const auto& a : args) {
    const std::size_t touched =
        a.bytes == 0 ? a.tensor.bytes() : a.bytes;
    accesses.push_back({a.tensor.object(), touched, a.write, a.passes});
  }
  const double mem_s = ctx_->charge_memory(accesses);
  const double comp_s = flops / (kFlopRate * efficiency);
  rt_->clock().advance(std::max(mem_s, comp_s), sim::TimeCategory::kCompute);
  ++stats_.kernels;
  stats_.compute_seconds += comp_s;
  stats_.memory_seconds += mem_s;
  stats_.kernel_seconds += std::max(mem_s, comp_s);

  // Resolve the indirection once per argument through the provenance-
  // tracked accessor; writes mark the primary dirty in both backends.
  // Declared after `unpin` so the spans (and their pins) are dropped
  // before end_kernel runs.
  std::vector<dm::PinnedSpan> spans;
  spans.reserve(args.size());
  std::vector<const float*> rptr;
  std::vector<float*> wptr;
  for (const auto& a : args) {
    spans.push_back(rt_->access(*a.tensor.object(), a.write));
    if (a.write) {
      wptr.push_back(reinterpret_cast<float*>(spans.back().data()));
    } else {
      rptr.push_back(reinterpret_cast<const float*>(spans.back().data()));
    }
  }
  if (config_.backend != Backend::kSim && real_fn) {
    const real::KernelCtx kctx{ctx_->kernel_pool(), &ctx_->kernel_scratch(),
                               &stats_.kernel_counters,
                               config_.backend == Backend::kReference};
    real_fn(kctx, rptr, wptr);
  }
  if (kernel_hook_) kernel_hook_();
}

void Engine::execute(const std::vector<Tensor>& reads,
                     const std::vector<Tensor>& writes, double flops,
                     double efficiency, const RealFn& real_fn,
                     int read_passes) {
  std::vector<KernelArg> args;
  args.reserve(reads.size() + writes.size());
  for (const auto& t : reads) {
    args.push_back({t, /*write=*/false, 0, read_passes, /*partial=*/false});
  }
  for (const auto& t : writes) {
    args.push_back({t, /*write=*/true, 0, 1, /*partial=*/false});
  }
  execute_args(args, flops, efficiency, real_fn);
}

void Engine::record(TapeEntry entry) {
  // §III-E: after the forward kernel, archive weights, bias and previous
  // activations -- they will not be used again until the backward pass.
  for (const auto& t : entry.inputs) {
    if (t.object() != nullptr) {
      rt_->archive(*t.object());
      ++stats_.archives_issued;
    }
  }
  tape_.push_back(std::move(entry));
}

// --- forward ops -------------------------------------------------------------

Tensor Engine::conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::size_t stride, std::size_t pad) {
  CA_CHECK(x.shape().rank() == 4 && w.shape().rank() == 4,
           "conv2d expects NCHW input and OIKK weights");
  CA_CHECK(x.shape().c() == w.shape()[1], "conv2d channel mismatch");
  CA_CHECK(b.shape().numel() == w.shape()[0], "conv2d bias size mismatch");
  real::ConvDims d;
  d.n = x.shape().n();
  d.cin = x.shape().c();
  d.h = x.shape().h();
  d.w = x.shape().w();
  d.cout = w.shape()[0];
  d.k = w.shape()[2];
  d.stride = stride;
  d.pad = pad;

  Tensor y = tensor({d.n, d.cout, d.hout(), d.wout()}, "conv.y");
  execute({x, w, b}, {y}, d.flops(), config_.compute_efficiency,
          [d](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::conv2d_fwd(kctx, r[0], r[1], r[2], wr[0], d);
          },
          config_.conv_read_passes);

  TapeEntry e;
  e.name = "conv2d";
  e.inputs = {x, w, b};
  e.outputs = {y};
  e.backward = [x, w, b, d](Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    const Tensor& gy = gout[0];
    Tensor gx = eng.tensor(x.shape(), "conv.gx");
    eng.execute({w, gy}, {gx}, d.flops(),
                eng.config_.compute_efficiency,
                [d](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::conv2d_bwd_data(kctx, r[0], r[1], wr[0], d);
                },
                eng.config().conv_read_passes);
    Tensor gw = eng.tensor(w.shape(), "conv.gw");
    eng.execute({x, gy}, {gw}, d.flops(),
                eng.config_.compute_efficiency,
                [d](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::conv2d_bwd_weights(kctx, r[0], r[1], wr[0], d);
                },
                eng.config().conv_read_passes);
    Tensor gb = eng.tensor(b.shape(), "conv.gb");
    eng.execute({gy}, {gb},
                static_cast<double>(gy.numel()), kEltwiseEfficiency,
                [d](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::conv2d_bwd_bias(kctx, r[0], wr[0], d);
                });
    return {gx, gw, gb};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::relu(const Tensor& x) {
  Tensor y = tensor(x.shape(), "relu.y");
  const auto n = x.numel();
  execute({x}, {y}, static_cast<double>(n), kEltwiseEfficiency,
          [n](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& w) {
            real::relu_fwd(kctx, r[0], w[0], n);
          });
  TapeEntry e;
  e.name = "relu";
  e.inputs = {x};
  e.outputs = {y};
  e.backward = [x, n](Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(x.shape(), "relu.gx");
    eng.execute({x, gout[0]}, {gx}, static_cast<double>(n),
                kEltwiseEfficiency,
                [n](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& w) {
                  real::relu_bwd(kctx, r[0], r[1], w[0], n);
                });
    return {gx};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::maxpool2(const Tensor& x) {
  const auto& s = x.shape();
  CA_CHECK(s.rank() == 4 && s.h() % 2 == 0 && s.w() % 2 == 0,
           "maxpool2 expects even NCHW spatial dims");
  Tensor y = tensor({s.n(), s.c(), s.h() / 2, s.w() / 2}, "pool.y");
  const std::size_t n = s.n(), c = s.c(), h = s.h(), w = s.w();
  execute({x}, {y}, static_cast<double>(x.numel()),
          kEltwiseEfficiency,
          [=](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::maxpool2_fwd(kctx, r[0], wr[0], n, c, h, w);
          });
  TapeEntry e;
  e.name = "maxpool2";
  e.inputs = {x};
  e.outputs = {y};
  e.backward = [x, n, c, h, w](Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(x.shape(), "pool.gx");
    eng.execute({x, gout[0]}, {gx},
                static_cast<double>(x.numel()), kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::maxpool2_bwd(kctx, r[0], r[1], wr[0], n, c, h, w);
                });
    return {gx};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::avgpool2(const Tensor& x) {
  const auto& s = x.shape();
  CA_CHECK(s.rank() == 4 && s.h() % 2 == 0 && s.w() % 2 == 0,
           "avgpool2 expects even NCHW spatial dims");
  Tensor y = tensor({s.n(), s.c(), s.h() / 2, s.w() / 2}, "apool.y");
  const std::size_t n = s.n(), c = s.c(), h = s.h(), w = s.w();
  execute({x}, {y}, static_cast<double>(x.numel()),
          kEltwiseEfficiency,
          [=](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::avgpool2_fwd(kctx, r[0], wr[0], n, c, h, w);
          });
  TapeEntry e;
  e.name = "avgpool2";
  e.inputs = {x};
  e.outputs = {y};
  e.backward = [x, n, c, h, w](Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(x.shape(), "apool.gx");
    eng.execute({gout[0]}, {gx},
                static_cast<double>(x.numel()), kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::avgpool2_bwd(kctx, r[0], wr[0], n, c, h, w);
                });
    return {gx};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::dropout(const Tensor& x, float p, std::uint64_t seed) {
  CA_CHECK(p >= 0.0f && p < 1.0f, "dropout probability must be in [0, 1)");
  Tensor y = tensor(x.shape(), "drop.y");
  Tensor mask = tensor(x.shape(), "drop.mask");
  const auto n = x.numel();
  execute({x}, {y, mask}, static_cast<double>(n),
          kEltwiseEfficiency,
          [n, p, seed](const real::KernelCtx& kctx,
                       const std::vector<const float*>& r,
                       const std::vector<float*>& w) {
            real::dropout_fwd(kctx, r[0], w[0], w[1], p, seed, n);
          });
  TapeEntry e;
  e.name = "dropout";
  e.inputs = {x};
  e.outputs = {y, mask};
  e.backward = [mask, x, n](Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(x.shape(), "drop.gx");
    eng.execute({mask, gout[0]}, {gx},
                static_cast<double>(n), kEltwiseEfficiency,
                [n](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& w) {
                  real::dropout_bwd(kctx, r[0], r[1], w[0], n);
                });
    return {gx};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::global_avgpool(const Tensor& x) {
  const auto& s = x.shape();
  CA_CHECK(s.rank() == 4, "global_avgpool expects NCHW");
  Tensor y = tensor({s.n(), s.c()}, "gap.y");
  const std::size_t n = s.n(), c = s.c(), h = s.h(), w = s.w();
  execute({x}, {y}, static_cast<double>(x.numel()),
          kEltwiseEfficiency,
          [=](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::global_avgpool_fwd(kctx, r[0], wr[0], n, c, h, w);
          });
  TapeEntry e;
  e.name = "global_avgpool";
  e.inputs = {x};
  e.outputs = {y};
  e.backward = [x, n, c, h, w](Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(x.shape(), "gap.gx");
    eng.execute({gout[0]}, {gx},
                static_cast<double>(x.numel()), kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::global_avgpool_bwd(kctx, r[0], wr[0], n, c, h, w);
                });
    return {gx};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::batchnorm(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta) {
  const auto& s = x.shape();
  CA_CHECK(s.rank() == 4, "batchnorm expects NCHW");
  CA_CHECK(gamma.numel() == s.c() && beta.numel() == s.c(),
           "batchnorm parameter size mismatch");
  Tensor y = tensor(s, "bn.y");
  Tensor mean = tensor({s.c()}, "bn.mean");
  Tensor istd = tensor({s.c()}, "bn.istd");
  const std::size_t n = s.n(), c = s.c(), h = s.h(), w = s.w();
  execute({x, gamma, beta}, {y, mean, istd},
          8.0 * static_cast<double>(x.numel()), kEltwiseEfficiency,
          [=](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::batchnorm_fwd(kctx, r[0], r[1], r[2], wr[0], wr[1], wr[2],
                                n, c, h, w, 1e-5f);
          });
  TapeEntry e;
  e.name = "batchnorm";
  e.inputs = {x, gamma, beta};
  e.outputs = {y, mean, istd};
  e.backward = [x, gamma, mean, istd, n, c, h, w](
                   Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(x.shape(), "bn.gx");
    Tensor ggamma = eng.tensor(gamma.shape(), "bn.ggamma");
    Tensor gbeta = eng.tensor(gamma.shape(), "bn.gbeta");
    eng.execute({x, gamma, mean, istd, gout[0]},
                {gx, ggamma, gbeta}, 12.0 * static_cast<double>(x.numel()),
                kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::batchnorm_bwd(kctx, r[0], r[1], r[2], r[3], r[4],
                                      wr[0], wr[1], wr[2], n, c, h, w);
                });
    return {gx, ggamma, gbeta};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::dense(const Tensor& x, const Tensor& w, const Tensor& b) {
  CA_CHECK(x.shape().rank() == 2 && w.shape().rank() == 2,
           "dense expects (n,in) input and (out,in) weights");
  const std::size_t n = x.shape()[0];
  const std::size_t in = x.shape()[1];
  const std::size_t out = w.shape()[0];
  CA_CHECK(w.shape()[1] == in, "dense weight shape mismatch");
  CA_CHECK(b.numel() == out, "dense bias size mismatch");
  Tensor y = tensor({n, out}, "dense.y");
  const double flops = 2.0 * static_cast<double>(n) * in * out;
  execute({x, w, b}, {y}, flops, config_.compute_efficiency,
          [=](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::dense_fwd(kctx, r[0], r[1], r[2], wr[0], n, in, out);
          },
          config_.conv_read_passes);
  TapeEntry e;
  e.name = "dense";
  e.inputs = {x, w, b};
  e.outputs = {y};
  e.backward = [x, w, b, n, in, out, flops](
                   Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    const Tensor& gy = gout[0];
    Tensor gx = eng.tensor(x.shape(), "dense.gx");
    eng.execute({w, gy}, {gx}, flops,
                eng.config_.compute_efficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::dense_bwd_data(kctx, r[0], r[1], wr[0], n, in, out);
                },
                eng.config().conv_read_passes);
    Tensor gw = eng.tensor(w.shape(), "dense.gw");
    eng.execute({x, gy}, {gw}, flops,
                eng.config_.compute_efficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::dense_bwd_weights(kctx, r[0], r[1], wr[0], n, in, out);
                },
                eng.config().conv_read_passes);
    Tensor gb = eng.tensor(b.shape(), "dense.gb");
    eng.execute({gy}, {gb}, static_cast<double>(gy.numel()),
                kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::dense_bwd_bias(kctx, r[0], wr[0], n, out);
                });
    return {gx, gw, gb};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::add(const Tensor& a, const Tensor& b) {
  CA_CHECK(a.shape() == b.shape(), "add shape mismatch");
  CA_CHECK(!(a == b), "add(x, x) is not supported");
  Tensor y = tensor(a.shape(), "add.y");
  const auto n = a.numel();
  execute({a, b}, {y}, static_cast<double>(n), kEltwiseEfficiency,
          [n](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& w) {
            real::add_fwd(kctx, r[0], r[1], w[0], n);
          });
  TapeEntry e;
  e.name = "add";
  e.inputs = {a, b};
  e.outputs = {y};
  e.backward = [](Engine&, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    // Pass-through: both inputs receive the same gradient tensor.  The
    // engine's grad reference counting keeps the shared tensor alive until
    // both consumers are done.
    return {gout[0], gout[0]};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::concat(const Tensor& a, const Tensor& b) {
  const auto& sa = a.shape();
  const auto& sb = b.shape();
  CA_CHECK(sa.rank() == 4 && sb.rank() == 4 && sa.n() == sb.n() &&
               sa.h() == sb.h() && sa.w() == sb.w(),
           "concat expects NCHW tensors agreeing in N, H, W");
  Tensor y = tensor({sa.n(), sa.c() + sb.c(), sa.h(), sa.w()}, "concat.y");
  const std::size_t n = sa.n(), ca = sa.c(), cb = sb.c(), h = sa.h(),
                    w = sa.w();
  execute({a, b}, {y}, static_cast<double>(y.numel()),
          kEltwiseEfficiency,
          [=](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& wr) {
            real::concat_fwd(kctx, r[0], r[1], wr[0], n, ca, cb, h, w);
          });
  TapeEntry e;
  e.name = "concat";
  e.inputs = {a, b};
  e.outputs = {y};
  e.backward = [a, b, n, ca, cb, h, w](Engine& eng,
                                       const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    Tensor ga = eng.tensor(a.shape(), "concat.ga");
    Tensor gb = eng.tensor(b.shape(), "concat.gb");
    eng.execute({gout[0]}, {ga, gb},
                static_cast<double>(gout[0].numel()), kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& wr) {
                  real::concat_bwd(kctx, r[0], wr[0], wr[1], n, ca, cb, h, w);
                });
    return {ga, gb};
  };
  record(std::move(e));
  return y;
}

Tensor Engine::embedding_lookup(const Tensor& table, const Tensor& indices,
                                float lr) {
  CA_CHECK(table.shape().rank() == 2, "embedding table must be (rows, dim)");
  CA_CHECK(indices.shape().rank() == 1, "indices must be a flat batch");
  const std::size_t dim = table.shape()[1];
  const std::size_t batch = indices.numel();
  const std::size_t touched = batch * dim * sizeof(float);

  Tensor out = tensor({batch, dim}, "embed.out");
  execute_args(
      {{table, /*write=*/false, touched, 1, /*partial=*/true},
       {indices, false, 0, 1, false},
       {out, /*write=*/true, 0, 1, false}},
      static_cast<double>(batch * dim), kEltwiseEfficiency,
      [batch, dim](const real::KernelCtx& kctx,
                   const std::vector<const float*>& r,
                   const std::vector<float*>& w) {
        real::embedding_gather(kctx, r[0], r[1], w[0], batch, dim);
      });

  TapeEntry e;
  e.name = "embedding_lookup";
  e.inputs = {table, indices};
  e.outputs = {out};
  e.backward = [table, indices, lr, batch, dim, touched](
                   Engine& eng, const std::vector<Tensor>& gout)
      -> std::vector<Tensor> {
    // Fused sparse update: scatter -lr * grad into the touched rows.  The
    // table write is partial, so a sparse-aware policy applies it in place
    // instead of migrating the whole table.
    Tensor mutable_table = table;
    eng.execute_args(
        {{gout[0], false, 0, 1, false},
         {indices, false, 0, 1, false},
         {mutable_table, /*write=*/true, touched, 1, /*partial=*/true}},
        2.0 * static_cast<double>(batch * dim), kEltwiseEfficiency,
        [batch, dim, lr](const real::KernelCtx& kctx,
                         const std::vector<const float*>& r,
                         const std::vector<float*>& w) {
          real::embedding_scatter_sgd(kctx, w[0], r[1], r[0], lr, batch, dim);
        });
    return {Tensor{}, Tensor{}};  // gradient is consumed by the update
  };
  record(std::move(e));
  return out;
}

float Engine::softmax_ce_loss(const Tensor& logits, const Tensor& labels) {
  CA_CHECK(logits.shape().rank() == 2, "loss expects (n,classes) logits");
  const std::size_t n = logits.shape()[0];
  const std::size_t classes = logits.shape()[1];
  CA_CHECK(labels.numel() == n, "one label per sample");
  Tensor probs = tensor(logits.shape(), "loss.probs");
  float loss = 0.0f;
  execute({logits, labels}, {probs},
          8.0 * static_cast<double>(logits.numel()), kEltwiseEfficiency,
          [&, n, classes](const real::KernelCtx& kctx,
                          const std::vector<const float*>& r,
                          const std::vector<float*>& w) {
            loss = real::softmax_ce_fwd(kctx, r[0], r[1], w[0], n, classes);
          });
  TapeEntry e;
  e.name = "softmax_ce";
  e.inputs = {logits, labels};
  e.outputs = {probs};
  e.is_loss = true;
  e.backward = [logits, labels, probs, n, classes](
                   Engine& eng, const std::vector<Tensor>&)
      -> std::vector<Tensor> {
    Tensor gx = eng.tensor(logits.shape(), "loss.gx");
    eng.execute({probs, labels}, {gx},
                static_cast<double>(logits.numel()), kEltwiseEfficiency,
                [=](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& w) {
                  real::softmax_ce_bwd(kctx, r[0], r[1], w[0], n, classes);
                });
    return {gx, Tensor{}};  // no gradient for the labels
  };
  record(std::move(e));
  loss_recorded_ = true;
  return loss;
}

// --- gradient bookkeeping ---------------------------------------------------

void Engine::retire_temp(Tensor t) {
  if (!config_.issue_retire || !t.valid() || t.is_parameter()) return;
  if (t.array().retire()) ++stats_.retires_issued;
}

void Engine::accumulate_grad(const Tensor& target, Tensor g) {
  const void* tid = target.array().identity();
  auto it = grads_.find(tid);
  if (it == grads_.end()) {
    ++grad_uses_[g.array().identity()];
    grads_.emplace(tid, std::move(g));
    return;
  }
  Tensor acc = it->second;
  const void* accid = acc.array().identity();
  if (grad_uses_[accid] > 1) {
    // The accumulator is shared with another target (a pass-through
    // gradient); copy-on-write before modifying.
    Tensor copy = tensor(acc.shape(), "grad.cow");
    const auto n = acc.numel();
    execute({acc}, {copy}, static_cast<double>(n),
            kEltwiseEfficiency,
            [n](const real::KernelCtx&, const std::vector<const float*>& r,
                const std::vector<float*>& w) {
              std::copy(r[0], r[0] + n, w[0]);
            });
    --grad_uses_[accid];
    acc = copy;
    it->second = acc;
    ++grad_uses_[acc.array().identity()];
  }
  const auto n = acc.numel();
  execute({g, acc}, {acc}, static_cast<double>(n),
          kEltwiseEfficiency,
          [n](const real::KernelCtx& kctx,
              const std::vector<const float*>& r,
              const std::vector<float*>& w) {
            real::accumulate(kctx, w[0], r[0], n);
          });
  // `g` has been folded in; release it unless another target holds it.
  const void* gid = g.array().identity();
  if (grad_uses_.find(gid) == grad_uses_.end()) retire_temp(std::move(g));
}

void Engine::drop_grad(const void* target_id) {
  const auto it = grads_.find(target_id);
  if (it == grads_.end()) return;
  Tensor g = std::move(it->second);
  grads_.erase(it);
  const void* gid = g.array().identity();
  const auto uit = grad_uses_.find(gid);
  CA_CHECK(uit != grad_uses_.end() && uit->second > 0,
           "grad use-count out of sync");
  if (--uit->second == 0) {
    grad_uses_.erase(uit);
    retire_temp(std::move(g));
  }
}

Tensor Engine::grad(const Tensor& t) const {
  const auto it = grads_.find(t.array().identity());
  return it == grads_.end() ? Tensor{} : it->second;
}

// --- backward / update / iteration ------------------------------------------

void Engine::backward() {
  CA_CHECK(loss_recorded_, "backward() without a recorded loss");

  // Remaining-use counts for every non-parameter tensor on the tape; a
  // tensor is retired the moment its final (reverse-order) use completes.
  std::unordered_map<const void*, int> uses;
  for (const auto& e : tape_) {
    for (const auto& t : e.inputs) {
      if (t.valid() && !t.is_parameter()) ++uses[t.array().identity()];
    }
    for (const auto& t : e.outputs) {
      if (t.valid() && !t.is_parameter()) ++uses[t.array().identity()];
    }
  }

  // Pending accumulation counts per parameter: once the reverse walk has
  // passed every entry that reads a parameter, its gradient can no longer
  // change and the grad-ready hook may fire for it.
  std::unordered_map<const void*, std::pair<Tensor, int>> param_pending;
  if (grad_ready_hook_) {
    for (const auto& e : tape_) {
      for (const auto& t : e.inputs) {
        if (!t.valid() || !t.is_parameter()) continue;
        auto& slot = param_pending[t.array().identity()];
        slot.first = t;
        ++slot.second;
      }
    }
  }

  for (auto it = tape_.rbegin(); it != tape_.rend(); ++it) {
    TapeEntry& e = *it;

    std::vector<Tensor> grad_out;
    grad_out.reserve(e.outputs.size());
    bool any = e.is_loss;
    for (const auto& o : e.outputs) {
      Tensor g = grad(o);
      any = any || g.valid();
      grad_out.push_back(std::move(g));
    }

    if (any) {
      std::vector<Tensor> grad_in = e.backward(*this, grad_out);
      CA_CHECK(grad_in.size() == e.inputs.size(),
               "backward returned wrong gradient count");
      for (std::size_t i = 0; i < grad_in.size(); ++i) {
        if (grad_in[i].valid()) {
          accumulate_grad(e.inputs[i], std::move(grad_in[i]));
        }
      }
    }
    grad_out.clear();
    // The gradients of this entry's outputs are complete and consumed.
    for (const auto& o : e.outputs) drop_grad(o.array().identity());

    if (grad_ready_hook_) {
      for (const auto& t : e.inputs) {
        if (!t.valid() || !t.is_parameter()) continue;
        const auto pit = param_pending.find(t.array().identity());
        if (pit == param_pending.end()) continue;
        if (--pit->second.second == 0) {
          // This was the parameter's last (reverse-order) use; hand the
          // finished gradient to the hook (if any gradient flowed at all).
          if (Tensor g = grad(t); g.valid()) {
            grad_ready_hook_(pit->second.first, g);
          }
          param_pending.erase(pit);
        }
      }
    }

    // Last-use retirement (FILO activation lifetimes, §III-E).
    if (config_.issue_retire) {
      auto visit = [&](const Tensor& t) {
        if (!t.valid() || t.is_parameter()) return;
        const auto uit = uses.find(t.array().identity());
        if (uit != uses.end() && --uit->second == 0) {
          // Keep graph inputs alive if their gradient is still wanted by
          // the caller; activations produced on the tape go now.
          retire_temp(t);
          uses.erase(uit);
        }
      };
      for (const auto& t : e.outputs) visit(t);
      for (const auto& t : e.inputs) visit(t);
    }
  }
  loss_recorded_ = false;
}

void Engine::sgd_step(float lr) {
  for (auto& p : params_) {
    Tensor g = grad(p);
    if (!g.valid()) continue;
    const auto n = p.numel();
    execute({g, p}, {p}, 2.0 * static_cast<double>(n),
            kEltwiseEfficiency,
            [n, lr](const real::KernelCtx& kctx,
                    const std::vector<const float*>& r,
                    const std::vector<float*>& w) {
              real::sgd_update(kctx, w[0], r[0], lr, n);
            });
    drop_grad(p.array().identity());
  }
}

void Engine::end_iteration() {
  tape_.clear();
  // Drop any gradients still held (e.g. for graph inputs).
  while (!grads_.empty()) drop_grad(grads_.begin()->first);
  CA_CHECK(grad_uses_.empty(), "grad use-counts leaked");
  rt_->gc_collect();
  rt_->defragment_all();
}

}  // namespace ca::dnn
