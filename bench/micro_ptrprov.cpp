// Accessor-overhead microbenchmark for ca::ptrprov (paper §III-C calls the
// pin indirection "essentially zero overhead"; this bench holds the claim
// to account on both sides of the CA_PTRPROV_ENABLED switch):
//
//   BM_RawPointerLoad      baseline: dereference a cached raw pointer
//   BM_PinnedSpanData      span.data() on a held span (the hot-loop shape)
//   BM_SpanAcquireRelease  the full pin -> resolve -> unpin accessor cycle
//   BM_BracketedKernelLoop one span per "kernel", data() per element touch
//
// Each case is one BENCH_ptrprov.json row (best-of-reps host seconds per
// operation), next to a `ptrprov_enabled` row so the Debug/CA_RACE numbers
// (registry probe per data() call) and the release numbers can be compared
// run to run.  `--smoke` runs every case with minimal counts.
//
// `--assert-noop` is the release-build gate: when the analyzer is compiled
// out it measures the checked accessor against the raw-load baseline and
// fails unless they are indistinguishable (the hooks must inline to
// nothing).  In analyzer builds it is a no-op exit so the same ctest entry
// runs everywhere.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "dm/data_manager.hpp"
#include "dm/pinned_span.hpp"
#include "ptrprov/ptrprov.hpp"
#include "util/align.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

struct Rig {
  Rig()
      : platform(sim::Platform::cascade_lake_scaled(8 * util::MiB,
                                                    32 * util::MiB)),
        dm(platform, clock, counters) {
    obj = dm.create_object(64 * util::KiB, "bench");
    dm::Region* r = dm.allocate(sim::kFast, obj->size());
    dm.setprimary(*obj, *r);
  }

  sim::Platform platform;
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
  dm::Object* obj = nullptr;
};

/// Release-build gate: with the analyzer compiled out, span.data() must
/// cost the same as a bare pointer load.  Min-of-reps makes the measure
/// robust to scheduling noise; the 4x bound is orders of magnitude below
/// what a registry probe (mutex + hash lookup) would cost, so a forgotten
/// `#if` in the stub path cannot pass.
int assert_noop() {
  if (ptrprov::kEnabled) {
    std::printf("micro_ptrprov --assert-noop: skipped (CA_PTRPROV_ENABLED "
                "build; the no-op contract applies to release builds)\n");
    return 0;
  }
  Rig rig;
  dm::PinnedSpan span = rig.dm.access(*rig.obj);
  std::byte* p = span.data();
  constexpr int kReps = 9;
  constexpr std::size_t kIters = 4'000'000;
  const double raw = time_per_op(kReps, kIters, [&] { do_not_optimize(*p); });
  const double checked =
      time_per_op(kReps, kIters, [&] { do_not_optimize(*span.data()); });
  std::printf("micro_ptrprov --assert-noop: raw=%.3fns/it checked=%.3fns/it "
              "ratio=%.2f\n", raw * 1e9, checked * 1e9, checked / raw);
  if (checked > raw * 4.0) {
    std::fprintf(stderr,
                 "micro_ptrprov --assert-noop: FAILED — disabled-analyzer "
                 "span.data() is %.1fx a raw load; the ptrprov stubs are "
                 "not compiling out\n", checked / raw);
    return 1;
  }
  std::printf("micro_ptrprov --assert-noop: ok (disabled accessor is a "
              "plain pointer load)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--assert-noop")) return assert_noop();
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = smoke ? 1 : 5;
  const std::size_t iters = smoke ? 1000 : 10'000'000;
  BenchReport report("ptrprov");
  const auto add = [&](const std::string& name, double seconds) {
    report.add(name, seconds, "s", Better::kLower);
  };
  Rig rig;
  {
    dm::PinnedSpan span = rig.dm.access(*rig.obj);
    std::byte* p = span.data();
    add("BM_RawPointerLoad",
        time_per_op(reps, iters, [&] { do_not_optimize(*p); }));
    add("BM_PinnedSpanData",
        time_per_op(reps, iters, [&] { do_not_optimize(*span.data()); }));
  }
  add("BM_SpanAcquireRelease", time_per_op(reps, iters / 10, [&] {
        dm::PinnedSpan span = rig.dm.access(*rig.obj);
        do_not_optimize(span.data());
      }));
  // The shape kernels actually run: one accessor per kernel launch, one
  // checked data() per element stride.
  for (const std::size_t touches : {16, 256}) {
    const double s = time_per_op(reps, iters / touches, [&] {
      dm::PinnedSpan span = rig.dm.access(*rig.obj, /*write=*/true);
      for (std::size_t i = 0; i < touches; ++i) {
        do_not_optimize(span.data()[i * 64]);
      }
    });
    const std::string name =
        "BM_BracketedKernelLoop/" + std::to_string(touches);
    add(name, s);
    report.add(name + " [touches/s]", static_cast<double>(touches) / s,
               "touches/s", Better::kHigher);
  }
  report.add("ptrprov_enabled", ptrprov::kEnabled ? 1.0 : 0.0, "bool",
             Better::kLower);

  report.print();
  report.write(argc, argv);
  return 0;
}
