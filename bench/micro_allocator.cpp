// Microbenchmarks for the free-list allocator: allocation/free throughput,
// fit-policy comparison, address-order walking (the evictfrom primitive),
// and behaviour under fragmentation.
//
// Two entry points share this binary:
//   * default: the google-benchmark microbenchmarks below;
//   * --trace (or --smoke): a DNN-shaped allocation trace replay -- the
//     VGG-416 tensor size sequence (weights persistent, activations
//     forward, gradients backward) -- run against both the frozen map-based
//     ReferenceAllocator ("old") and the binned FreeListAllocator ("new").
//     Emits BENCH_allocator.json with old-vs-new ops/sec, p99 alloc
//     latency, and an explicit "speedup:" acceptance record, plus an
//     "arena construct" row: the wall time to map and pre-fault the
//     device arenas a DataManager builds at start-up.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "mem/arena.hpp"
#include "mem/freelist_allocator.hpp"
#include "mem/reference_allocator.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

using namespace ca;
using namespace ca::bench;
using mem::FreeListAllocator;
using mem::ReferenceAllocator;

namespace {

void BM_AllocFreePair(benchmark::State& state) {
  FreeListAllocator alloc(64 * util::MiB);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto off = alloc.allocate(size);
    benchmark::DoNotOptimize(off);
    alloc.free(*off);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocFreePair)->Arg(256)->Arg(64 * 1024)->Arg(4 * 1024 * 1024);

template <FreeListAllocator::Fit fit>
void BM_MixedWorkload(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    FreeListAllocator alloc(16 * util::MiB, 64, fit);
    util::Xoshiro256 rng(42);
    std::vector<std::size_t> live;
    state.ResumeTiming();
    for (int i = 0; i < 2000; ++i) {
      if (live.empty() || rng.uniform() < 0.6) {
        if (auto off = alloc.allocate(1 + rng.bounded(32 * 1024))) {
          live.push_back(*off);
        }
      } else {
        const std::size_t idx = rng.bounded(live.size());
        alloc.free(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
    }
    benchmark::DoNotOptimize(alloc.stats());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
void BM_MixedFirstFit(benchmark::State& s) {
  BM_MixedWorkload<FreeListAllocator::Fit::kFirstFit>(s);
}
void BM_MixedBestFit(benchmark::State& s) {
  BM_MixedWorkload<FreeListAllocator::Fit::kBestFit>(s);
}
BENCHMARK(BM_MixedFirstFit);
BENCHMARK(BM_MixedBestFit);

void BM_AddressOrderWalk(benchmark::State& state) {
  FreeListAllocator alloc(16 * util::MiB);
  std::vector<std::size_t> offs;
  while (auto off = alloc.allocate(8 * 1024)) offs.push_back(*off);
  for (std::size_t i = 0; i < offs.size(); i += 2) alloc.free(offs[i]);
  for (auto _ : state) {
    std::size_t blocks = 0;
    alloc.for_blocks_from(0, [&](const FreeListAllocator::BlockView&) {
      ++blocks;
      return true;
    });
    benchmark::DoNotOptimize(blocks);
  }
}
BENCHMARK(BM_AddressOrderWalk);

void BM_FragmentedAllocation(benchmark::State& state) {
  // Allocation when the free space is shattered into many small holes.
  for (auto _ : state) {
    state.PauseTiming();
    FreeListAllocator alloc(16 * util::MiB);
    std::vector<std::size_t> offs;
    while (auto off = alloc.allocate(4 * 1024)) offs.push_back(*off);
    for (std::size_t i = 0; i < offs.size(); i += 2) alloc.free(offs[i]);
    state.ResumeTiming();
    // Request something bigger than any hole: full scan then failure.
    benchmark::DoNotOptimize(alloc.allocate(64 * 1024));
  }
}
BENCHMARK(BM_FragmentedAllocation);

// ---------------------------------------------------------------------------
// DNN trace mode (--trace / --smoke)
// ---------------------------------------------------------------------------

/// One allocator call in the replayed trace.  `slot` names the tensor so
/// frees can find the offset the matching alloc returned.
struct TraceOp {
  bool is_alloc;
  std::size_t size;  ///< bytes (alloc ops only)
  std::size_t slot;
};

struct LayerShape {
  std::size_t weight_bytes;
  std::size_t act_bytes;
};

/// Per-conv tensor sizes of VGG-416: stage s runs spec.stages[s]
/// convolutions at channels base*min(2^s, 8) with the spatial dims halved
/// per stage (matches the dnn builder).  Smoke truncates to a handful of
/// layers at batch 2 so the replay finishes in milliseconds.
std::vector<LayerShape> vgg416_tensor_shapes(bool smoke) {
  const dnn::ModelSpec spec = dnn::ModelSpec::vgg416_large();
  std::vector<LayerShape> layers;
  std::size_t hw = spec.image;
  const std::size_t batch = smoke ? 2 : spec.batch;
  for (std::size_t s = 0; s < spec.stages.size() && hw >= 2; ++s) {
    const std::size_t c =
        spec.base_channels * std::min<std::size_t>(std::size_t{1} << s, 8);
    std::size_t convs = spec.stages[s];
    if (smoke) convs = std::min<std::size_t>(convs, 4);
    for (std::size_t i = 0; i < convs; ++i) {
      layers.push_back({c * c * 3 * 3 * sizeof(float),
                        batch * c * hw * hw * sizeof(float)});
    }
    hw /= 2;
    if (smoke && layers.size() >= 8) break;
  }
  return layers;
}

/// Build the trace: weights allocated up front and held live (the heap the
/// DM manages keeps parameters resident), then per training iteration a
/// forward pass allocating every activation followed by a backward pass
/// allocating gradients in reverse layer order while releasing the matching
/// activation and the downstream gradient.  This is the alloc/free pattern
/// the DM issues per iteration in Fig. 3.
std::vector<TraceOp> build_trace(const std::vector<LayerShape>& layers,
                                 int iterations, std::size_t* slot_count) {
  const std::size_t L = layers.size();
  // Slots: [0, L) weights, [L, 2L) activations, [2L, 3L) gradients.
  *slot_count = 3 * L;
  std::vector<TraceOp> ops;
  ops.reserve(L * 2 + static_cast<std::size_t>(iterations) * L * 4);
  for (std::size_t l = 0; l < L; ++l) {
    ops.push_back({true, layers[l].weight_bytes, l});
  }
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t l = 0; l < L; ++l) {
      ops.push_back({true, layers[l].act_bytes, L + l});
    }
    for (std::size_t l = L; l-- > 0;) {
      ops.push_back({true, layers[l].act_bytes, 2 * L + l});
      ops.push_back({false, 0, L + l});
      if (l + 1 < L) ops.push_back({false, 0, 2 * L + l + 1});
    }
    ops.push_back({false, 0, 2 * L});
  }
  for (std::size_t l = 0; l < L; ++l) ops.push_back({false, 0, l});
  return ops;
}

struct ReplayResult {
  double total_seconds = 0.0;   ///< wall time for the whole trace
  double p99_alloc_seconds = 0.0;
  std::size_t ops = 0;
  std::uint64_t bytes_allocated = 0;

  [[nodiscard]] double ops_per_sec() const {
    return total_seconds > 0.0 ? static_cast<double>(ops) / total_seconds
                               : 0.0;
  }
};

/// Replay the trace against a fresh `Alloc` heap, timing every allocate
/// call individually (for the p99) and the whole run (for ops/sec).
template <class Alloc>
ReplayResult replay_trace(const std::vector<TraceOp>& ops,
                          std::size_t slot_count, std::size_t heap_bytes,
                          typename Alloc::Fit fit) {
  using clock = std::chrono::steady_clock;
  Alloc heap(heap_bytes, 64, fit);
  std::vector<std::size_t> slots(slot_count, 0);
  std::vector<double> alloc_s;
  alloc_s.reserve(ops.size());
  ReplayResult r;
  const auto run0 = clock::now();
  for (const TraceOp& op : ops) {
    if (op.is_alloc) {
      const auto t0 = clock::now();
      const auto off = heap.allocate(op.size);
      const auto t1 = clock::now();
      CA_CHECK(off.has_value(), "trace heap exhausted: grow kTraceHeap");
      slots[op.slot] = *off;
      alloc_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      r.bytes_allocated += op.size;
    } else {
      heap.free(slots[op.slot]);
    }
  }
  r.total_seconds =
      std::chrono::duration<double>(clock::now() - run0).count();
  r.ops = ops.size();
  r.p99_alloc_seconds = percentile(alloc_s, 0.99);
  return r;
}

/// Wall time to construct one arena per device of the Cascade Lake preset,
/// as DataManager's device heaps do: the paper-scale 1300 MiB NVRAM +
/// 180 MiB DRAM pair in a full run, a 64 MiB pair under --smoke.  Median of
/// three constructions; the arenas are unmapped outside the timed span.
void time_arena_construct(BenchReport& report, bool smoke) {
  using clock = std::chrono::steady_clock;
  const sim::Platform platform =
      smoke ? sim::Platform::cascade_lake_scaled(64 * util::MiB,
                                                 64 * util::MiB)
            : sim::Platform::cascade_lake_default();
  std::uint64_t bytes = 0;
  for (const auto& spec : platform.devices) bytes += spec.capacity;
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<mem::Arena> arenas;
    arenas.reserve(platform.devices.size());
    const auto t0 = clock::now();
    for (const auto& spec : platform.devices) {
      arenas.emplace_back(spec.capacity);
    }
    samples.push_back(
        std::chrono::duration<double>(clock::now() - t0).count());
  }
  const double median = percentile(samples, 0.5);
  std::printf("\narena construct (%s): %.4f s median of 3\n",
              util::format_bytes(bytes).c_str(), median);
  report.add("arena construct", 0.0, median, bytes);
}

const char* fit_name(FreeListAllocator::Fit fit) {
  return fit == FreeListAllocator::Fit::kFirstFit ? "firstfit" : "bestfit";
}

int run_trace(int argc, char** argv, bool smoke) {
  std::printf("=== allocator DNN trace (%s) ===\n",
              smoke ? "smoke" : "full");
  std::printf(
      "VGG-416 tensor sequence: weights resident, activations allocated "
      "forward,\ngradients backward; old = map-based ReferenceAllocator, "
      "new = binned\nFreeListAllocator.  Wall-clock microseconds.\n\n");

  const auto layers = vgg416_tensor_shapes(smoke);
  const int iterations = smoke ? 2 : 6;
  std::size_t slot_count = 0;
  const auto ops = build_trace(layers, iterations, &slot_count);

  // Offset-space heap: no memory is touched, so size it generously past
  // the peak live set (weights + activations + one stage of gradients).
  std::uint64_t peak = 0;
  for (const auto& l : layers) peak += l.weight_bytes + 2 * l.act_bytes;
  const std::size_t heap_bytes =
      util::align_up(static_cast<std::size_t>(peak * 2 + util::MiB), 64);

  std::printf("%zu conv layers, %d iterations, %zu allocator ops, heap %s\n\n",
              layers.size(), iterations, ops.size(),
              util::format_bytes(heap_bytes).c_str());
  std::printf("%-10s %-16s %12s %12s %10s\n", "fit", "allocator", "ops/sec",
              "p99 alloc", "speedup");

  BenchReport report("allocator");
  report.csv_header({"fit", "allocator", "ops_per_sec", "p99_alloc_us",
                     "total_seconds"});
  double firstfit_speedup = 0.0;
  for (const auto fit : {FreeListAllocator::Fit::kFirstFit,
                         FreeListAllocator::Fit::kBestFit}) {
    const auto ref_fit = fit == FreeListAllocator::Fit::kFirstFit
                             ? ReferenceAllocator::Fit::kFirstFit
                             : ReferenceAllocator::Fit::kBestFit;
    const auto oldr =
        replay_trace<ReferenceAllocator>(ops, slot_count, heap_bytes, ref_fit);
    const auto newr =
        replay_trace<FreeListAllocator>(ops, slot_count, heap_bytes, fit);
    const double speedup =
        oldr.total_seconds > 0.0 ? oldr.total_seconds / newr.total_seconds
                                 : 0.0;
    if (fit == FreeListAllocator::Fit::kFirstFit) firstfit_speedup = speedup;
    std::printf("%-10s %-16s %12.0f %10.2fus\n", fit_name(fit),
                "old(reference)", oldr.ops_per_sec(),
                oldr.p99_alloc_seconds * 1e6);
    std::printf("%-10s %-16s %12.0f %10.2fus %9.1fx\n", fit_name(fit),
                "new(binned)", newr.ops_per_sec(),
                newr.p99_alloc_seconds * 1e6, speedup);
    for (const auto* side : {"old", "new"}) {
      const auto& r = side[0] == 'o' ? oldr : newr;
      const std::string label =
          std::string("trace ") + fit_name(fit) + " " + side;
      report.add(label, 0.0, r.total_seconds, r.bytes_allocated);
      report.add_metric("ops/sec: " + label, r.ops_per_sec());
      report.add_metric("p99 alloc s: " + label, r.p99_alloc_seconds);
      report.csv_row({fit_name(fit), side,
                      util::format_fixed(r.ops_per_sec(), 0),
                      util::format_fixed(r.p99_alloc_seconds * 1e6, 3),
                      util::format_fixed(r.total_seconds, 6)});
    }
    report.add_speedup(std::string("DNN trace alloc/free, ") +
                           fit_name(fit) + " old vs new",
                       speedup);
  }

  time_arena_construct(report, smoke);

  report.write(argc, argv, "allocator_trace.csv");

  if (!smoke && firstfit_speedup < 5.0) {
    std::printf(
        "\nWARNING: first-fit trace speedup %.1fx is below the 5x "
        "acceptance target\n",
        firstfit_speedup);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--trace") || has_flag(argc, argv, "--smoke")) {
    return run_trace(argc, argv, has_flag(argc, argv, "--smoke"));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
