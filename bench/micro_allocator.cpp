// Microbenchmarks for the free-list allocator: allocation/free throughput,
// a mixed first-fit workload, address-order walking (the evictfrom
// primitive), and behaviour under fragmentation.
//
// Both parts write BENCH_allocator.json (`--smoke`: tiny counts and shapes;
// `--trace`: the trace replay alone):
//   * the microbenchmark cases below, one row each (best-of-reps host
//     seconds per call);
//   * a DNN-shaped allocation trace replay -- the VGG-416 tensor size
//     sequence (weights persistent, activations forward, gradients
//     backward) -- run against both the frozen map-based
//     ReferenceAllocator ("old") and the binned FreeListAllocator ("new"):
//     old-vs-new ops/sec, p99 alloc latency, and an explicit "speedup:"
//     acceptance record, plus an "arena construct" row: the wall time to
//     map and pre-fault the device arenas a DataManager builds at start-up.
#include <algorithm>
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

// ---------------------------------------------------------------------------
// Microbenchmark cases: one row each, best-of-reps host seconds per call
// ---------------------------------------------------------------------------

/// Fills `alloc` with `hole`-sized blocks and frees every other one.
void shatter(FreeListAllocator& alloc, std::size_t hole) {
  std::vector<std::size_t> offs;
  while (auto off = alloc.allocate(hole)) offs.push_back(*off);
  for (std::size_t i = 0; i < offs.size(); i += 2) alloc.free(offs[i]);
}

void run_cases(BenchReport& report, bool smoke) {
  const int reps = smoke ? 1 : 5;
  const std::size_t iters = smoke ? 100 : 1'000'000;
  const auto add = [&](const std::string& name, double seconds) {
    report.add(name, seconds, "s", Better::kLower);
  };

  for (const std::size_t size : {std::size_t{256}, 64 * util::KiB,
                                 4 * util::MiB}) {
    FreeListAllocator alloc(64 * util::MiB);
    add("BM_AllocFreePair/" + std::to_string(size),
        time_per_op(reps, iters, [&] {
          const auto off = alloc.allocate(size);
          do_not_optimize(off);
          alloc.free(*off);
        }));
  }

  // A 60/40 alloc/free mix of 1 B..32 KiB requests; each rep times 2000
  // calls on a fresh heap, so the row is seconds per 2000-call run.
  constexpr int kMixedOps = 2000;
  const double mixed = best_seconds(smoke ? 1 : 50, [&] {
    FreeListAllocator alloc(16 * util::MiB);
    util::Xoshiro256 rng(42);
    std::vector<std::size_t> live;
    WallTimer wall;
    for (int i = 0; i < kMixedOps; ++i) {
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
    do_not_optimize(alloc.stats().free_bytes);
    return wall.seconds();
  });
  add("BM_MixedFirstFit", mixed);
  report.add("BM_MixedFirstFit [calls/s]", kMixedOps / mixed, "calls/s",
             Better::kHigher);

  {
    FreeListAllocator alloc(16 * util::MiB);
    shatter(alloc, 8 * util::KiB);
    add("BM_AddressOrderWalk", time_per_op(reps, smoke ? 10 : 2000, [&] {
          std::size_t blocks = 0;
          alloc.for_blocks_from(0, [&](const FreeListAllocator::BlockView&) {
            ++blocks;
            return true;
          });
          do_not_optimize(blocks);
        }));
  }
  {
    // Allocation when the free space is shattered into many small holes:
    // a request bigger than any hole scans, fails and leaves the heap as
    // it was.
    FreeListAllocator alloc(16 * util::MiB);
    shatter(alloc, 4 * util::KiB);
    add("BM_FragmentedAllocation", time_per_op(reps, iters, [&] {
          do_not_optimize(alloc.allocate(64 * util::KiB));
        }));
  }
}

// ---------------------------------------------------------------------------
// DNN trace replay
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

  [[nodiscard]] double ops_per_sec() const {
    return total_seconds > 0.0 ? static_cast<double>(ops) / total_seconds
                               : 0.0;
  }
};

/// Replay the trace against a fresh `Alloc` heap, timing every allocate
/// call individually (for the p99) and the whole run (for ops/sec).
template <class Alloc>
ReplayResult replay_trace(const std::vector<TraceOp>& ops,
                          std::size_t slot_count, std::size_t heap_bytes) {
  Alloc heap(heap_bytes);
  std::vector<std::size_t> slots(slot_count, 0);
  std::vector<double> alloc_s;
  alloc_s.reserve(ops.size());
  ReplayResult r;
  WallTimer run;
  for (const TraceOp& op : ops) {
    if (op.is_alloc) {
      WallTimer call;
      const auto off = heap.allocate(op.size);
      alloc_s.push_back(call.seconds());
      CA_CHECK(off.has_value(), "trace heap exhausted: grow kTraceHeap");
      slots[op.slot] = *off;
    } else {
      heap.free(slots[op.slot]);
    }
  }
  r.total_seconds = run.seconds();
  r.ops = ops.size();
  r.p99_alloc_seconds = percentile(alloc_s, 0.99);
  return r;
}

/// Wall time to construct one arena per device of the Cascade Lake preset,
/// as DataManager's device heaps do: the paper-scale 1300 MiB NVRAM +
/// 180 MiB DRAM pair in a full run, a 64 MiB pair under --smoke.  Median of
/// three constructions; the arenas are unmapped outside the timed span.
void time_arena_construct(BenchReport& report, bool smoke) {
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
    WallTimer wall;
    for (const auto& spec : platform.devices) {
      arenas.emplace_back(spec.capacity);
    }
    samples.push_back(wall.seconds());
  }
  const double median = percentile(samples, 0.5);
  std::printf("\narena construct (%s): %.4f s median of 3\n",
              util::format_bytes(bytes).c_str(), median);
  report.add("arena construct", median, "s", Better::kLower);
}

void run_trace(BenchReport& report, bool smoke) {
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

  const auto oldr =
      replay_trace<ReferenceAllocator>(ops, slot_count, heap_bytes);
  const auto newr =
      replay_trace<FreeListAllocator>(ops, slot_count, heap_bytes);
  const double speedup =
      oldr.total_seconds > 0.0 ? oldr.total_seconds / newr.total_seconds
                               : 0.0;
  std::printf("%-10s %-16s %12.0f %10.2fus\n", "firstfit", "old(reference)",
              oldr.ops_per_sec(), oldr.p99_alloc_seconds * 1e6);
  std::printf("%-10s %-16s %12.0f %10.2fus %9.1fx\n", "firstfit",
              "new(binned)", newr.ops_per_sec(),
              newr.p99_alloc_seconds * 1e6, speedup);
  for (const auto* side : {"old", "new"}) {
    const auto& r = side[0] == 'o' ? oldr : newr;
    const std::string label = std::string("trace firstfit ") + side;
    report.add(label, r.total_seconds, "s", Better::kLower);
    report.add("ops/sec: " + label, r.ops_per_sec(), "ops/s",
               Better::kHigher);
    report.add("p99 alloc s: " + label, r.p99_alloc_seconds, "s",
               Better::kLower);
  }
  report.add("speedup: DNN trace alloc/free, firstfit old vs new", speedup,
             "ratio", Better::kHigher);

  time_arena_construct(report, smoke);

  if (!smoke && speedup < 5.0) {
    std::printf(
        "\nWARNING: first-fit trace speedup %.1fx is below the 5x "
        "acceptance target\n",
        speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  BenchReport report("allocator");
  if (!has_flag(argc, argv, "--trace")) {
    run_cases(report, smoke);
    report.print();
    std::printf("\n");
  }
  run_trace(report, smoke);
  report.write(argc, argv);
  return 0;
}
