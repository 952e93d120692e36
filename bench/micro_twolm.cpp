// Host cost of the 2LM tag model (twolm::DirectMappedCache), the paper's
// memory-mode baseline.  One BENCH_twolm.json row each:
//   * random single-block accesses over the NVRAM range: the worst case for
//     a run-oriented tag store (ns per access);
//   * whole-tensor runs at random block-aligned addresses, sized like
//     ResNet-200's activations and 3x3 weights, as the 2LM execution context
//     charges kernel arguments (ns per block);
//   * construction of the cache (s).
// The cache and NVRAM range are the paper's 180 MiB and 1300 MiB; each rep
// times a fresh cache, and streams are generated before timing.  `--smoke`
// shrinks every stream and the cache.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "twolm/direct_mapped_cache.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

struct Access {
  std::size_t addr = 0;
  std::size_t bytes = 0;
  bool write = false;
};

/// Block accesses of `stream`.
std::uint64_t count_blocks(const std::vector<Access>& stream) {
  std::uint64_t blocks = 0;
  for (const Access& a : stream) {
    blocks += (a.addr + a.bytes - 1) / 64 - a.addr / 64 + 1;
  }
  return blocks;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = smoke ? 1 : 5;
  const std::size_t dram = (smoke ? 8 : 180) * util::MiB;
  const std::size_t nvram = (smoke ? 64 : 1300) * util::MiB;
  const auto platform = sim::Platform::cascade_lake_scaled(dram, nvram);
  twolm::CacheConfig cc;
  cc.capacity = dram;
  BenchReport report("twolm");

  // Best-of-reps seconds of `stream` against a fresh cache.
  const auto run = [&](const std::vector<Access>& stream) {
    return best_seconds(reps, [&] {
      telemetry::TrafficCounters counters;
      twolm::DirectMappedCache cache(cc, platform, counters);
      double stall = 0.0;
      WallTimer wall;
      for (const Access& a : stream) {
        stall += cache.access(a.addr, a.bytes, a.write);
      }
      const double s = wall.seconds();
      do_not_optimize(stall);
      return s;
    });
  };

  util::Xoshiro256 rng(42);
  {
    std::vector<Access> stream(smoke ? 10'000 : 4'000'000);
    for (Access& a : stream) {
      a.addr = rng.bounded(nvram / 64) * 64;
      a.bytes = 64;
      a.write = rng.bounded(3) == 0;
    }
    report.add("BM_RandomBlock", run(stream) * 1e9 /
                                     static_cast<double>(stream.size()),
               "ns", Better::kLower);
  }
  {
    // Activations (batch x channels x spatial^2 floats) and 3x3 conv
    // weights per stage; each stage doubles the channels and halves the
    // spatial size.  Runs until four cache capacities are touched.
    const dnn::ModelSpec spec = dnn::ModelSpec::resnet200_large();
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < spec.stages.size(); ++i) {
      const std::size_t channels = spec.base_channels << i;
      const std::size_t spatial = std::max<std::size_t>(1, spec.image >> i);
      sizes.push_back(spec.batch * channels * spatial * spatial *
                      sizeof(float));
      sizes.push_back(channels * channels * 9 * sizeof(float));
    }
    std::vector<Access> stream;
    for (std::size_t touched = 0; touched < 4 * dram;) {
      Access a;
      a.bytes = std::min(nvram / 2, sizes[rng.bounded(sizes.size())]);
      a.addr = rng.bounded((nvram - a.bytes) / 64) * 64;
      a.write = rng.bounded(3) == 0;
      touched += a.bytes;
      stream.push_back(a);
    }
    report.add("BM_TensorRuns", run(stream) * 1e9 /
                                    static_cast<double>(count_blocks(stream)),
               "ns", Better::kLower);
  }
  report.add("BM_Construct", best_seconds(reps, [&] {
               telemetry::TrafficCounters counters;
               WallTimer wall;
               auto cache = std::make_unique<twolm::DirectMappedCache>(
                   cc, platform, counters);
               const double s = wall.seconds();
               do_not_optimize(cache->num_sets());
               return s;
             }),
             "s", Better::kLower);

  report.print();
  report.write(argc, argv);
  return 0;
}
