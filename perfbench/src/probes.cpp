// Host-cost probes of the traced run: small, seeded, self-contained calls
// into one layer each, timed on the host clock.
#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "bench.hpp"
#include "dm/data_manager.hpp"
#include "dnn/models.hpp"
#include "policy/lru_policy.hpp"
#include "sim/platform.hpp"
#include "telemetry/counters.hpp"
#include "twolm/direct_mapped_cache.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kRepeats = 3;

struct Access {
  std::size_t addr = 0;
  std::size_t bytes = 0;
  bool write = false;
};

}  // namespace

TwoLmProbe probe_twolm(const ca::dnn::ModelSpec& spec, std::size_t dram,
                       std::size_t nvram, std::uint64_t seed, Tracer& tracer) {
  const auto platform = ca::sim::Platform::cascade_lake_scaled(dram, nvram);
  ca::twolm::CacheConfig cc;
  cc.capacity = dram;

  // Tensor sizes of `spec` at its batch: activations per stage (channels x
  // spatial^2 x batch floats) and 3x3 conv weights.  Each stage doubles the
  // channels and halves the spatial size.
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < spec.stages.size(); ++i) {
    const std::size_t channels = spec.base_channels << i;
    const std::size_t spatial = std::max<std::size_t>(1, spec.image >> i);
    sizes.push_back(spec.batch * channels * spatial * spatial * sizeof(float));
    sizes.push_back(channels * channels * 9 * sizeof(float));
  }

  // The stream: accesses to tensors at random cache-block-aligned
  // addresses, a third of them writes, until four cache capacities of
  // bytes are touched.
  ca::util::Xoshiro256 rng(seed ^ 0x2c4d5e6f7a8b9c0dULL);
  const std::size_t target = 4 * dram;
  std::vector<Access> stream;
  std::size_t blocks = 0;
  for (std::size_t touched = 0; touched < target;) {
    Access a;
    a.bytes = std::max<std::size_t>(64, sizes[rng.bounded(sizes.size())]);
    a.addr = rng.bounded((nvram - a.bytes) / 64) * 64;
    a.write = rng.bounded(3) == 0;
    blocks += (a.addr + a.bytes - 1) / 64 - a.addr / 64 + 1;
    touched += a.bytes;
    stream.push_back(a);
  }

  std::vector<double> construct;
  std::vector<double> per_block;
  for (int r = 0; r < kRepeats; ++r) {
    ca::telemetry::TrafficCounters counters;
    std::unique_ptr<ca::twolm::DirectMappedCache> cache;
    {
      SpanScope span(&tracer, "probe.twolm_construct");
      const double t0 = wall_now();
      cache = std::make_unique<ca::twolm::DirectMappedCache>(cc, platform, counters);
      construct.push_back(wall_now() - t0);
    }
    SpanScope span(&tracer, "probe.twolm_access");
    const double t0 = wall_now();
    for (const Access& a : stream) (void)cache->access(a.addr, a.bytes, a.write);
    per_block.push_back((wall_now() - t0) * 1e9 / static_cast<double>(blocks));
  }
  return {median(construct), median(per_block)};
}

double probe_kernel_bracket_us(std::size_t live_objects, std::uint64_t seed,
                               Tracer& tracer) {
  using ca::util::KiB;
  const std::size_t n = std::max<std::size_t>(1, live_objects);
  const std::size_t obj_bytes = KiB;  // below min_migratable: fast-resident
  auto platform = ca::sim::Platform::cascade_lake_scaled(
      2 * n * obj_bytes + ca::util::MiB, ca::util::MiB);
  ca::sim::Clock clock;
  ca::telemetry::TrafficCounters counters;
  ca::dm::DataManager dm(platform, clock, counters);
  ca::policy::LruPolicy policy(dm, ca::policy::LruPolicyConfig{});

  std::vector<ca::dm::Object*> objects;
  objects.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ca::dm::Object* o = dm.create_object(obj_bytes);
    policy.place_new(*o);
    objects.push_back(o);
  }

  // A kernel has a few arguments; pick three per bracket from a seeded
  // stream generated before timing.
  constexpr std::size_t kArgs = 3;
  constexpr std::size_t kBrackets = 4096;
  ca::util::Xoshiro256 rng(seed ^ 0x6b43a9b5f1e2d3c4ULL);
  std::vector<ca::dm::Object*> args(kBrackets * kArgs);
  for (auto& a : args) a = objects[rng.bounded(n)];

  const auto brackets = [&](std::size_t count) {
    const double t0 = wall_now();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t k = (i % kBrackets) * kArgs;
      policy.begin_kernel(std::span<ca::dm::Object* const>(&args[k], kArgs));
      policy.end_kernel();
    }
    return wall_now() - t0;
  };
  // Size each repeat to about 0.2 s of work whatever the object count.
  constexpr std::size_t kCalibrate = 64;
  const double each = std::max(brackets(kCalibrate) / kCalibrate, 1e-9);
  const std::size_t count =
      std::max<std::size_t>(kCalibrate, static_cast<std::size_t>(0.2 / each));
  std::vector<double> per_bracket;
  for (int r = 0; r < kRepeats; ++r) {
    SpanScope span(&tracer, "probe.kernel_bracket");
    per_bracket.push_back(brackets(count) * 1e6 / static_cast<double>(count));
  }

  for (ca::dm::Object* o : objects) {
    policy.on_destroy(*o);
    dm.destroy_object(o);
  }
  return median(per_bracket);
}

}  // namespace perfbench
