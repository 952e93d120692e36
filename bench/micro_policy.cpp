// Microbenchmarks for the policy layer: hint processing costs (these sit
// on the critical path of every kernel launch) and the Listing-1/2
// evict/prefetch round trip.
#include <benchmark/benchmark.h>

#include "dm/data_manager.hpp"
#include "gbench_report.hpp"
#include "policy/lru_policy.hpp"
#include "util/align.hpp"

using namespace ca;

namespace {

struct Rig {
  explicit Rig(policy::LruPolicyConfig cfg = {})
      : platform(sim::Platform::cascade_lake_scaled(8 * util::MiB,
                                                    32 * util::MiB)),
        dm(platform, clock, counters),
        policy(dm, cfg) {}

  sim::Platform platform;
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
  policy::LruPolicy policy;
};

void BM_HintNoOp(benchmark::State& state) {
  // will_read with no prefetching on a fast-resident object: the common
  // cheap case (LRU touch only).
  Rig rig;
  dm::Object* obj = rig.dm.create_object(256 * util::KiB);
  rig.policy.place_new(*obj);
  for (auto _ : state) {
    rig.policy.will_read(*obj);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HintNoOp);

void BM_ArchiveHint(benchmark::State& state) {
  Rig rig;
  dm::Object* obj = rig.dm.create_object(256 * util::KiB);
  rig.policy.place_new(*obj);
  for (auto _ : state) {
    rig.policy.archive(*obj);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArchiveHint);

void BM_EvictPrefetchRoundTrip(benchmark::State& state) {
  // Listing 1 + Listing 2 on an object of the given size: includes the
  // real memcpys, allocator traffic and metadata updates.
  Rig rig;
  const auto size = static_cast<std::size_t>(state.range(0));
  dm::Object* obj = rig.dm.create_object(size);
  rig.policy.place_new(*obj);
  for (auto _ : state) {
    rig.policy.evict(*obj);
    benchmark::DoNotOptimize(rig.policy.prefetch(*obj, true));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_EvictPrefetchRoundTrip)
    ->Arg(256 * 1024)
    ->Arg(1 * 1024 * 1024)
    ->Arg(4 * 1024 * 1024);

void BM_PlaceNewUnderPressure(benchmark::State& state) {
  // place_new when fast memory is full: forced reclamation via evictfrom.
  Rig rig;
  std::vector<dm::Object*> warm;
  for (int i = 0; i < 32; ++i) {
    dm::Object* o = rig.dm.create_object(256 * util::KiB);
    rig.policy.place_new(*o);
    warm.push_back(o);
  }
  for (auto _ : state) {
    dm::Object* obj = rig.dm.create_object(256 * util::KiB);
    rig.policy.place_new(*obj);
    state.PauseTiming();
    rig.policy.on_destroy(*obj);
    rig.dm.destroy_object(obj);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlaceNewUnderPressure);

void BM_KernelStagingBracket(benchmark::State& state) {
  // begin_kernel/end_kernel over a typical argument count (4), with the
  // given number of live objects tracked by the policy.  The bracket must
  // cost O(args): per-bracket time stays flat as the live count grows.
  Rig rig;
  const auto live = static_cast<std::size_t>(state.range(0));
  std::vector<dm::Object*> objs;
  for (std::size_t i = 0; i < live; ++i) {
    dm::Object* o = rig.dm.create_object(512);  // 8192 fit in fast
    rig.policy.place_new(*o);
    objs.push_back(o);
  }
  const std::span<dm::Object* const> args(objs.data(), 4);
  for (auto _ : state) {
    rig.policy.begin_kernel(args);
    rig.policy.end_kernel();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelStagingBracket)->Arg(4)->Arg(1024)->Arg(8192);

}  // namespace

int main(int argc, char** argv) {
  return ca::bench::run_gbench_with_report(argc, argv, "policy");
}
