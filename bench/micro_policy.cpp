// Microbenchmarks for the policy layer: hint processing costs (these sit
// on the critical path of every kernel launch) and the Listing-1/2
// evict/prefetch round trip.  One BENCH_policy.json row per case and
// argument: best-of-reps host seconds per operation, plus GiB/s for the
// round trip.  `--smoke` runs every case with minimal counts.
#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "dm/data_manager.hpp"
#include "policy/lru_policy.hpp"
#include "util/align.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

struct Rig {
  explicit Rig(policy::LruPolicyConfig cfg = {})
      : platform(sim::Platform::cascade_lake_scaled(8 * util::MiB,
                                                    32 * util::MiB)),
        dm(platform, clock, counters),
        policy(dm, cfg) {}

  dm::Object* placed(std::size_t bytes) {
    dm::Object* obj = dm.create_object(bytes);
    policy.place_new(*obj);
    return obj;
  }

  sim::Platform platform;
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
  policy::LruPolicy policy;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = smoke ? 1 : 5;
  const std::size_t iters = smoke ? 100 : 1'000'000;
  BenchReport report("policy");
  const auto add = [&](const std::string& name, double seconds) {
    report.add(name, seconds, "s", Better::kLower);
  };

  {
    // will_read with no prefetching on a fast-resident object: the common
    // cheap case (LRU touch only).
    Rig rig;
    dm::Object* obj = rig.placed(256 * util::KiB);
    add("BM_HintNoOp",
        time_per_op(reps, iters, [&] { rig.policy.will_read(*obj); }));
  }
  {
    Rig rig;
    dm::Object* obj = rig.placed(256 * util::KiB);
    add("BM_ArchiveHint",
        time_per_op(reps, iters, [&] { rig.policy.archive(*obj); }));
  }
  // Listing 1 + Listing 2 on an object of the given size: includes the
  // real memcpys, allocator traffic and metadata updates.
  for (const std::size_t size : {256 * util::KiB, 1 * util::MiB,
                                 4 * util::MiB}) {
    Rig rig;
    dm::Object* obj = rig.placed(size);
    const std::size_t trips =
        smoke ? 2 : std::max<std::size_t>(8, 256 * util::MiB / size);
    const double s = time_per_op(reps, trips, [&] {
      rig.policy.evict(*obj);
      do_not_optimize(rig.policy.prefetch(*obj, true));
    });
    const std::string name =
        "BM_EvictPrefetchRoundTrip/" + std::to_string(size);
    add(name, s);
    report.add(name + " [GiB/s]",
               gib_per_s(2.0 * static_cast<double>(size), s), "GiB/s",
               Better::kHigher);
  }
  {
    // place_new when fast memory is full: forced reclamation via
    // evictfrom.  Each rep times one placement; the teardown is untimed.
    Rig rig;
    for (int i = 0; i < 32; ++i) rig.placed(256 * util::KiB);
    add("BM_PlaceNewUnderPressure", best_seconds(smoke ? 2 : 500, [&] {
          dm::Object* obj = rig.dm.create_object(256 * util::KiB);
          WallTimer wall;
          rig.policy.place_new(*obj);
          const double s = wall.seconds();
          rig.policy.on_destroy(*obj);
          rig.dm.destroy_object(obj);
          return s;
        }));
  }
  // begin_kernel/end_kernel over a typical argument count (4), with the
  // given number of live objects tracked by the policy.  The bracket must
  // cost O(args): per-bracket time stays flat as the live count grows.
  for (const std::size_t live : {4, 1024, 8192}) {
    Rig rig;
    std::vector<dm::Object*> objs;
    for (std::size_t i = 0; i < live; ++i) {
      objs.push_back(rig.placed(512));  // 8192 fit in fast
    }
    const std::span<dm::Object* const> args(objs.data(), 4);
    add("BM_KernelStagingBracket/" + std::to_string(live),
        time_per_op(reps, iters / 10, [&] {
          rig.policy.begin_kernel(args);
          rig.policy.end_kernel();
        }));
  }

  report.print();
  report.write(argc, argv);
  return 0;
}
