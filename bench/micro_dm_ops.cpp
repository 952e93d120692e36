// Microbenchmarks for the data-management API hot paths: object/region
// lifecycle, linking, primary reassignment, eviction-window search, and
// defragmentation.  One BENCH_dm_ops.json row per case: best-of-reps host
// seconds per operation.  `--smoke` runs every case with minimal counts.
#include <vector>

#include "common.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

struct Rig {
  Rig()
      : platform(sim::Platform::cascade_lake_scaled(8 * util::MiB,
                                                    32 * util::MiB)),
        dm(platform, clock, counters) {}

  /// A 64 KiB object whose primary lives on `dev`.
  dm::Object* placed(sim::DeviceId dev) {
    dm::Object* obj = dm.create_object(64 * util::KiB);
    dm.setprimary(*obj, *dm.allocate(dev, obj->size()));
    return obj;
  }

  sim::Platform platform;
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = smoke ? 1 : 5;
  const std::size_t iters = smoke ? 100 : 200'000;
  BenchReport report("dm_ops");
  const auto add = [&](const char* name, double seconds) {
    report.add(name, seconds, "s", Better::kLower);
  };

  {
    Rig rig;
    add("BM_ObjectLifecycle", time_per_op(reps, iters, [&] {
          rig.dm.destroy_object(rig.placed(sim::kFast));
        }));
  }
  {
    Rig rig;
    dm::Object* obj = rig.placed(sim::kSlow);
    dm::Region* slow = rig.dm.getprimary(*obj);
    dm::Region* fast = rig.dm.allocate(sim::kFast, obj->size());
    add("BM_LinkUnlink", time_per_op(reps, iters, [&] {
          rig.dm.link(*slow, *fast);
          rig.dm.unlink(*fast);
        }));
    rig.dm.link(*slow, *fast);
    bool use_fast = true;
    add("BM_SetPrimarySwap", time_per_op(reps, iters, [&] {
          rig.dm.setprimary(*obj, use_fast ? *fast : *slow);
          use_fast = !use_fast;
        }));
  }
  {
    // The per-kernel indirection cost the paper calls "essentially zero
    // overhead": one pin + pointer resolution + unpin.
    Rig rig;
    dm::Object* obj = rig.placed(sim::kFast);
    add("BM_PinResolveUnpin", time_per_op(reps, iters, [&] {
          rig.dm.pin(*obj);
          do_not_optimize(rig.dm.getprimary(*obj)->data());
          rig.dm.unpin(*obj);
        }));
  }
  {
    // Worst case: the heap is full of refusing (pinned) regions and the
    // window search must scan and wrap.
    Rig rig;
    std::vector<dm::Object*> objs;
    for (int i = 0; i < 128; ++i) {
      objs.push_back(rig.placed(sim::kFast));
      rig.dm.pin(*objs.back());
    }
    add("BM_EvictFromWindowSearch", time_per_op(reps, iters / 20, [&] {
          do_not_optimize(rig.dm.evictfrom(sim::kFast, 0, 256 * util::KiB,
                                           [](dm::Region&) { return false; }));
        }));
    for (auto* o : objs) {
      rig.dm.unpin(*o);
      rig.dm.destroy_object(o);
    }
  }
  {
    // Set-up and teardown of the half-free heap stay outside the timed
    // defragment.
    Rig rig;
    add("BM_Defragment", best_seconds(smoke ? 2 : 200, [&] {
          std::vector<dm::Object*> objs;
          for (int i = 0; i < 64; ++i) objs.push_back(rig.placed(sim::kFast));
          for (std::size_t i = 0; i < objs.size(); i += 2) {
            rig.dm.destroy_object(objs[i]);
          }
          WallTimer wall;
          rig.dm.defragment(sim::kFast);
          const double s = wall.seconds();
          for (std::size_t i = 1; i < objs.size(); i += 2) {
            rig.dm.destroy_object(objs[i]);
          }
          return s;
        }));
  }

  report.print();
  report.write(argc, argv);
  return 0;
}
