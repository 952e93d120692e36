// Microbenchmarks for the asynchronous mover: the caller-side cost of
// scheduling a transfer (which must NOT scale with transfer size -- the
// real memcpy runs on a background mover thread), contrasted with the
// synchronous copy path (which does), plus the modeled channel-overlap
// behaviour of the per-direction channel pools.  One BENCH_async_mover.json
// row per case and argument (best-of-reps host seconds per call, GiB/s
// where bytes move) plus the inflight_peak, serial_slots and fetch_channels
// counters.  `--smoke` runs every case with minimal counts.
#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

constexpr std::size_t kBatch = 8;  ///< schedules timed per sample

struct Rig {
  explicit Rig(std::size_t channels = 4)
      : platform([channels] {
          auto p = sim::Platform::cascade_lake_scaled(128 * util::MiB,
                                                      256 * util::MiB);
          p.mover_channels = channels;
          return p;
        }()),
        dm(platform, clock, counters) {}

  sim::Platform platform;
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = smoke ? 1 : 5;
  BenchReport report("async_mover");
  const auto add = [&](const std::string& name, double seconds,
                       double bytes) {
    report.add(name, seconds, "s", Better::kLower);
    if (bytes > 0.0) {
      report.add(name + " [GiB/s]", gib_per_s(bytes, seconds), "GiB/s",
                 Better::kHigher);
    }
  };
  const std::size_t sizes[] = {256 * util::KiB, 1 * util::MiB, 4 * util::MiB,
                               16 * util::MiB};

  // Caller wall-clock per copyto_async: a batch of schedules onto distinct
  // destinations is timed; the drain (real memcpys on the mover) is not.
  // Compare against BM_CopytoSyncCall: this curve stays flat as bytes grow.
  for (const std::size_t bytes : sizes) {
    Rig rig;
    std::vector<dm::Region*> srcs;
    std::vector<dm::Region*> dsts;
    for (std::size_t i = 0; i < kBatch; ++i) {
      srcs.push_back(rig.dm.allocate(sim::kSlow, bytes));
      dsts.push_back(rig.dm.allocate(sim::kFast, bytes));
    }
    const double batch_s = best_seconds(smoke ? 2 : 50, [&] {
      WallTimer wall;
      for (std::size_t i = 0; i < kBatch; ++i) {
        rig.dm.copyto_async(*dsts[i], *srcs[i]);
      }
      const double s = wall.seconds();
      // Untimed housekeeping: catch the simulated clock up to the mover
      // horizon and retire everything so the registry stays small.
      const double lag = rig.dm.mover_busy_until() - rig.clock.now();
      if (lag > 0.0) rig.clock.advance(lag, sim::TimeCategory::kCompute);
      rig.dm.drain_transfers();
      return s;
    });
    const std::string name = "BM_CopytoAsyncSchedule/" + std::to_string(bytes);
    add(name, batch_s / kBatch, static_cast<double>(bytes));
    report.add(name + " [inflight_peak]",
               static_cast<double>(rig.dm.async_stats().inflight_peak),
               "count", Better::kHigher);
  }

  // Caller wall-clock per synchronous copyto: scales with transfer size (the
  // caller performs the chunked memcpy itself).
  for (const std::size_t bytes : sizes) {
    Rig rig;
    dm::Region* src = rig.dm.allocate(sim::kSlow, bytes);
    dm::Region* dst = rig.dm.allocate(sim::kFast, bytes);
    const std::size_t copies =
        smoke ? 2 : std::max<std::size_t>(8, 256 * util::MiB / bytes);
    add("BM_CopytoSyncCall/" + std::to_string(bytes),
        time_per_op(reps, copies, [&] { rig.dm.copyto(*dst, *src); }),
        static_cast<double>(bytes));
  }

  // Modeled channel overlap: N same-direction transfers scheduled
  // back-to-back finish in ceil(N / channels_per_direction) serial slots,
  // not N.  The timed section is the scheduling loop on a fresh rig.
  for (const std::size_t channels : {1, 2, 4, 8}) {
    const std::size_t bytes = 2 * util::MiB;
    double serial_slots = 0.0;
    double fetch_channels = 0.0;
    const double s = best_seconds(reps, [&] {
      Rig rig(channels);
      std::vector<dm::Region*> srcs;
      std::vector<dm::Region*> dsts;
      for (std::size_t i = 0; i < kBatch; ++i) {
        srcs.push_back(rig.dm.allocate(sim::kSlow, bytes));
        dsts.push_back(rig.dm.allocate(sim::kFast, bytes));
      }
      WallTimer wall;
      double last_done = 0.0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        last_done = rig.dm.copyto_async(*dsts[i], *srcs[i]);
      }
      const double elapsed = wall.seconds();
      serial_slots = last_done / rig.dm.engine().modeled_copy_time(
                                     bytes, sim::kSlow, sim::kFast, true);
      fetch_channels = static_cast<double>(
          rig.dm.engine().channels_for(sim::kSlow, sim::kFast));
      rig.dm.drain_transfers();
      return elapsed;
    });
    const std::string name =
        "BM_ChannelOverlapModel/" + std::to_string(channels);
    add(name, s, 0.0);
    report.add(name + " [serial_slots]", serial_slots, "count",
               Better::kLower);
    report.add(name + " [fetch_channels]", fetch_channels, "count",
               Better::kHigher);
  }

  report.print();
  report.write(argc, argv);
  return 0;
}
