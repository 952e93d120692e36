// Seeded-hazard regression tests for the comm engine: reintroduce, behind
// CommTestPeer, the two allreduce lifecycle bugs the pin-and-join
// discipline prevents -- bucket-reuse-before-reduce-complete and
// free-while-on-wire -- and assert the schedule explorer + vector-clock
// detector flag both in EVERY schedule, across >= 1000 distinct
// interleavings each.  The same scenarios through the real (fixed) API
// must come back clean.
#include <gtest/gtest.h>

#if !defined(CA_RACE)

TEST(CommRaceHazards, InstrumentationRequired) {
  GTEST_SKIP() << "CA_RACE instrumentation not compiled in; configure with "
                  "-DCA_RACE=ON to run the seeded-hazard scenarios";
}

#else  // CA_RACE

#include <cstdio>
#include <vector>

#include "comm/comm_engine.hpp"
#include "comm_test_peer.hpp"
#include "dm/data_manager.hpp"
#include "dm/pinned_span.hpp"
#include "race/explorer.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"

namespace ca {
namespace {

/// One copy worker / one mover channel so the explored task set is the
/// same on every host.
sim::Platform tiny_platform() {
  sim::Platform platform =
      sim::Platform::cascade_lake_scaled(1 * util::MiB, 4 * util::MiB);
  platform.copy_threads = 1;
  platform.mover_channels = 1;
  return platform;
}

struct CommHarness {
  sim::Platform platform = tiny_platform();
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm;
  comm::CommEngine eng;

  CommHarness()
      : dm(platform, clock, counters),
        eng(comm::CommConfig{2, comm::LinkModel::ethernet_scaled(), {}}) {}

  dm::Object* make_bucket(const char* name) {
    dm::Object* obj =
        dm.create_object(16 * util::KiB, name, {}, dm::ObjectClass::kGradient);
    dm::Region* r = dm.allocate(sim::kFast, 16 * util::KiB);
    EXPECT_NE(r, nullptr);
    dm.setprimary(*obj, *r);
    return obj;
  }

  std::vector<dm::PinnedSpan> parts(dm::Object& a, dm::Object& b) {
    std::vector<dm::PinnedSpan> out;
    out.push_back(dm.access(a, /*write=*/true));
    out.push_back(dm.access(b, /*write=*/true));
    return out;
  }

  /// A few engine-lock round-trips: contested schedule points that widen
  /// the interleaving space the explorer can reach.
  void poke() {
    for (int i = 0; i < 8; ++i) (void)eng.stats();
  }
};

/// Hazard 1 -- bucket reuse before reduce complete.  The buggy path packs
/// the next step's gradients into a bucket while its allreduce is still on
/// the wire, through the pointer the worker cached while packing (its pin
/// is still held -- the trainer's real shape): the pack's writes and the
/// wire task's reads/writes are unordered in every interleaving.  The
/// fixed path joins first -- the release/acquire handshake in
/// Reduction::join orders the reuse after the scatter.
void bucket_reuse(bool buggy) {
  CommHarness h;
  dm::Object* g0 = h.make_bucket("g0");
  dm::Object* g1 = h.make_bucket("g1");
  dm::PinnedSpan pack_span = h.dm.access(*g0, /*write=*/true);
  std::byte* pack_ptr = pack_span.data();
  const std::size_t pack_bytes = pack_span.size_bytes();
  comm::Reduction red = h.eng.allreduce_async(h.parts(*g0, *g1), 0.0);
  h.poke();
  if (!buggy) red.join();
  comm::CommTestPeer::reuse_bucket(pack_ptr, pack_bytes);
  h.eng.drain();
  pack_span.reset();
  h.dm.destroy_object(g0);
  h.dm.destroy_object(g1);
}

/// Hazard 2 -- free while on wire.  The buggy engine drops the pins at
/// submit (CommTestPeer::submit_unpinned); the bucket is then destroyed
/// mid-collective and nothing orders the free against the wire task.  The
/// real engine holds the spans until the reduced bytes have landed, so the
/// same destroy is safe after join.
void free_while_on_wire(bool buggy) {
  CommHarness h;
  dm::Object* g0 = h.make_bucket("g0");
  dm::Object* g1 = h.make_bucket("g1");
  if (buggy) {
    comm::Reduction red =
        comm::CommTestPeer::submit_unpinned(h.eng, h.parts(*g0, *g1), 0.0);
    h.poke();
    h.dm.destroy_object(g0);  // storage freed while the task is on the wire
    h.eng.drain();
    h.dm.destroy_object(g1);
  } else {
    comm::Reduction red = h.eng.allreduce_async(h.parts(*g0, *g1), 0.0);
    h.poke();
    red.join();  // pins dropped + handshake: the free is ordered
    h.dm.destroy_object(g0);
    h.dm.destroy_object(g1);
    h.eng.drain();
  }
}

TEST(CommRaceHazards, BucketReuseBeforeCompleteIsFlaggedInEverySchedule) {
  race::ExplorerOptions opts;
  opts.schedules = 1500;
  opts.mix_strategies = false;
  opts.log_failures = false;
  const auto result = race::explore(opts, [] { bucket_reuse(true); });
  EXPECT_EQ(result.schedules_run, 1500u);
  EXPECT_EQ(result.failing_schedules, result.schedules_run);
  EXPECT_GE(result.distinct_schedules, 1000u);
  std::fprintf(stderr,
               "ca::race: bucket-reuse-before-complete flagged in %zu/%zu "
               "schedules (%zu distinct)\n",
               result.failing_schedules, result.schedules_run,
               result.distinct_schedules);
}

TEST(CommRaceHazards, FreeWhileOnWireIsFlaggedInEverySchedule) {
  race::ExplorerOptions opts;
  opts.schedules = 1500;
  opts.mix_strategies = false;
  opts.log_failures = false;
  const auto result = race::explore(opts, [] { free_while_on_wire(true); });
  EXPECT_EQ(result.schedules_run, 1500u);
  EXPECT_EQ(result.failing_schedules, result.schedules_run);
  EXPECT_GE(result.distinct_schedules, 1000u);
  std::fprintf(stderr,
               "ca::race: free-while-on-wire flagged in %zu/%zu schedules "
               "(%zu distinct)\n",
               result.failing_schedules, result.schedules_run,
               result.distinct_schedules);
}

TEST(CommRaceHazards, JoinedReusePathIsCleanAcrossSchedules) {
  race::ExplorerOptions opts;
  opts.schedules = 300;
  const auto result = race::explore(opts, [] { bucket_reuse(false); });
  EXPECT_EQ(result.schedules_run, 300u);
  EXPECT_EQ(result.failing_schedules, 0u);
}

TEST(CommRaceHazards, PinnedWirePathIsCleanAcrossSchedules) {
  race::ExplorerOptions opts;
  opts.schedules = 300;
  const auto result = race::explore(opts, [] { free_while_on_wire(false); });
  EXPECT_EQ(result.schedules_run, 300u);
  EXPECT_EQ(result.failing_schedules, 0u);
}

}  // namespace
}  // namespace ca

#endif  // CA_RACE
