// Transfer-handle edge cases: join() idempotence, joining after the
// DataManager already retired the registry entry, destroying handles and
// engines with un-joined real copies in flight, and zero-byte transfers.
// These run under ASan and CA_RACE in tools/check.sh: every path must be
// clean whether the real memcpy has landed or not.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dm/data_manager.hpp"
#include "lockdep/lockdep.hpp"
#include "mem/copy_engine.hpp"
#include "mem/transfer.hpp"
#include "util/align.hpp"

namespace ca::mem {
namespace {

class TransferEdgeTest : public ::testing::Test {
 protected:
  TransferEdgeTest()
      : platform_(sim::Platform::cascade_lake_scaled(8 * util::MiB,
                                                     32 * util::MiB)),
        engine_(platform_, clock_, counters_) {}

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  CopyEngine engine_;
};

TEST_F(TransferEdgeTest, DoubleJoinIsIdempotent) {
  std::vector<std::byte> src(4 * util::MiB, std::byte{0x5C});
  std::vector<std::byte> dst(4 * util::MiB);
  Transfer t = engine_.copy_async(dst.data(), sim::kFast, src.data(),
                                  sim::kSlow, src.size(), clock_.now());
  t.join();
  EXPECT_TRUE(t.real_done());
  t.join();  // second join on a completed transfer: immediate no-op
  EXPECT_TRUE(t.real_done());
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

TEST_F(TransferEdgeTest, JoinOnDefaultConstructedHandleIsNoop) {
  Transfer t;
  EXPECT_FALSE(t.valid());
  EXPECT_TRUE(t.real_done());  // vacuously done
  t.join();
  t.join();
}

TEST_F(TransferEdgeTest, ZeroByteTransferIsImmediatelyComplete) {
  std::byte a{}, b{};
  const double t0 = clock_.now();
  Transfer t = engine_.copy_async(&a, sim::kFast, &b, sim::kSlow, 0,
                                  /*earliest_start=*/t0 + 1.5);
  EXPECT_TRUE(t.valid());
  EXPECT_TRUE(t.real_done());
  EXPECT_EQ(t.bytes(), 0u);
  // Modeled schedule honors earliest_start but occupies no channel and
  // records no traffic.
  EXPECT_DOUBLE_EQ(t.start_time(), t0 + 1.5);
  EXPECT_DOUBLE_EQ(t.done_time(), t.start_time());
  EXPECT_DOUBLE_EQ(engine_.mover_horizon(), 0.0);
  EXPECT_EQ(counters_.device(sim::kFast).total(), 0u);
  EXPECT_EQ(counters_.device(sim::kSlow).total(), 0u);
  EXPECT_EQ(engine_.inflight(), 0u);
  t.join();  // joining an already-complete transfer is a no-op
}

TEST_F(TransferEdgeTest, DroppingUnjoinedHandleIsSafe) {
  // The handle may die before the background memcpy finishes: the mover
  // keeps the shared state alive, and the engine's destructor (via drain)
  // keeps the buffers outlive the copy.  ASan validates the claim.
  std::vector<std::byte> src(6 * util::MiB, std::byte{0xA1});
  std::vector<std::byte> dst(6 * util::MiB);
  {
    Transfer t = engine_.copy_async(dst.data(), sim::kFast, src.data(),
                                    sim::kSlow, src.size(), clock_.now());
    EXPECT_TRUE(t.valid());
  }  // un-joined handle destroyed here
  engine_.drain();  // bytes still land exactly once
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

TEST_F(TransferEdgeTest, EngineDestructorDrainsUnjoinedCopies) {
  std::vector<std::byte> src(6 * util::MiB, std::byte{0x3D});
  std::vector<std::byte> dst(6 * util::MiB);
  {
    sim::Clock clock;
    telemetry::TrafficCounters counters;
    std::optional<CopyEngine> engine;
    engine.emplace(platform_, clock, counters);
    Transfer t = engine->copy_async(dst.data(), sim::kFast, src.data(),
                                    sim::kSlow, src.size(), clock.now());
    engine.reset();  // destructor drains the mover pool; no join() issued
    EXPECT_TRUE(t.real_done());
  }
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

TEST_F(TransferEdgeTest, JoinAfterRetireIsSafe) {
  // The DataManager retires a registry entry once the modeled clock passes
  // its completion; a caller-held copy of the handle must stay joinable.
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform_, clock, counters);
  dm::Region* src = dm.allocate(sim::kSlow, 1 * util::MiB);
  dm::Region* dst = dm.allocate(sim::kFast, 1 * util::MiB);
  const double done = dm.copyto_async(*dst, *src);

  auto inflight = dm.inflight_transfers();
  ASSERT_EQ(inflight.size(), 1u);
  Transfer held = inflight.front().transfer;

  clock.advance(done - clock.now() + 1e-9, sim::TimeCategory::kOther);
  dm.retire_transfers();
  EXPECT_TRUE(dm.inflight_transfers().empty());

  held.join();  // the registry is gone; the handle still works
  EXPECT_TRUE(held.real_done());
  EXPECT_DOUBLE_EQ(held.done_time(), done);
  dm.free(dst);
  dm.free(src);
}

#if defined(CA_LOCKDEP_ENABLED)

// The join discipline, proven rather than assumed: retire_transfers and
// sync_region_real (via free of a region with a live transfer) pull handles
// out of the registry under inflight_mu_ and join AFTER releasing it.
// Lockdep's blocking detector hooks Transfer::join() entry, so if either
// path ever joined under the lock these tests go red -- under both TSan
// and CA_RACE builds (tools/check.sh runs this suite in each).

TEST_F(TransferEdgeTest, RetirePathHoldsNoLockAcrossJoin) {
  lockdep::reset_for_testing();
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform_, clock, counters);
  dm::Region* src = dm.allocate(sim::kSlow, 1 * util::MiB);
  dm::Region* dst = dm.allocate(sim::kFast, 1 * util::MiB);
  const double done = dm.copyto_async(*dst, *src);
  clock.advance(done - clock.now() + 1e-9, sim::TimeCategory::kOther);
  dm.retire_transfers();  // joins every retiree -- with the registry lock
                          // released
  for (const auto& b : lockdep::blocking_edges()) {
    ADD_FAILURE() << "lock held across " << b.op << ": " << b.cls << " at "
                  << b.site;
  }
  EXPECT_EQ(lockdep::report_count(), 0u);
  dm.free(dst);
  dm.free(src);
}

TEST_F(TransferEdgeTest, SyncRegionRealPathHoldsNoLockAcrossJoin) {
  lockdep::reset_for_testing();
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform_, clock, counters);
  dm::Region* src = dm.allocate(sim::kSlow, 1 * util::MiB);
  dm::Region* dst = dm.allocate(sim::kFast, 1 * util::MiB);
  dm.copyto_async(*dst, *src);
  // Freeing with the transfer still registered forces sync_region_real to
  // join the live copies touching each region.
  dm.free(dst);
  dm.free(src);
  for (const auto& b : lockdep::blocking_edges()) {
    ADD_FAILURE() << "lock held across " << b.op << ": " << b.cls << " at "
                  << b.site;
  }
  EXPECT_EQ(lockdep::report_count(), 0u);
  // And the acquisition-order graph holds exactly the one sanctioned edge
  // of docs/lock_hierarchy.json (allocate and free nest heap_mu_ under
  // objects_mu_): no lock was nested inside the registry lock on either
  // path.
  std::set<std::pair<std::string, std::string>> observed;
  for (const auto& e : lockdep::edges()) observed.emplace(e.from, e.to);
  const std::set<std::pair<std::string, std::string>> sanctioned{
      {"dm::DataManager::objects_mu_", "dm::DataManager::heap_mu_"}};
  EXPECT_EQ(observed, sanctioned);
}

#endif  // CA_LOCKDEP_ENABLED

}  // namespace
}  // namespace ca::mem
