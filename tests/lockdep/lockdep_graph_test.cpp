// Sanctioned-workload graph test: drives the real code paths -- sync and
// async copies, modeled retirement, tenant registration, eviction,
// parallel_for rendezvous, kernel scratch leases -- so every production
// lock class is *acquired* (not merely registered) and every sanctioned
// acquisition pattern feeds the order graph, then asserts the graph matches
// the declared hierarchy in docs/lock_hierarchy.json: exactly one ordering
// edge (objects_mu_ -> heap_mu_), zero held-across-blocking occurrences.
//
// When CA_LOCKDEP_DUMP names a file, the observed graph is serialized there
// for tools/manifest_check.py locks --dump, which diffs it against the manifest
// in both directions (an undeclared runtime edge fails, and so does a
// declared class the workload never exercised).  tools/check.sh's lockdep
// stage runs exactly this test with the dump enabled.
//
// Requires a CA_LOCKDEP_ENABLED build; self-skips elsewhere.
#include <gtest/gtest.h>

#if !defined(CA_LOCKDEP_ENABLED)

TEST(LockdepGraph, InstrumentationRequired) {
  GTEST_SKIP() << "lockdep not compiled in; use a Debug or -DCA_RACE=ON "
                  "build to run the graph tests";
}

#else  // CA_LOCKDEP_ENABLED

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "comm/comm_engine.hpp"
#include "dm/data_manager.hpp"
#include "dm/pinned_span.hpp"
#include "dnn/scratch.hpp"
#include "lockdep/lockdep.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/threadpool.hpp"

namespace ca {
namespace {

/// Every production lock class the manifest declares.  Keep in sync with
/// docs/lock_hierarchy.json (tools/manifest_check.py locks enforces the
/// manifest against the annotations and against this test's dump).
const char* const kProductionClasses[] = {
    "comm::CommEngine::mu_",         "comm::Reduction::State::mu",
    "dm::DataManager::heap_mu_",     "dm::DataManager::inflight_mu_",
    "dm::DataManager::objects_mu_",  "dm::DataManager::tenants_mu_",
    "dnn::ScratchPool::mu_",         "mem::CopyEngine::mu_",
    "mem::Transfer::State::mu",      "util::CompletionLatch::mu_",
    "util::ThreadPool::mu_",
};

/// The sanctioned workload: touches every subsystem that owns a lock.
void run_sanctioned_workload() {
  sim::Platform platform =
      sim::Platform::cascade_lake_scaled(1 * util::MiB, 16 * util::MiB);
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform, clock, counters);

  // Tenant registration: tenants_mu_.  Allocation below charges this
  // tenant, so the quota/accounting paths run too.
  const dm::TenantId tenant = dm.register_tenant("lockdep-workload");
  dm.set_tenant_quota(tenant, sim::kFast, 8 * util::MiB);

  // Allocate / free: objects_mu_ -> heap_mu_, the one sanctioned ordering
  // edge (the tables and the device heap move together so block cookies
  // always name live entries).  Sync copy: CopyEngine::mu_,
  // ThreadPool::mu_, CompletionLatch::mu_ (the chunked copy's
  // parallel_for rendezvous).
  dm::Region* a = dm.allocate(sim::kSlow, 256 * util::KiB, tenant);
  dm::Region* b = dm.allocate(sim::kFast, 256 * util::KiB, tenant);
  dm.copyto(*b, *a);

  // Async transfers: Transfer::State::mu, DataManager::inflight_mu_, and
  // the join discipline in retire_transfers / sync_region_real.
  const double done = dm.copyto_async(*a, *b);
  for (int i = 0; i < 4; ++i) (void)dm.inflight_transfers();
  clock.advance(done - clock.now() + 1e-9, sim::TimeCategory::kOther);
  dm.retire_transfers();

  // Eviction: the candidate scan under heap_mu_ plus the lock-free
  // callback discipline (the callback frees through the normal path, so
  // it re-enters objects_mu_ -> heap_mu_ without holding either).
  ASSERT_TRUE(dm.evictfrom(
      sim::kFast, 0, 64 * util::KiB,
      [&](dm::Region& victim) {
        dm.free(&victim);
        b = nullptr;
        return true;
      },
      tenant));
  if (b != nullptr) dm.free(b);
  dm.free(a);

  // Allreduce: CommEngine::mu_ (interconnect scheduling, stats polling)
  // and Reduction::State::mu (the real-completion handshake in join()).
  // The spans travel into the engine and are reset on the pool thread
  // BEFORE State::mu is taken -- no pin is ever dropped under a lock.
  {
    comm::CommEngine comm_eng(
        comm::CommConfig{2, comm::LinkModel::ethernet_scaled(), {}});
    dm::Object* g0 = dm.create_object(4 * util::KiB, "lockdep:g0", tenant,
                                      dm::ObjectClass::kGradient);
    dm::Object* g1 = dm.create_object(4 * util::KiB, "lockdep:g1", tenant,
                                      dm::ObjectClass::kGradient);
    for (dm::Object* g : {g0, g1}) {
      dm::Region* r = dm.allocate(sim::kFast, 4 * util::KiB, tenant);
      ASSERT_NE(r, nullptr);
      dm.setprimary(*g, *r);
    }
    std::vector<dm::PinnedSpan> parts;
    parts.push_back(dm.access(*g0, /*write=*/true));
    parts.push_back(dm.access(*g1, /*write=*/true));
    comm::Reduction red =
        comm_eng.allreduce_async(std::move(parts), /*earliest_start=*/0.0);
    red.join();
    (void)comm_eng.stats();
    comm_eng.drain();
    dm.destroy_object(g0);
    dm.destroy_object(g1);
  }

  // Kernel scratch leases: ScratchPool::mu_.
  dnn::real::ScratchPool scratch;
  {
    auto lease = scratch.acquire(1024);
    ASSERT_GE(lease.size(), 1024u);
  }

  // A standalone pool wait_idle for the ThreadPool cv paths, plus a
  // parallel_for forced wide (min_grain = 1, so it cannot run inline) for
  // the CompletionLatch rendezvous -- the sync copy above may stay
  // single-chunk, so this is what guarantees the latch class registers.
  util::ThreadPool pool(2);
  pool.submit([] {});
  pool.wait_idle();
  sync::atomic<std::size_t> covered{0};
  pool.parallel_for(
      64,
      [&](std::size_t begin, std::size_t end) {
        covered.fetch_add(end - begin);
      },
      /*min_grain=*/1);
  ASSERT_EQ(covered.load(), 64u);
}

TEST(LockdepGraph, SanctionedWorkloadMatchesDeclaredHierarchy) {
  lockdep::reset_for_testing();
  run_sanctioned_workload();

  // Every declared class registered (the dump below would otherwise pass
  // trivially by never exercising a subsystem).  tools/manifest_check.py locks
  // additionally requires each class's dumped `acquires` count to be
  // non-zero -- registration alone is not coverage.
  const std::string dump = lockdep::dump_graph_json();
  for (const char* cls : kProductionClasses) {
    EXPECT_NE(dump.find(std::string("\"") + cls + "\""), std::string::npos)
        << "lock class never registered by the workload: " << cls;
  }

  // The sanctioned hierarchy has exactly one ordering edge -- the
  // DataManager acquires heap_mu_ under objects_mu_ on allocate/release/
  // defragment -- and no lock is held across a blocking op.
  const auto edges = lockdep::edges();
  for (const auto& edge : edges) {
    if (edge.from == "dm::DataManager::objects_mu_" &&
        edge.to == "dm::DataManager::heap_mu_") {
      continue;
    }
    ADD_FAILURE() << "undeclared ordering edge observed: " << edge.from
                  << " -> " << edge.to << " (acquired at " << edge.site
                  << ")";
  }
  EXPECT_TRUE(std::any_of(edges.begin(), edges.end(),
                          [](const lockdep::EdgeInfo& e) {
                            return e.from == "dm::DataManager::objects_mu_" &&
                                   e.to == "dm::DataManager::heap_mu_";
                          }))
      << "the sanctioned objects_mu_ -> heap_mu_ edge was never observed "
         "(allocate should exercise it)";
  const auto blocking = lockdep::blocking_edges();
  for (const auto& b : blocking) {
    ADD_FAILURE() << "lock held across blocking op: " << b.cls << " across "
                  << b.op << " at " << b.site;
  }
  EXPECT_EQ(lockdep::report_count(), 0u);

  // Hand the observed graph to tools/manifest_check.py locks when asked.
  if (const char* path = std::getenv("CA_LOCKDEP_DUMP")) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write CA_LOCKDEP_DUMP file " << path;
    out << dump;
  }
}

}  // namespace
}  // namespace ca

#endif  // CA_LOCKDEP_ENABLED
