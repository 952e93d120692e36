// Unit tests for the ca::lockdep runtime half: class registry, held-stack
// bookkeeping, acquisition-order graph, cycle detection, recursive-class
// detection, held-across-blocking (with waivers and cv-wait exclusion), and
// the deterministic JSON dump tools/manifest_check.py locks consumes.
//
// These run against raw ca::sync::mutex instances with test-local lock
// classes -- no DataManager -- so each detector is exercised in isolation.
// Requires a CA_LOCKDEP_ENABLED build (Debug or -DCA_RACE=ON); self-skips
// elsewhere.
#include <gtest/gtest.h>

#if !defined(CA_LOCKDEP_ENABLED)

TEST(LockdepRuntime, InstrumentationRequired) {
  GTEST_SKIP() << "lockdep not compiled in; use a Debug or -DCA_RACE=ON "
                  "build to run the runtime tests";
}

#else  // CA_LOCKDEP_ENABLED

#include <algorithm>
#include <string>
#include <vector>

#include "lockdep/lockdep.hpp"
#include "race/sync.hpp"

namespace ca {
namespace {

using lockdep::LockdepReport;

/// Fresh graph/reports per test; class registrations persist for the
/// process lifetime by design (CA_LOCK_CLASS statics cache the pointers).
class LockdepRuntime : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::reset_for_testing();
    ASSERT_EQ(lockdep::report_count(), 0u);
  }
  void TearDown() override { lockdep::reset_for_testing(); }
};

std::vector<LockdepReport> reports_of_kind(LockdepReport::Kind kind) {
  std::vector<LockdepReport> out;
  for (auto& r : lockdep::take_reports()) {
    if (r.kind == kind) out.push_back(std::move(r));
  }
  return out;
}

TEST_F(LockdepRuntime, NestedAcquireRecordsOrderedEdge) {
  sync::mutex a{CA_LOCK_CLASS("test::edge::A")};
  sync::mutex b{CA_LOCK_CLASS("test::edge::B")};
  {
    sync::lock la(a);
    sync::lock lb(b);
    const auto held = lockdep::held_classes();
    ASSERT_EQ(held.size(), 2u);
    EXPECT_EQ(held[0], "test::edge::A");
    EXPECT_EQ(held[1], "test::edge::B");
  }
  EXPECT_TRUE(lockdep::held_classes().empty());

  const auto edges = lockdep::edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, "test::edge::A");
  EXPECT_EQ(edges[0].to, "test::edge::B");
  // The edge's provenance is this file (the acquire of `lb` above).
  EXPECT_NE(edges[0].site.find("lockdep_runtime_test.cpp"),
            std::string::npos);
  EXPECT_EQ(lockdep::report_count(), 0u);
}

TEST_F(LockdepRuntime, AbbaInversionReportedWithBothChains) {
  sync::mutex a{CA_LOCK_CLASS("test::abba::A")};
  sync::mutex b{CA_LOCK_CLASS("test::abba::B")};
  {
    sync::lock la(a);
    sync::lock lb(b);  // records A -> B
  }
  {
    sync::lock lb(b);
    sync::lock la(a);  // B -> A: cycle against the existing A -> B
  }
  const auto inversions =
      reports_of_kind(LockdepReport::Kind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  const auto& report = inversions.front();
  // Observed chain: holding B, acquiring A.
  ASSERT_EQ(report.chain.size(), 2u);
  EXPECT_EQ(report.chain[0].cls->name, "test::abba::B");
  EXPECT_EQ(report.chain[1].cls->name, "test::abba::A");
  // Conflicting pre-existing path: A -> B.
  ASSERT_EQ(report.conflict.size(), 2u);
  EXPECT_EQ(report.conflict[0].cls->name, "test::abba::A");
  EXPECT_EQ(report.conflict[1].cls->name, "test::abba::B");
  // The rendering names both chains and their sites.
  const std::string text = report.to_string();
  EXPECT_NE(text.find("lock-order inversion"), std::string::npos);
  EXPECT_NE(text.find("test::abba::A"), std::string::npos);
  EXPECT_NE(text.find("test::abba::B"), std::string::npos);
  EXPECT_NE(text.find("lockdep_runtime_test.cpp"), std::string::npos);
}

TEST_F(LockdepRuntime, InversionReportedOnEveryReexecution) {
  // The graph persists (explorer schedules accumulate into it) but each
  // re-execution of the inversion must produce a fresh report, so a hazard
  // is flagged in 100% of schedules, not just the first.
  sync::mutex a{CA_LOCK_CLASS("test::rerun::A")};
  sync::mutex b{CA_LOCK_CLASS("test::rerun::B")};
  for (int round = 0; round < 3; ++round) {
    {
      sync::lock la(a);
      sync::lock lb(b);
    }
    {
      sync::lock lb(b);
      sync::lock la(a);
    }
    const auto inversions =
        reports_of_kind(LockdepReport::Kind::kOrderInversion);
    // Round 0: only the B->A acquire sees a conflicting path.  Later
    // rounds: both nestings conflict with the persisted graph.
    EXPECT_GE(inversions.size(), 1u) << "round " << round;
  }
}

TEST_F(LockdepRuntime, ThreeLockCycleFoundThroughTransitivePath) {
  sync::mutex a{CA_LOCK_CLASS("test::tri::A")};
  sync::mutex b{CA_LOCK_CLASS("test::tri::B")};
  sync::mutex c{CA_LOCK_CLASS("test::tri::C")};
  {
    sync::lock la(a);
    sync::lock lb(b);  // A -> B
  }
  {
    sync::lock lb(b);
    sync::lock lc(c);  // B -> C
  }
  EXPECT_EQ(lockdep::report_count(), 0u);
  {
    sync::lock lc(c);
    sync::lock la(a);  // C -> A closes A -> B -> C -> A
  }
  const auto inversions =
      reports_of_kind(LockdepReport::Kind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  // The conflict path walks the transitive ordering A -> B -> C.
  ASSERT_EQ(inversions.front().conflict.size(), 3u);
  EXPECT_EQ(inversions.front().conflict[0].cls->name, "test::tri::A");
  EXPECT_EQ(inversions.front().conflict[1].cls->name, "test::tri::B");
  EXPECT_EQ(inversions.front().conflict[2].cls->name, "test::tri::C");
}

TEST_F(LockdepRuntime, TrylockAddsNoOrderingEdge) {
  sync::mutex a{CA_LOCK_CLASS("test::trylock::A")};
  sync::mutex b{CA_LOCK_CLASS("test::trylock::B")};
  {
    sync::lock la(a);
    ASSERT_TRUE(b.try_lock());  // held, but no A -> B edge: cannot deadlock
    b.unlock();
  }
  EXPECT_TRUE(lockdep::edges().empty());
  {
    sync::lock lb(b);
    sync::lock la(a);  // would be an inversion if trylock had added an edge
  }
  EXPECT_TRUE(reports_of_kind(LockdepReport::Kind::kOrderInversion).empty());
}

TEST_F(LockdepRuntime, SameClassTwiceOnOneStackIsRecursive) {
  // Two *instances* of one class (e.g. two Transfer::State::mu): holding
  // both on one stack self-deadlocks under the wrong pairing.
  sync::mutex first{CA_LOCK_CLASS("test::recursive::M")};
  sync::mutex second{CA_LOCK_CLASS("test::recursive::M")};
  {
    sync::lock l1(first);
    sync::lock l2(second);
  }
  const auto recursive =
      reports_of_kind(LockdepReport::Kind::kRecursiveClass);
  ASSERT_EQ(recursive.size(), 1u);
  EXPECT_EQ(recursive.front().chain.back().cls->name, "test::recursive::M");
}

TEST_F(LockdepRuntime, HeldAcrossBlockingReported) {
  sync::mutex a{CA_LOCK_CLASS("test::blocking::A")};
  {
    sync::lock la(a);
    CA_LOCKDEP_ON_BLOCKING("test::fake_join");
  }
  const auto blocked =
      reports_of_kind(LockdepReport::Kind::kHeldAcrossBlocking);
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked.front().blocking_op, "test::fake_join");
  ASSERT_EQ(blocked.front().chain.size(), 1u);
  EXPECT_EQ(blocked.front().chain[0].cls->name, "test::blocking::A");

  const auto edges = lockdep::blocking_edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].cls, "test::blocking::A");
  EXPECT_EQ(edges[0].op, "test::fake_join");
}

TEST_F(LockdepRuntime, BlockingWithNothingHeldIsClean) {
  CA_LOCKDEP_ON_BLOCKING("test::fake_join");
  EXPECT_EQ(lockdep::report_count(), 0u);
  EXPECT_TRUE(lockdep::blocking_edges().empty());
}

TEST_F(LockdepRuntime, WaivedClassMayBlockWhileHeld) {
  lockdep::waive_blocking("test::waived::A");
  sync::mutex a{CA_LOCK_CLASS("test::waived::A")};
  {
    sync::lock la(a);
    CA_LOCKDEP_ON_BLOCKING("test::fake_join");
  }
  EXPECT_EQ(lockdep::report_count(), 0u);
  EXPECT_TRUE(lockdep::blocking_edges().empty());
}

TEST_F(LockdepRuntime, CvWaitExcludesItsOwnMutexButNotOthers) {
  sync::mutex outer{CA_LOCK_CLASS("test::cvwait::outer")};
  sync::mutex inner{CA_LOCK_CLASS("test::cvwait::inner")};
  sync::condition_variable cv;
  {
    // Waiting while holding only the waited mutex is the sanctioned
    // pattern: the wait releases it, so nothing is held across the block.
    sync::lock li(inner);
    cv.wait(li, [] { return true; });
  }
  EXPECT_EQ(lockdep::report_count(), 0u);
  {
    // Holding a *second* lock across the wait is the bug.
    sync::lock lo(outer);
    sync::lock li(inner);
    cv.wait(li, [] { return true; });
  }
  const auto blocked =
      reports_of_kind(LockdepReport::Kind::kHeldAcrossBlocking);
  ASSERT_EQ(blocked.size(), 1u);
  ASSERT_EQ(blocked.front().chain.size(), 1u);
  EXPECT_EQ(blocked.front().chain[0].cls->name, "test::cvwait::outer");
}

TEST_F(LockdepRuntime, TakeReportsDrainsButKeepsGraph) {
  sync::mutex a{CA_LOCK_CLASS("test::drain::A")};
  sync::mutex b{CA_LOCK_CLASS("test::drain::B")};
  {
    sync::lock la(a);
    sync::lock lb(b);
  }
  {
    sync::lock lb(b);
    sync::lock la(a);
  }
  EXPECT_GE(lockdep::report_count(), 1u);
  (void)lockdep::take_reports();
  EXPECT_EQ(lockdep::report_count(), 0u);
  // The ordering evidence survives the drain.
  EXPECT_EQ(lockdep::edges().size(), 2u);
}

TEST_F(LockdepRuntime, DumpIsValidStableJsonNamingClassesAndEdges) {
  sync::mutex a{CA_LOCK_CLASS("test::dump::A")};
  sync::mutex b{CA_LOCK_CLASS("test::dump::B")};
  {
    sync::lock la(a);
    sync::lock lb(b);
    CA_LOCKDEP_ON_BLOCKING("test::dump_join");
  }
  const std::string dump = lockdep::dump_graph_json();
  EXPECT_NE(dump.find("\"classes\""), std::string::npos);
  EXPECT_NE(dump.find("\"test::dump::A\""), std::string::npos);
  EXPECT_NE(
      dump.find("{\"from\": \"test::dump::A\", \"to\": \"test::dump::B\""),
      std::string::npos);
  EXPECT_NE(dump.find("\"op\": \"test::dump_join\""), std::string::npos);
  // Byte-stable: the registry is pointer-keyed internally, the dump is not.
  EXPECT_EQ(dump, lockdep::dump_graph_json());
}

}  // namespace
}  // namespace ca

#endif  // CA_LOCKDEP_ENABLED
