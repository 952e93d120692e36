// comm::CommEngine unit tests: real summation correctness through pinned
// spans, wire/pick accounting, the two-completion discipline (modeled
// times fixed at submit, real completion via join), and shard validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "comm/comm_engine.hpp"
#include "dm/data_manager.hpp"
#include "dm/pinned_span.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::comm {
namespace {

class CommEngineFixture : public ::testing::Test {
 protected:
  CommEngineFixture()
      : platform_(sim::Platform::cascade_lake_scaled(4 * util::MiB,
                                                     16 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  /// A fast-tier gradient object with storage attached.
  dm::Object* make_grad(std::size_t bytes, const char* name) {
    dm::Object* obj = dm_.create_object(bytes, name, {},
                                        dm::ObjectClass::kGradient);
    dm::Region* r = dm_.allocate(sim::kFast, bytes);
    if (r == nullptr) return nullptr;
    dm_.setprimary(*obj, *r);
    return obj;
  }

  void fill(dm::Object& obj, float value) {
    dm::PinnedSpan span = dm_.access(obj, /*write=*/true);
    auto* f = reinterpret_cast<float*>(span.data());
    for (std::size_t i = 0; i < span.size_bytes() / sizeof(float); ++i) {
      f[i] = value + static_cast<float>(i);
    }
  }

  std::vector<float> read(dm::Object& obj) {
    dm::PinnedSpan span = dm_.access(obj, /*write=*/false);
    std::vector<float> out(span.size_bytes() / sizeof(float));
    std::memcpy(out.data(), span.data(), span.size_bytes());
    return out;
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
};

TEST_F(CommEngineFixture, AllreduceSumsAllShardsInPlace) {
  constexpr std::size_t kBytes = 1024;
  constexpr std::size_t kWorkers = 3;
  CommEngine eng(CommConfig{kWorkers, LinkModel::ethernet_scaled(), {}});
  std::vector<dm::Object*> grads;
  std::vector<dm::PinnedSpan> parts;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    dm::Object* g = make_grad(kBytes, "g");
    ASSERT_NE(g, nullptr);
    fill(*g, static_cast<float>(w + 1));
    grads.push_back(g);
    parts.push_back(dm_.access(*g, /*write=*/true));
  }
  Reduction red = eng.allreduce_async(std::move(parts), /*earliest=*/0.0);
  ASSERT_TRUE(red.valid());
  red.join();
  EXPECT_TRUE(red.real_done());
  // Every worker holds the sum: (1+i) + (2+i) + (3+i) = 6 + 3i.
  for (dm::Object* g : grads) {
    const std::vector<float> got = read(*g);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], 6.0f + 3.0f * static_cast<float>(i)) << "i=" << i;
    }
  }
  // The pins dropped with the reduction: the buckets can retire now.
  for (dm::Object* g : grads) {
    EXPECT_FALSE(g->pinned());
    dm_.destroy_object(g);
  }
}

TEST_F(CommEngineFixture, StatsAccountWireBytesPicksAndOccupancy) {
  constexpr std::size_t kBytes = 64 * util::KiB;
  CommEngine eng(CommConfig{2, LinkModel::ethernet_scaled(),
                            Algorithm::kTree});
  for (int i = 0; i < 2; ++i) {
    dm::Object* a = make_grad(kBytes, "a");
    dm::Object* b = make_grad(kBytes, "b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    std::vector<dm::PinnedSpan> parts;
    parts.push_back(dm_.access(*a, /*write=*/true));
    parts.push_back(dm_.access(*b, /*write=*/true));
    eng.allreduce_async(std::move(parts), 0.0).join();
    dm_.destroy_object(a);
    dm_.destroy_object(b);
  }
  const CommStats s = eng.stats();
  EXPECT_EQ(s.reductions, 2u);
  EXPECT_EQ(s.tree_picks, 2u);  // forced
  EXPECT_EQ(s.ring_picks, 0u);
  EXPECT_EQ(s.bytes_on_wire, 2 * wire_bytes(Algorithm::kTree, 2, kBytes));
  EXPECT_GT(s.busy_seconds, 0.0);
  EXPECT_GT(s.last_done, 0.0);
}

TEST_F(CommEngineFixture, PickForcesOrComparesCosts) {
  const LinkModel link = LinkModel::ethernet_scaled();
  CommEngine by_size(CommConfig{8, link, {}});
  EXPECT_EQ(by_size.pick(1024), Algorithm::kTree);  // latency-bound
  EXPECT_EQ(by_size.pick(16 * util::MiB), Algorithm::kRing);
  CommEngine forced(CommConfig{8, link, Algorithm::kRing});
  EXPECT_EQ(forced.pick(1024), Algorithm::kRing);
}

TEST_F(CommEngineFixture, ModeledTimesAreFixedAtSubmitAndChainable) {
  constexpr std::size_t kBytes = 256 * util::KiB;
  const LinkModel link = LinkModel::ethernet_scaled();
  auto run = [&](double earliest0) {
    CommEngine eng(CommConfig{2, link, {}});
    std::vector<double> dones;
    for (int i = 0; i < 3; ++i) {
      dm::Object* a = make_grad(kBytes, "a");
      dm::Object* b = make_grad(kBytes, "b");
      std::vector<dm::PinnedSpan> parts;
      parts.push_back(dm_.access(*a, /*write=*/true));
      parts.push_back(dm_.access(*b, /*write=*/true));
      Reduction r = eng.allreduce_async(std::move(parts), earliest0 + i);
      EXPECT_GE(r.start_time(), earliest0 + i);
      EXPECT_GT(r.done_time(), r.start_time());
      dones.push_back(r.done_time());
      r.join();
      dm_.destroy_object(a);
      dm_.destroy_object(b);
    }
    return dones;
  };
  // Modeled times depend only on the submission sequence, never on host
  // scheduling: two identical sequences agree exactly.
  EXPECT_EQ(run(1.0), run(1.0));
}

TEST_F(CommEngineFixture, ShardValidationRejectsBadInput) {
  CommEngine eng(CommConfig{2, LinkModel::ethernet_scaled(), {}});
  dm::Object* a = make_grad(1024, "a");
  dm::Object* b = make_grad(2048, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  {
    // One shard per worker.
    std::vector<dm::PinnedSpan> one;
    one.push_back(dm_.access(*a, /*write=*/true));
    EXPECT_THROW(eng.allreduce_async(std::move(one), 0.0), Error);
  }
  {
    // Equal sizes.
    std::vector<dm::PinnedSpan> parts;
    parts.push_back(dm_.access(*a, /*write=*/true));
    parts.push_back(dm_.access(*b, /*write=*/true));
    EXPECT_THROW(eng.allreduce_async(std::move(parts), 0.0), Error);
  }
  dm_.destroy_object(a);
  dm_.destroy_object(b);
  // A default Reduction joins as a no-op.
  Reduction idle;
  idle.join();
  EXPECT_TRUE(idle.real_done());
  EXPECT_FALSE(idle.valid());
}

}  // namespace
}  // namespace ca::comm
