// The sanctioned routes stay clean: every data access the code base
// actually ships -- CachedArray with_read/with_write and the DNN engine's
// argument spans -- runs through the
// provenance analyzer without a single report, and leaves behind exactly
// the observed-site ledger docs/pointer_provenance.json declares (the
// tools/manifest_check.py prov runtime diff consumes the dump this suite
// writes when CA_PTRPROV_DUMP is set).
//
// Needs any CA_PTRPROV_ENABLED build; self-skips elsewhere.
#include <gtest/gtest.h>

#include "ptrprov/ptrprov.hpp"

#if !defined(CA_PTRPROV_ENABLED)

TEST(PtrprovRoutes, InstrumentationRequired) {
  GTEST_SKIP() << "CA_PTRPROV_ENABLED not compiled in; use a Debug or "
                  "-DCA_RACE=ON build to run the provenance route tests";
}

#else  // CA_PTRPROV_ENABLED

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "core/cached_array.hpp"
#include "core/runtime.hpp"
#include "dnn/engine.hpp"
#include "dnn/harness.hpp"
#include "policy/lru_policy.hpp"
#include "util/align.hpp"

namespace ca {
namespace {

core::Runtime::PolicyFactory lru_factory() {
  return [](dm::DataManager& dm) {
    return std::make_unique<policy::LruPolicy>(dm, policy::LruPolicyConfig{});
  };
}

sim::Platform small_platform() {
  return sim::Platform::cascade_lake_scaled(256 * util::KiB, 1 * util::MiB);
}

dnn::HarnessConfig real_cfg() {
  dnn::HarnessConfig cfg;
  cfg.mode = dnn::Mode::kCaLM;
  cfg.dram_bytes = 8 * util::MiB;
  cfg.nvram_bytes = 32 * util::MiB;
  cfg.backend = dnn::Backend::kReal;
  return cfg;
}

/// Exercise every sanctioned accessor route in one process so the
/// observed-site ledger matches what the manifest declares.
void run_sanctioned_workloads() {
  // Route 1: CachedArray bracketed access (PinnedSpan under the hood),
  // including a policy-driven defragment between brackets -- fresh spans
  // see the new generation, so this must be silent.
  {
    core::Runtime rt(small_platform(), lru_factory());
    core::CachedArray<float> a(rt, 4096, "route");
    a.with_write([](std::span<float> s) {
      for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = static_cast<float>(i);
      }
    });
    rt.defragment_all();
    a.with_read([](std::span<const float> s) {
      EXPECT_FLOAT_EQ(s[1], 1.0f);
      EXPECT_FLOAT_EQ(s[4095], 4095.0f);
    });
  }
  // Route 2: the DNN engine's per-argument spans.
  {
    dnn::Harness h(real_cfg());
    auto& e = h.engine();
    dnn::Tensor x = e.tensor({64});
    e.fill_const(x, 1.5f);
    dnn::Tensor y = e.relu(x);
    y.array().with_read([](std::span<const float> s) {
      for (const float v : s) EXPECT_FLOAT_EQ(v, 1.5f);
    });
  }
}

TEST(PtrprovRoutes, SanctionedWorkloadsProduceNoReports) {
  ptrprov::reset_for_testing();
  run_sanctioned_workloads();
  const auto reports = ptrprov::take_reports();
  for (const auto& report : reports) {
    ADD_FAILURE() << "unexpected provenance report: " << report.to_string();
  }
  EXPECT_TRUE(ptrprov::active_spans().empty());
}

TEST(PtrprovRoutes, ObservedSitesCoverTheDeclaredAccessors) {
  ptrprov::reset_for_testing();
  run_sanctioned_workloads();
  // The span-acquire sites land on the sanctioned accessors in src/.
  bool saw_cached_array = false;  // src/core/cached_array.hpp (acquire)
  bool saw_engine = false;        // src/dnn/engine.cpp (acquire)
  for (const auto& site : ptrprov::observed_sites()) {
    if (site.kind == "acquire" &&
        site.site.find("src/core/cached_array.hpp") != std::string::npos) {
      saw_cached_array = true;
    }
    if (site.kind == "acquire" &&
        site.site.find("src/dnn/engine.cpp") != std::string::npos) {
      saw_engine = true;
    }
  }
  EXPECT_TRUE(saw_cached_array);
  EXPECT_TRUE(saw_engine);
}

TEST(PtrprovRoutes, DumpObservedSitesWhenRequested) {
  // tools/check.sh sets CA_PTRPROV_DUMP and feeds the file to
  // tools/manifest_check.py prov --dump for the manifest <-> runtime diff.
  const char* path = std::getenv("CA_PTRPROV_DUMP");
  if (path == nullptr || path[0] == '\0') {
    GTEST_SKIP() << "CA_PTRPROV_DUMP not set";
  }
  ptrprov::reset_for_testing();
  run_sanctioned_workloads();
  const std::string dump = ptrprov::dump_registry_json();
  std::FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << "cannot open " << path;
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fclose(f);
}

}  // namespace
}  // namespace ca

#endif  // CA_PTRPROV_ENABLED
