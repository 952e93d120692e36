// BenchReport, the one BENCH_<name>.json emitter every bench shares: typed
// rows, the run header, JSON escaping and the smoke file name; the
// percentile every latency-tail row uses; and the figure banner's Config:
// line.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace ca::bench {
namespace {

namespace fs = std::filesystem;

class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "bench_report_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes `report` as a run with `flag` and the temp dir as its output
  /// directory; returns the path written.
  std::string write(const BenchReport& report, const char* flag) {
    std::string prog = "bench", flag_arg = flag, dir = dir_.string();
    char* argv[] = {prog.data(), flag_arg.data(), dir.data()};
    return report.write(3, argv);
  }

  static std::string slurp(const std::string& path) {
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(BenchReportTest, RowsAreTypedAndHeaderIsPresent) {
  BenchReport report("unit");
  report.add("copy 64 KiB", 0.25, "s", Better::kLower);
  report.add("speedup: new vs old", 3.5, "ratio", Better::kHigher);
  const std::string path = write(report, "--trace");
  EXPECT_EQ(path, (dir_ / "BENCH_unit.json").string());
  const std::string json = slurp(path);
  const std::string isa = simd::level_name(simd::active_level());
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"isa\": \"" + isa + "\""), std::string::npos);
  EXPECT_NE(json.find("\"hw_threads\": "), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": false"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"copy 64 KiB\", \"value\": 0.25, "
                      "\"unit\": \"s\", \"better\": \"lower\"},"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"speedup: new vs old\", \"value\": 3.5, "
                      "\"unit\": \"ratio\", \"better\": \"higher\"}\n"),
            std::string::npos);
}

TEST_F(BenchReportTest, NamesAreEscaped) {
  BenchReport report("unit");
  report.add("a \"quoted\"\nname\\", 1.0, "count", Better::kLower);
  const std::string json = slurp(write(report, "--trace"));
  EXPECT_NE(json.find(R"("name": "a \"quoted\"\u000aname\\")"),
            std::string::npos)
      << json;
}

TEST_F(BenchReportTest, SmokeRunWritesTheSmokeName) {
  BenchReport report("unit");
  report.add("x", 1.0, "s", Better::kLower);
  const std::string path = write(report, "--smoke");
  EXPECT_EQ(path, (dir_ / "BENCH_unit.smoke.json").string());
  EXPECT_FALSE(fs::exists(dir_ / "BENCH_unit.json"));
  EXPECT_NE(slurp(path).find("\"smoke\": true"), std::string::npos);
}

TEST_F(BenchReportTest, PercentileTakesTheFloorIndex) {
  std::vector<double> samples = {10, 3, 7, 1, 9, 2, 8, 5, 4, 6};
  EXPECT_EQ(percentile(samples, 0.5), 5.0);   // index floor(0.5 * 9) = 4
  EXPECT_EQ(percentile(samples, 0.99), 9.0);  // index floor(0.99 * 9) = 8
  std::vector<double> none;
  EXPECT_EQ(percentile(none, 0.99), 0.0);
}

TEST(PrintHeader, ConfigNamesTheTiersTheBenchRuns) {
  ::testing::internal::CaptureStdout();
  print_header("Table III", "footprints", tier_config({768}, 64));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("Config: DRAM 768 MiB, NVRAM 64 MiB\n"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace ca::bench
