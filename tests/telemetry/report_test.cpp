#include "telemetry/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace ca::telemetry {
namespace {

TEST(Csv, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("1.5s"), "1.5s");
}

TEST(Csv, CommasAreQuoted) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(Csv, QuotesAreDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, NewlinesAreQuoted) {
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, TableSerialization) {
  const auto csv = to_csv({{"model", "time"}, {"ResNet 200", "1,000s"}});
  EXPECT_EQ(csv, "model,time\nResNet 200,\"1,000s\"\n");
}

TEST(Csv, EmptyTable) { EXPECT_EQ(to_csv({}), ""); }

TEST(Csv, WriteAndReadBackFile) {
  const std::string path = "/tmp/ca_report_test.csv";
  ASSERT_TRUE(write_csv(path, {{"a", "b"}, {"1", "2"}}));
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathReturnsFalse) {
  EXPECT_FALSE(write_csv("/nonexistent_dir/x.csv", {{"a"}}));
}

TEST(KernelReport, FormatsCountersAndRate) {
  KernelCounters k;
  k.gemm_calls = 12;
  k.gemm_seconds = 0.5;
  k.gemm_flops = 1.0e9;  // 2 GFLOP/s over 0.5 s
  k.im2col_calls = 8;
  k.im2col_seconds = 0.0004;
  k.eltwise_calls = 3;
  const std::string line = format_kernel_report(k);
  EXPECT_NE(line.find("gemm 12 calls"), std::string::npos);
  EXPECT_NE(line.find("2.00 GFLOP/s"), std::string::npos);
  EXPECT_NE(line.find("im2col 8 calls"), std::string::npos);
  EXPECT_NE(line.find("eltwise 3 calls"), std::string::npos);
}

TEST(KernelReport, ZeroTimeHasZeroRate) {
  const std::string line = format_kernel_report(KernelCounters{});
  EXPECT_NE(line.find("0.00 GFLOP/s"), std::string::npos);
}

}  // namespace
}  // namespace ca::telemetry
