// Table III: benchmark networks with batch sizes and the measured
// per-iteration memory footprint (paper: large networks ~520-530 "GB",
// small networks 170-180 "GB"; at 1:1000 scale, MiB).
#include "common.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

// The DRAM tier holds the largest model (~533 MiB) with room to spare.
constexpr std::size_t kDramMib = 768;
constexpr std::size_t kNvramMib = 64;

/// Appends one table row; returns false if the run spilled to NVRAM.
bool row(std::vector<std::vector<std::string>>& rows, const ModelSpec& spec,
         const char* klass) {
  // Measure the true footprint: CA:LM with a DRAM tier large enough that
  // nothing spills; peak resident bytes is the minimum memory needed to
  // train.
  HarnessConfig hc;
  hc.mode = Mode::kCaLM;
  hc.dram_bytes = kDramMib * util::MiB;
  hc.nvram_bytes = kNvramMib * util::MiB;
  hc.backend = dnn::Backend::kSim;
  hc.compute_efficiency = spec.compute_efficiency;
  hc.conv_read_passes = spec.conv_read_passes;
  Harness harness(hc);
  auto model = dnn::build_model(harness.engine(), spec);
  dnn::Trainer trainer(harness, *model);
  const auto m = trainer.run_iteration();

  rows.push_back({klass, spec.name, std::to_string(spec.batch),
                  mib(m.peak_resident_bytes) + " MiB",
                  std::to_string(model->parameter_count() / 1000) + "k",
                  std::to_string(harness.engine().stats().kernels)});
  if (m.nvram.bytes_written == 0) return true;
  std::fprintf(stderr, "table3_models: %s wrote %llu bytes to NVRAM; the "
               "DRAM tier is too small to measure its footprint\n",
               spec.name.c_str(),
               static_cast<unsigned long long>(m.nvram.bytes_written));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Table III",
               "CNN models used as benchmarks; footprint is the measured "
               "minimum memory for one training iteration.\n"
               "Paper: large ~520-530, small 170-180 (GB there, MiB here).",
               tier_config({kDramMib}, kNvramMib));

  std::vector<std::vector<std::string>> rows = {
      {"class", "model", "batch", "footprint", "params", "kernels/iter"}};
  bool fits = true;
  fits &= row(rows, ModelSpec::densenet264_large(), "large");
  fits &= row(rows, ModelSpec::resnet200_large(), "large");
  fits &= row(rows, ModelSpec::vgg416_large(), "large");
  fits &= row(rows, ModelSpec::densenet264_small(), "small");
  fits &= row(rows, ModelSpec::resnet200_small(), "small");
  fits &= row(rows, ModelSpec::vgg116_small(), "small");
  std::fputs(util::render_table(rows).c_str(), stdout);
  maybe_write_csv(argc, argv, "table3_models.csv", rows);
  return fits ? 0 : 1;
}
