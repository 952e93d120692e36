// Fig. 7: runtime of one training iteration for the small networks as the
// DRAM budget shrinks from 180 MiB (everything fits) to 0 (NVRAM only),
// in CA:LM mode.  Two series per network: measured wall clock, and the
// projection with perfectly asynchronous data movement (wall clock minus
// synchronous movement time).
//
// Expected shapes (paper §V-c/d):
//   * NVRAM-only is a 3-4x penalty (kernels write NVRAM with regular
//     stores; only the copy engine has the non-temporal fast path);
//   * the async projection is nearly flat for DenseNet/ResNet but still
//     degrades for VGG (its kernels are read-bandwidth sensitive);
//   * even a modest DRAM budget recovers most of the lost performance.
#include "common.hpp"

using namespace ca;
using namespace ca::bench;

int main(int argc, char** argv) {
  const std::vector<std::size_t> budgets_mib = {0, 18, 36, 72, 108, 144, 180};
  // No cell keeps more than ~210 MiB resident, so a 320 MiB NVRAM tier in
  // place of the paper's 1300 MiB holds everything (checked per iteration)
  // and spares the kernel zeroing the rest.
  const std::size_t nvram_mib = 320;
  const std::size_t nvram = nvram_mib * util::MiB;
  print_header("Figure 7",
               "Small-network iteration time vs DRAM budget (CA:LM; 0 = "
               "NVRAM only).\n'async' projects perfectly overlapped data "
               "movement (time minus synchronous movement).",
               tier_config(budgets_mib, nvram_mib));

  const std::vector<ModelSpec> models = {ModelSpec::densenet264_small(),
                                         ModelSpec::resnet200_small(),
                                         ModelSpec::vgg116_small()};

  for (const auto& spec : models) {
    std::printf("--- %s (small) ---\n", spec.name.c_str());
    std::vector<std::vector<std::string>> rows = {
        {"DRAM (MiB)", "wall clock", "async projection", "NVRAM read",
         "NVRAM write"}};
    double nvram_only = 0.0;
    double full_dram = 0.0;
    for (const std::size_t budget : budgets_mib) {
      RunConfig cfg;
      cfg.spec = spec;
      cfg.mode = budget == 0 ? Mode::kNvramOnly : Mode::kCaLM;
      cfg.dram = budget * util::MiB;
      cfg.nvram = nvram;
      const RunResult run = run_training(cfg);
      for (const auto& it : run.iterations) {
        require_nvram_headroom(it, nvram, spec.name + " at " +
                                              std::to_string(budget) +
                                              " MiB DRAM");
      }
      const IterationMetrics& m = run.steady();
      rows.push_back({std::to_string(budget),
                      util::format_fixed(m.seconds, 1) + "s",
                      util::format_fixed(m.seconds - m.movement_seconds, 1) +
                          "s",
                      mib(m.nvram.bytes_read), mib(m.nvram.bytes_written)});
      if (budget == 0) nvram_only = m.seconds;
      if (budget == 180) full_dram = m.seconds;
    }
    std::fputs(util::render_table(rows).c_str(), stdout);
    maybe_write_csv(argc, argv,
                    ("fig7_" + spec.name + ".csv").c_str(), rows);
    std::printf("NVRAM-only penalty vs full DRAM: %.1fx (paper: 3-4x)\n\n",
                nvram_only / full_dram);
  }
  return 0;
}
