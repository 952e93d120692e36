// Ablation: asynchronous data movement (paper §V-c future work).
//
// Fig. 7 projects what CachedArrays would gain "if [it] had perfectly
// asynchronous data movement (as opposed to purely synchronous) and could
// overlap movement with execution".  This repository implements that
// mover; here we contrast four configurations:
//   sync        CA:LMP, every copy synchronous (the paper's system)
//   serialized  async movement on ONE mover channel (prefetch, write-behind
//               eviction and look-ahead all enabled, but every transfer
//               queues behind every other -- the pre-channel baseline)
//   multi       async movement on the default 4 channels, split between
//               the fetch and writeback directions, plus look-ahead
//               prefetch along the archive trace
//   project     the Fig. 7 lower bound: sync time minus all synchronous
//               movement time (perfect overlap of everything)
// Expectation: multi < serialized < sync, with multi approaching (never
// beating) the projection.  Both simulated and host wall-clock seconds are
// reported: the mover moves real bytes on background threads, so scheduling
// cost on the caller thread is size-independent.
//
// Runs the paper's large-model shape plus a small-model DRAM sweep.
// `--smoke` switches to tiny shapes / one iteration for the bench-smoke
// ctest label.
#include "common.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

struct Outcome {
  IterationMetrics steady;
  double wall_seconds = 0.0;
};

Outcome run(const ModelSpec& spec, std::size_t dram_mib, std::size_t nvram_mib,
            bool async, std::size_t channels, int iterations) {
  dnn::HarnessConfig hc;
  hc.mode = Mode::kCaLMP;  // prefetch-heavy: the overlappable mode
  hc.dram_bytes = dram_mib * util::MiB;
  hc.nvram_bytes = nvram_mib * util::MiB;
  hc.backend = dnn::Backend::kSim;
  hc.compute_efficiency = spec.compute_efficiency;
  hc.conv_read_passes = spec.conv_read_passes;
  hc.async_movement = async;
  hc.mover_channels = channels;
  hc.prefetch_distance = async ? 2 : 0;
  WallTimer wall;
  dnn::Harness h(hc);
  auto model = dnn::build_model(h.engine(), spec);
  dnn::Trainer t(h, *model);
  Outcome out;
  for (int i = 0; i < iterations; ++i) {
    out.steady = t.run_iteration();
    require_nvram_headroom(out.steady, hc.nvram_bytes,
                           spec.name + " at " + std::to_string(dram_mib) +
                               " MiB DRAM");
  }
  out.wall_seconds = wall.seconds();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  // Large-model shape: VGG-416 keeps ~580 MiB resident at most; 768 MiB
  // holds it with the headroom run() checks, in place of the paper's
  // 1300 MiB.  Sweep: the small networks keep at most ~210 MiB resident.
  const std::size_t large_dram = smoke ? 8 : 180;
  const std::size_t large_nvram = smoke ? 96 : 768;
  const auto sweep_drams = smoke ? std::vector<std::size_t>{24}
                                 : std::vector<std::size_t>{36, 72, 144};
  const std::size_t sweep_nvram = smoke ? 96 : 320;
  print_header("Ablation: asynchronous data movement",
               "Serialized (1-channel) vs multi-channel background mover vs "
               "synchronous copies vs the Fig. 7 projection.",
               "large-model shape " +
                   tier_config({large_dram}, large_nvram) + "; sweep " +
                   tier_config(sweep_drams, sweep_nvram));

  BenchReport report("ablation_async");
  // One outcome as three rows: steady-state simulated seconds, host wall
  // seconds for the whole run, and bytes moved in the steady iteration.
  const auto add = [&](const std::string& label, const Outcome& o) {
    report.add("sim s: " + label, o.steady.seconds, "s", Better::kLower);
    report.add("wall s: " + label, o.wall_seconds, "s", Better::kLower);
    report.add("bytes moved: " + label,
               static_cast<double>(o.steady.dram.total() +
                                   o.steady.nvram.total()),
               "B", Better::kLower);
  };
  bool ordering_holds = true;

  // --- Large-model shape (the paper's headline configuration) --------------
  {
    const ModelSpec spec =
        smoke ? ModelSpec::vgg_tiny() : ModelSpec::vgg416_large();
    const int iters = smoke ? 1 : 2;
    std::printf("--- %s (large-model shape%s) ---\n", spec.name.c_str(),
                smoke ? ", smoke" : "");

    const Outcome sync = run(spec, large_dram, large_nvram, false, 4, iters);
    const Outcome serial = run(spec, large_dram, large_nvram, true, 1, iters);
    const Outcome multi = run(spec, large_dram, large_nvram, true, 4, iters);
    const double projection =
        sync.steady.seconds - sync.steady.movement_seconds;

    std::vector<std::vector<std::string>> rows = {
        {"config", "simulated", "wall", "async stall", "overlap hidden"}};
    const auto row = [&](const char* label, const Outcome& o) {
      rows.push_back({label, util::format_fixed(o.steady.seconds, 1) + "s",
                      util::format_fixed(o.wall_seconds, 2) + "s",
                      util::format_fixed(o.steady.async_stall_seconds, 1) +
                          "s",
                      util::format_fixed(o.steady.async_overlap_seconds, 1) +
                          "s"});
      add(spec.name + "/" + label, o);
    };
    row("sync", sync);
    row("serialized", serial);
    row("multi-channel", multi);
    rows.push_back({"projection", util::format_fixed(projection, 1) + "s",
                    "-", "-", "-"});
    std::fputs(util::render_table(rows).c_str(), stdout);

    // Acceptance gate for the full run only: with smoke shapes there may be
    // too little movement for the channels to matter.
    ordering_holds =
        smoke || multi.steady.seconds < serial.steady.seconds;
    std::printf("multi-channel %s serialized baseline (%.3fs vs %.3fs)\n\n",
                multi.steady.seconds < serial.steady.seconds
                    ? "beats"
                    : "DOES NOT beat",
                multi.steady.seconds, serial.steady.seconds);
  }

  // --- Small-model DRAM sweep ----------------------------------------------
  const auto sweep_specs =
      smoke ? std::vector<ModelSpec>{ModelSpec::densenet_tiny()}
            : std::vector<ModelSpec>{ModelSpec::densenet264_small(),
                                     ModelSpec::vgg116_small()};
  for (const auto& spec : sweep_specs) {
    std::printf("--- %s (sweep) ---\n", spec.name.c_str());
    std::vector<std::vector<std::string>> rows = {
        {"DRAM (MiB)", "sync", "serialized", "multi", "projection",
         "overlap recovered"}};
    const int iters = smoke ? 1 : 2;
    for (const std::size_t dram : sweep_drams) {
      const Outcome sync = run(spec, dram, sweep_nvram, false, 4, iters);
      const Outcome serial = run(spec, dram, sweep_nvram, true, 1, iters);
      const Outcome multi = run(spec, dram, sweep_nvram, true, 4, iters);
      const double projection =
          sync.steady.seconds - sync.steady.movement_seconds;
      const double denom = sync.steady.seconds - projection;
      const double recovered =
          denom > 0.0
              ? (sync.steady.seconds - multi.steady.seconds) / denom
              : 0.0;
      rows.push_back({std::to_string(dram),
                      util::format_fixed(sync.steady.seconds, 1) + "s",
                      util::format_fixed(serial.steady.seconds, 1) + "s",
                      util::format_fixed(multi.steady.seconds, 1) + "s",
                      util::format_fixed(projection, 1) + "s",
                      util::format_fixed(100.0 * recovered, 0) + "%"});
      add(spec.name + "/" + std::to_string(dram) + "MiB/multi", multi);
    }
    std::fputs(util::render_table(rows).c_str(), stdout);
    std::printf("\n");
  }

  report.write(argc, argv);
  return ordering_holds ? 0 : 1;
}
