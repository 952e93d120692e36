// Shared infrastructure for every bench: the figure-reproduction helpers,
// the microbench timer and the BENCH_<name>.json emitter.
//
// Each figure bench reproduces one table or figure from the paper (see
// DESIGN.md §4).  All figure results are in *simulated seconds* on the
// scaled Cascade Lake platform; shapes -- orderings and ratios -- are the
// reproduction target, not absolute numbers (the authors ran on real
// Optane hardware).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "simd/isa.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/format.hpp"

namespace ca::bench {

using dnn::Harness;
using dnn::HarnessConfig;
using dnn::IterationMetrics;
using dnn::Mode;
using dnn::ModelSpec;

/// The paper's operating-mode lineup for Figs. 2, 5 and 6 (§IV).
inline const std::vector<Mode>& all_modes() {
  static const std::vector<Mode> modes = {
      Mode::kTwoLmNone, Mode::kTwoLmM, Mode::kCaNone,
      Mode::kCaL,       Mode::kCaLM,   Mode::kCaLMP,
  };
  return modes;
}

struct RunConfig {
  ModelSpec spec;
  Mode mode = Mode::kCaLM;
  std::size_t dram = 180 * util::MiB;
  std::size_t nvram = 1300 * util::MiB;
  int iterations = 3;  ///< first iteration warms the heaps; later ones are
                       ///< steady state (the paper runs 4 and checks
                       ///< consistency)
  telemetry::TimeSeries* occupancy = nullptr;
};

struct RunResult {
  std::vector<IterationMetrics> iterations;

  /// Steady-state iteration (the last one).
  [[nodiscard]] const IterationMetrics& steady() const {
    return iterations.back();
  }
};

/// Run `iterations` training iterations of `spec` under `mode` and collect
/// per-iteration metrics.
inline RunResult run_training(const RunConfig& cfg) {
  HarnessConfig hc;
  hc.mode = cfg.mode;
  hc.dram_bytes = cfg.dram;
  hc.nvram_bytes = cfg.nvram;
  hc.backend = dnn::Backend::kSim;
  hc.compute_efficiency = cfg.spec.compute_efficiency;
  hc.conv_read_passes = cfg.spec.conv_read_passes;
  Harness harness(hc);
  auto model = dnn::build_model(harness.engine(), cfg.spec);
  model->init(harness.engine(), 1);
  dnn::TrainerOptions opts;
  opts.occupancy = cfg.occupancy;
  dnn::Trainer trainer(harness, *model, opts);
  RunResult result;
  for (int i = 0; i < cfg.iterations; ++i) {
    result.iterations.push_back(trainer.run_iteration());
  }
  return result;
}

/// "DRAM <d1/d2/...> MiB, NVRAM <n> MiB": the tier sizes a bench runs on,
/// for the Config: line of print_header.
inline std::string tier_config(const std::vector<std::size_t>& dram_mib,
                               std::size_t nvram_mib) {
  std::string out = "DRAM ";
  for (std::size_t i = 0; i < dram_mib.size(); ++i) {
    if (i > 0) out += '/';
    out += std::to_string(dram_mib[i]);
  }
  return out + " MiB, NVRAM " + std::to_string(nvram_mib) + " MiB";
}

/// The Config: text of a bench on the paper's Cascade Lake tiers.
inline std::string default_config() {
  const auto platform = sim::Platform::cascade_lake_default();
  return "DRAM " +
         util::format_bytes(platform.spec(sim::kFast).capacity) +
         ", NVRAM " +
         util::format_bytes(platform.spec(sim::kSlow).capacity) +
         " (2LM modes: DRAM acts as the hardware cache)";
}

/// `config` names the tier sizes the bench runs on.
inline void print_header(const char* figure, const char* description,
                         const std::string& config = default_config()) {
  std::printf("=== %s ===\n%s\n", figure, description);
  std::printf(
      "Platform: %s\n"
      "Config: %s\nAll times are simulated seconds; reproduce shapes, not "
      "absolute numbers.\n\n",
      sim::Platform::cascade_lake_default().scale_note, config.c_str());
}

/// The output directory: the first non-flag argument, or nullptr.
inline const char* output_dir(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') return argv[i];
  }
  return nullptr;
}

/// Best-effort CSV export: every bench accepts an optional output
/// directory as its first non-flag argument; tables are written there as
/// <name>.csv.
inline void maybe_write_csv(int argc, char** argv, const char* name,
                            const std::vector<std::vector<std::string>>& rows) {
  const char* dir = output_dir(argc, argv);
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name;
  if (telemetry::write_csv(path, rows)) {
    std::printf("[csv] wrote %s\n", path.c_str());
  } else {
    std::printf("[csv] could not write %s\n", path.c_str());
  }
}

/// Exits 1, naming `what`, unless iteration `m` kept at most the runtime's
/// GC trigger fraction of `nvram` bytes resident.  Benches that give the
/// NVRAM tier less than the paper's 1300 MiB (fewer pages for the kernel to
/// zero) call it after every iteration: when it holds, the tier fits every
/// resident byte and the capacity-based GC trigger never fires, so the
/// smaller tier leaves every simulated number unchanged.
inline void require_nvram_headroom(const IterationMetrics& m,
                                   std::size_t nvram, const std::string& what) {
  const double limit =
      core::RuntimeOptions{}.gc_trigger_fraction * static_cast<double>(nvram);
  if (static_cast<double>(m.peak_resident_bytes) <= limit) return;
  std::fprintf(stderr, "%s: %zu bytes resident, more than %.0f of the "
               "%zu-byte NVRAM tier may hold; give the bench a larger tier\n",
               what.c_str(), m.peak_resident_bytes, limit, nvram);
  std::exit(1);
}

inline std::string mib(std::uint64_t bytes) {
  return util::format_fixed(static_cast<double>(bytes) / (1024.0 * 1024.0),
                            0);
}

/// Throughput of `bytes` moved in `seconds`, in GiB/s (0 for no time).
inline double gib_per_s(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / seconds / (1024.0 * 1024.0 * 1024.0) : 0.0;
}

/// Host wall-clock stopwatch, for reporting real elapsed time next to the
/// simulated seconds (the async mover moves real bytes in the background,
/// so the two can diverge in interesting ways).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Best of `reps` timed runs: `fn()` runs one rep, times its own span and
/// returns the seconds, so per-rep set-up stays outside the measurement.
template <class Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) best = std::min(best, fn());
  return best;
}

/// Best-of-`reps` seconds per call of `body`, timed over `iters` calls.
template <class Fn>
double time_per_op(int reps, std::size_t iters, Fn&& body) {
  return best_seconds(reps,
                      [&] {
                        WallTimer wall;
                        for (std::size_t i = 0; i < iters; ++i) body();
                        return wall.seconds();
                      }) /
         static_cast<double>(iters);
}

/// Keeps the compiler from discarding `value` or the loads behind it.
template <class T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Which way a BENCH row's value improves.
enum class Better { kLower, kHigher };

/// One typed row of BENCH_<name>.json, with the field names perfbench's
/// manifest uses.
struct BenchRecord {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< "s", "ops/s", "GiB/s", "B", "count", "ratio", ...
  Better better = Better::kLower;
};

/// Escape a string for inclusion in a JSON document.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// True when `flag` (e.g. "--smoke") appears among the arguments.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// Percentile of `samples` (p in [0, 1]) without interpolation: the sorted
/// sample at index floor(p * (n - 1)), so p99 of 10 samples is the 9th
/// smallest, not the maximum; 0 for no samples.  Sorts in place.  Every
/// bench reporting a latency tail uses this one definition so p99 means
/// the same thing in every BENCH_*.json.
inline double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

/// Accumulates one bench's BENCH_<name>.json rows, so every bench shares
/// one emitter.  Acceptance rows are named "speedup: <what>"
/// (unit "ratio", higher is better), so CI greps one name shape across
/// every bench.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void add(std::string metric, double value, std::string unit,
           Better better) {
    records_.push_back(
        {std::move(metric), value, std::move(unit), better});
  }

  /// Prints every row as "name  value unit" (the microbenches' console
  /// table).
  void print() const {
    for (const auto& r : records_) {
      std::printf("%-48s %14.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }

  /// Emits BENCH_<name>.json -- BENCH_<name>.smoke.json under --smoke, so
  /// a smoke run never overwrites a full-run file -- into the output
  /// directory (default ".").  Returns the JSON path, or "" when it could
  /// not be written.
  std::string write(int argc, char** argv) const {
    const bool smoke = has_flag(argc, argv, "--smoke");
    const char* dir = output_dir(argc, argv);
    const std::string path = std::string(dir != nullptr ? dir : ".") +
                             "/BENCH_" + name_ +
                             (smoke ? ".smoke.json" : ".json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("[json] could not write %s\n", path.c_str());
      return "";
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"isa\": \"%s\",\n"
                 "  \"hw_threads\": %u,\n  \"smoke\": %s,\n"
                 "  \"results\": [\n",
                 json_escape(name_).c_str(),
                 simd::level_name(simd::active_level()),
                 std::thread::hardware_concurrency(),
                 smoke ? "true" : "false");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.9g, \"unit\": \"%s\", "
                   "\"better\": \"%s\"}%s\n",
                   json_escape(r.name).c_str(), r.value,
                   json_escape(r.unit).c_str(),
                   r.better == Better::kLower ? "lower" : "higher",
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string name_;
  std::vector<BenchRecord> records_;
};

}  // namespace ca::bench
