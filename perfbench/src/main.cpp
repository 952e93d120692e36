// perfbench: run one workload and print its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--nvram-mib <n>]
//             [--trace-out <file.json>]
//
// Human-readable lines first, then one JSON line with the raw result:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: value}}.
// perfbench/run.py builds this binary, attaches units and prints the
// benchmark's result line.  Exit code 0 whenever a result was printed, 2 on
// a usage error, 1 on an unknown workload.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "simd/isa.hpp"

namespace perfbench {

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::unattributed(const std::string& root) const {
  double root_s = 0.0;
  double child_s = 0.0;
  for (const Span& s : spans_) {
    if (root == s.name) root_s += s.end - s.start;
    if (s.parent >= 0 && root == spans_[static_cast<std::size_t>(s.parent)].name) {
      child_s += s.end - s.start;
    }
  }
  return root_s > 0.0 ? (root_s - child_s) / root_s : 0.0;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"iteration\": %ld}}%s\n",
                 s.name, s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 s.iteration, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--nvram-mib <n>] "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--nvram-mib") {
        opt.nvram_mib = std::stoull(val);
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  std::printf("meta: nproc %u, isa %s, build %s, shape %s\n",
              std::thread::hardware_concurrency(),
              ca::simd::level_name(ca::simd::active_level()), PERFBENCH_BUILD_TYPE,
              opt.tiny ? "tiny" : "full");
  std::fflush(stdout);

  perfbench::Result res;
  try {
    res = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (auto& [name, value] : res.metrics) {
    // JSON has no NaN or infinity.
    if (!std::isfinite(value)) {
      res.check(false, name + " is not finite");
      value = 0.0;
    }
  }
  for (const auto& n : res.notes) std::printf("%s\n", n.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  for (const auto& [name, value] : res.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
