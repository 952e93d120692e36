// Shared pieces of the perfbench binary: command-line options, the result
// record every workload fills, host clocks, order statistics and the
// in-memory span recorder of the traced run.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ca::dnn {
struct ModelSpec;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;      ///< 0 = the default seed (Table III batch)
  double seconds = 10.0;       ///< measured host seconds per phase budget
  bool trace = false;          ///< per-layer run instead of end-to-end run
  bool tiny = false;           ///< smoke shape: tiny models and heaps
  std::size_t nvram_mib = 0;   ///< override the NVRAM heap (0 = workload's)
  std::string trace_out;       ///< write the spans here as Chrome trace JSON
};

/// What one invocation reports.  `metrics` holds exactly the end-to-end
/// metrics (untraced run) or exactly the per-layer metrics (traced run).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< printed before the result line

  /// A correctness check failed on an attempted iteration.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

// --- host clocks ------------------------------------------------------------

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
inline double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set size of the process, MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- order statistics ----------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest sample with at least ten samples above it, and the
/// percentile it sits at.  With ten or fewer samples that is the minimum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline Tail tail_percentile(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : 0;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// --- span recorder (traced run only) ------------------------------------------

struct Span {
  const char* name = "";
  double start = 0.0;  ///< host seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     ///< index into Tracer::spans(), -1 = root
  long iteration = -1; ///< -1 = outside the measured iterations
};

/// Spans around the benchmark's own calls into the library, kept in memory
/// until the run ends.  Not thread-safe: the benchmark calls in from one
/// thread.
class Tracer {
 public:
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;

  /// Share of the `root` spans' time not covered by their direct children.
  [[nodiscard]] double unattributed(const std::string& root) const;

  /// Write the spans as Chrome Trace Event JSON (chrome://tracing,
  /// Perfetto).  Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class SpanScope;
  double now() const { return wall_now() - origin_; }

  double origin_ = wall_now();
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Records one span for its lifetime; does nothing without a tracer, so the
/// untraced and traced runs share one code path.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, long iteration = -1) : t_(t) {
    if (t_ == nullptr) return;
    idx_ = static_cast<int>(t_->spans_.size());
    t_->spans_.push_back({name, t_->now(), 0.0, t_->open_, iteration});
    t_->open_ = idx_;
  }
  ~SpanScope() {
    if (t_ == nullptr) return;
    Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
    s.end = t_->now();
    t_->open_ = s.parent;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int idx_ = -1;
};

// --- workloads and probes --------------------------------------------------------

/// Run one workload end to end (trace off) or traced, per `opt.trace`.
/// Throws std::invalid_argument for an unknown workload name.
Result run_workload(const Options& opt);

/// Host-cost probes of the traced run.  All return medians over repeats.
struct TwoLmProbe {
  double construct_s = 0.0;
  double ns_per_block = 0.0;
};
/// DirectMappedCache construction and access() over a seeded stream shaped
/// like `spec`'s tensors, with a `dram`-byte cache in front of `nvram` bytes.
TwoLmProbe probe_twolm(const ca::dnn::ModelSpec& spec, std::size_t dram,
                       std::size_t nvram, std::uint64_t seed, Tracer& tracer);

/// begin_kernel + end_kernel of an LruPolicy holding `live_objects`
/// objects, microseconds per bracket.
double probe_kernel_bracket_us(std::size_t live_objects, std::uint64_t seed,
                               Tracer& tracer);

}  // namespace perfbench
