#include "ptrprov/ptrprov.hpp"

#if defined(CA_PTRPROV_ENABLED)

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace ca::ptrprov {

namespace {

/// A site compressed to the pieces source_location hands out.  The file
/// name is a string literal (static storage), so keeping the pointer is
/// safe and allocation-free on the access hot path.
struct Site {
  const char* file = "";
  unsigned line = 0;

  [[nodiscard]] std::string str() const {
    return std::string(file) + ":" + std::to_string(line);
  }
};

/// The registry's mirror of one Region's relocation state, keyed on the
/// region's address.  Freed regions leave a tombstone (so a dangling span
/// is reported as use-after-free, not silently forgotten) until the
/// allocator recycles the address and on_region_alloc resets it.
struct RegionState {
  std::uint64_t gen = 0;
  bool freed = false;
  Site mutation_site;       ///< last generation-advancing mutation
  const char* mutation_op = "";
};

/// One recorded PinnedSpan acquisition.
struct SpanRec {
  SpanId id = 0;
  const void* object = nullptr;
  const void* region = nullptr;
  std::string label;
  Site acquire_site;
  std::uint64_t gen_at_acquire = 0;
};

/// How many released spans to remember: a use through a *released* span
/// still names its acquire site as long as the record is in this window.
constexpr std::size_t kRetiredWindow = 1024;

/// All global provenance state, guarded by one plain std::mutex.  The
/// guard must NOT be a ca::sync::mutex: the hooks run inside DataManager
/// mutation paths the race shims already instrument, and an instrumented
/// guard would recurse.
struct Registry {
  std::mutex mu;
  std::unordered_map<const void*, RegionState> regions;
  std::map<SpanId, SpanRec> spans;  ///< live (unreleased) spans
  std::deque<SpanRec> retired;     ///< recently released spans (bounded)
  /// Observed accessor sites, deduplicated by (kind, site) with a count.
  /// Accumulates across explorer schedules, like the lockdep graph.
  std::map<std::pair<std::string, std::string>, std::uint64_t> observed;
  std::vector<ProvenanceReport> reports;
  SpanId next_id = 1;

  static Registry& instance() {
    static Registry* r = new Registry;  // leaked: hooks may run at exit
    return *r;
  }
};

/// The calling thread's stack of held span ids.  Thread-local: only its
/// own thread ever touches it, so no lock is needed.
thread_local std::vector<SpanId> t_spans;

void record_site_locked(Registry& r, const char* kind, const Site& site) {
  ++r.observed[{kind, site.str()}];
}

const char* kind_name(ProvenanceReport::Kind kind) {
  switch (kind) {
    case ProvenanceReport::Kind::kUseAfterRelocate:
      return "use-after-relocate";
    case ProvenanceReport::Kind::kUseAfterFree:
      return "use-after-free";
    case ProvenanceReport::Kind::kUnpinnedExtract:
      return "unpinned-extract";
    case ProvenanceReport::Kind::kUseAfterUnpin:
      return "use-after-unpin";
  }
  return "?";
}

void json_escape(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::string ProvenanceReport::to_string() const {
  std::ostringstream out;
  out << "ptrprov: " << kind_name(kind) << " on '" << object << "'\n";
  out << "  pointer acquired at " << acquire_site;
  if (kind == Kind::kUnpinnedExtract) {
    out << " with pin_count == 0\n";
  } else {
    out << " (generation " << gen_at_acquire << ")\n";
  }
  if (!access_site.empty()) {
    out << "  used at " << access_site << "\n";
  }
  if (!mutation_site.empty()) {
    out << "  invalidated by " << mutation_op << " at " << mutation_site
        << " (generation " << gen_now << ")\n";
  }
  return std::move(out).str();
}

void on_region_alloc(const void* region) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  // Heap addresses recycle (explorer schedules re-run the same workload on
  // a fresh DataManager at the same addresses): a new allocation starts a
  // clean history regardless of what died here before.
  r.regions[region] = RegionState{};
}

void on_region_mutate(const void* region, std::uint64_t new_gen,
                      const char* op, const std::source_location& loc) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  RegionState& rs = r.regions[region];
  rs.gen = new_gen;
  rs.mutation_site = Site{loc.file_name(), loc.line()};
  rs.mutation_op = op;
}

void on_region_free(const void* region, const char* op,
                    const std::source_location& loc) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  RegionState& rs = r.regions[region];
  rs.freed = true;
  ++rs.gen;
  rs.mutation_site = Site{loc.file_name(), loc.line()};
  rs.mutation_op = op;
}

SpanId on_acquire(const void* object, const void* region, std::uint64_t gen,
                  int pin_count, const char* label,
                  const std::source_location& loc) {
  const Site site{loc.file_name(), loc.line()};
  Registry& r = Registry::instance();
  SpanId id = 0;
  {
    std::lock_guard<std::mutex> g(r.mu);
    id = r.next_id++;
    SpanRec rec;
    rec.id = id;
    rec.object = object;
    rec.region = region;
    rec.label = label != nullptr ? label : "";
    rec.acquire_site = site;
    rec.gen_at_acquire = gen;
    record_site_locked(r, "acquire", site);
    if (pin_count <= 0) {
      ProvenanceReport report;
      report.kind = ProvenanceReport::Kind::kUnpinnedExtract;
      report.object = rec.label;
      report.acquire_site = site.str();
      report.gen_at_acquire = gen;
      r.reports.push_back(std::move(report));
    }
    r.spans.emplace(id, std::move(rec));
  }
  t_spans.push_back(id);
  return id;
}

void on_access(SpanId id, int pin_count_now, const std::source_location& loc) {
  if (id == 0) return;
  const Site site{loc.file_name(), loc.line()};
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);

  const auto it = r.spans.find(id);
  if (it == r.spans.end()) {
    // Released (or forgotten) span: the pointer outlived its unpin.
    ProvenanceReport report;
    report.kind = ProvenanceReport::Kind::kUseAfterUnpin;
    report.access_site = site.str();
    report.object = "<released span>";
    report.acquire_site = "<unknown>";
    for (const SpanRec& rec : r.retired) {
      if (rec.id == id) {
        report.object = rec.label;
        report.acquire_site = rec.acquire_site.str();
        report.gen_at_acquire = rec.gen_at_acquire;
        break;
      }
    }
    r.reports.push_back(std::move(report));
    return;
  }

  const SpanRec& rec = it->second;
  const auto rsit = r.regions.find(rec.region);
  const RegionState* rs = rsit != r.regions.end() ? &rsit->second : nullptr;

  ProvenanceReport report;
  report.object = rec.label;
  report.acquire_site = rec.acquire_site.str();
  report.access_site = site.str();
  report.gen_at_acquire = rec.gen_at_acquire;
  if (rs != nullptr && rs->freed) {
    report.kind = ProvenanceReport::Kind::kUseAfterFree;
  } else if (rs != nullptr && rs->gen != rec.gen_at_acquire) {
    report.kind = ProvenanceReport::Kind::kUseAfterRelocate;
  } else if (pin_count_now <= 0) {
    report.kind = ProvenanceReport::Kind::kUseAfterUnpin;
  } else {
    return;  // clean access
  }
  if (rs != nullptr && (rs->freed || rs->gen != rec.gen_at_acquire)) {
    report.mutation_op = rs->mutation_op;
    report.mutation_site = rs->mutation_site.str();
    report.gen_now = rs->gen;
  }
  r.reports.push_back(std::move(report));
}

void on_release(SpanId id) {
  if (id == 0) return;
  for (auto it = t_spans.rbegin(); it != t_spans.rend(); ++it) {
    if (*it == id) {
      t_spans.erase(std::next(it).base());
      break;
    }
  }
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  const auto it = r.spans.find(id);
  if (it == r.spans.end()) return;
  r.retired.push_back(std::move(it->second));
  if (r.retired.size() > kRetiredWindow) r.retired.pop_front();
  r.spans.erase(it);
}

std::vector<ProvenanceReport> take_reports() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  return std::exchange(r.reports, {});
}

std::size_t report_count() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  return r.reports.size();
}

std::vector<SpanInfo> active_spans() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  std::vector<SpanInfo> out;
  out.reserve(r.spans.size());
  for (const auto& [id, rec] : r.spans) {
    SpanInfo info;
    info.id = id;
    info.object = rec.object;
    info.region = rec.region;
    info.label = rec.label;
    info.acquire_site = rec.acquire_site.str();
    info.gen_at_acquire = rec.gen_at_acquire;
    info.gen_now = rec.gen_at_acquire;
    const auto rsit = r.regions.find(rec.region);
    if (rsit != r.regions.end()) {
      info.gen_now = rsit->second.gen;
      info.region_freed = rsit->second.freed;
      if (rsit->second.freed || rsit->second.gen != rec.gen_at_acquire) {
        info.mutation_op = rsit->second.mutation_op;
        info.mutation_site = rsit->second.mutation_site.str();
      }
    }
    out.push_back(std::move(info));
  }
  return out;  // map iteration: already sorted by id (acquire order)
}

std::vector<SpanId> held_spans() { return t_spans; }

std::vector<SiteInfo> observed_sites() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  std::vector<SiteInfo> out;
  out.reserve(r.observed.size());
  for (const auto& [key, count] : r.observed) {
    out.push_back(SiteInfo{key.first, key.second, count});
  }
  // The map is keyed on (kind, site): already deterministically sorted.
  return out;
}

std::string dump_registry_json() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  std::ostringstream out;
  out << "{\n  \"sites\": [";
  bool first = true;
  for (const auto& [key, count] : r.observed) {
    out << (first ? "\n" : ",\n") << "    {\"kind\": ";
    json_escape(out, key.first);
    out << ", \"site\": ";
    json_escape(out, key.second);
    out << ", \"count\": " << count << "}";
    first = false;
  }
  out << "\n  ],\n  \"active_spans\": " << r.spans.size()
      << ",\n  \"pending_reports\": " << r.reports.size() << "\n}\n";
  return std::move(out).str();
}

void reset_for_testing() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> g(r.mu);
  r.regions.clear();
  r.spans.clear();
  r.retired.clear();
  r.observed.clear();
  r.reports.clear();
  r.next_id = 1;
}

}  // namespace ca::ptrprov

#else  // !CA_PTRPROV_ENABLED

// Keep the translation unit non-empty in release builds; the library
// target exists in every configuration.
namespace ca::ptrprov {
namespace {
[[maybe_unused]] constexpr int kPtrprovDisabled = 0;
}  // namespace
}  // namespace ca::ptrprov

#endif  // CA_PTRPROV_ENABLED
