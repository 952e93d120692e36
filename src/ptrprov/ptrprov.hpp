// ca::ptrprov — pointer-provenance and pin-discipline analysis for the
// managed heap, the relocation-side sibling of ca::lockdep.
//
// The defining hazard of CachedArrays is that region bytes *move*:
// `evictfrom` and `defragment` relocate live regions while kernels hold raw
// pointers obtained from `Region::data()`, guarded only by the paper's
// §III-C pin discipline (`Object::pinned()`).  This subsystem makes that
// discipline checkable:
//
//   * every Region carries a generation counter the DataManager bumps when
//     the region's bytes move or its storage is freed; the registry mirrors
//     it per region address (on_region_alloc / on_region_mutate /
//     on_region_free);
//
//   * the sanctioned accessor (dm::PinnedSpan, from DataManager::access)
//     records (pointer, generation, pin token, source_location) on acquire
//     and checks every dereference against the mirror: a pointer whose
//     region generation has advanced is a use-after-relocate, a freed
//     region is a use-after-free, a span outliving its pin is a
//     use-after-unpin, and raw extraction with pin_count == 0 is an
//     unpinned-extract — each a structured ProvenanceReport naming the
//     acquire site and the mutation site that invalidated it;
//
//   * the set of observed acquire sites accumulates across ca::race
//     explorer schedules, and tools/manifest_check.py prov diffs it against
//     the manifest in docs/pointer_provenance.json (the static half: the
//     region-data-route ca_lint rule confines bare Region::data() calls to
//     the same manifest).
//
// Reports are drained per explorer schedule (take_reports) so a hazard is
// flagged in every schedule that executes it; the observed-site table, like
// the lockdep graph, accumulates for the runtime dump.
//
// Enabled in Debug and CA_RACE builds (CA_PTRPROV_ENABLED, set by the
// top-level CMakeLists); everywhere else every hook compiles to an empty
// inline and PinnedSpan::data() is a plain pointer load.  The subsystem
// depends on the C++ standard library only: dm/object.hpp sits above it in
// the tree, so regions and objects appear here as opaque const void*.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ca::ptrprov {

#if defined(CA_PTRPROV_ENABLED)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

using SpanId = std::uint64_t;

}  // namespace ca::ptrprov

#if defined(CA_PTRPROV_ENABLED)

#include <source_location>
#include <string>
#include <vector>

namespace ca::ptrprov {

/// A structured provenance finding.
struct ProvenanceReport {
  enum class Kind : std::uint8_t {
    kUseAfterRelocate = 0,  ///< access through a pointer whose region moved
    kUseAfterFree = 1,      ///< access through a pointer whose region is gone
    kUnpinnedExtract = 2,   ///< raw pointer extracted while pin_count == 0
    kUseAfterUnpin = 3,     ///< pointer used after its pin was dropped
  };

  Kind kind = Kind::kUseAfterRelocate;
  std::string object;        ///< the object's name/label
  std::string acquire_site;  ///< "file:line" where the pointer was obtained
  std::string access_site;   ///< "file:line" of the flagged use (may be empty)
  std::string mutation_op;   ///< "defragment", "evictfrom", "free", ...
  std::string mutation_site; ///< "file:line" of the invalidating mutation
  std::uint64_t gen_at_acquire = 0;
  std::uint64_t gen_now = 0;

  [[nodiscard]] std::string to_string() const;
};

/// One live (acquired, not yet released) span, joined with the current
/// state of its region — the view ca::audit's prov.* invariants consume.
struct SpanInfo {
  SpanId id = 0;
  const void* object = nullptr;
  const void* region = nullptr;
  std::string label;
  std::string acquire_site;
  std::uint64_t gen_at_acquire = 0;
  std::uint64_t gen_now = 0;
  bool region_freed = false;
  std::string mutation_op;    ///< last invalidating op, when stale/freed
  std::string mutation_site;
};

/// One observed sanctioned-accessor site (deduplicated, with a hit count),
/// for dumps and the manifest diff.  `kind` is "acquire".
struct SiteInfo {
  std::string kind;
  std::string site;
  std::uint64_t count = 0;
};

// --- hooks (called by the DataManager and dm::PinnedSpan) -------------------

/// `region`'s storage was (re)allocated: reset any tombstone recorded at
/// this address (heap addresses are recycled across explorer schedules).
void on_region_alloc(const void* region);

/// `region`'s bytes moved in place (defragment compaction): its generation
/// advanced to `new_gen`; every outstanding pointer into it is stale.
void on_region_mutate(const void* region, std::uint64_t new_gen,
                      const char* op, const std::source_location& loc);

/// `region`'s storage was released (`op` names the path: free, evictfrom,
/// destroy_object).  A tombstone is kept until the address is re-allocated.
void on_region_free(const void* region, const char* op,
                    const std::source_location& loc);

/// A PinnedSpan was acquired on `region` (generation `gen`, owning object
/// pinned `pin_count` times).  Returns the span's id.  pin_count <= 0 is an
/// unpinned-extract report on the spot.
SpanId on_acquire(const void* object, const void* region,
                  std::uint64_t gen, int pin_count, const char* label,
                  const std::source_location& loc);

/// The span `id` dereferenced its pointer; `pin_count_now` is the owning
/// object's current pin count.  Checks, in order of severity:
/// use-after-free, use-after-relocate, use-after-unpin.
void on_access(SpanId id, int pin_count_now, const std::source_location& loc);

/// The span `id` was released (unpin).  Accessing it afterwards reports
/// use-after-unpin.
void on_release(SpanId id);

// --- findings / introspection ----------------------------------------------

/// Drain the accumulated reports (regions, spans and observed sites stay).
std::vector<ProvenanceReport> take_reports();
[[nodiscard]] std::size_t report_count();

/// Snapshot of every live span joined with its region's current state.
[[nodiscard]] std::vector<SpanInfo> active_spans();

/// Span ids currently held by the calling thread (acquire order).
[[nodiscard]] std::vector<SpanId> held_spans();

/// Snapshot of the observed acquire sites (accumulates across
/// explorer schedules, like the lockdep graph).
[[nodiscard]] std::vector<SiteInfo> observed_sites();

/// Serialize the observed sites as JSON, the format
/// tools/manifest_check.py prov diffs against docs/pointer_provenance.json.
[[nodiscard]] std::string dump_registry_json();

/// Drop every region mirror, span record, observed site and report.  For
/// tests that need a clean registry.
void reset_for_testing();

}  // namespace ca::ptrprov

#else  // !CA_PTRPROV_ENABLED -----------------------------------------------

#include <source_location>

namespace ca::ptrprov {

/// Zero-overhead stubs: release builds carry no registry and no span
/// records, and every hook inlines to nothing (the overhead micro-bench
/// asserts PinnedSpan::data() costs the same as a raw pointer load).
inline void on_region_alloc(const void*) {}
inline void on_region_mutate(const void*, std::uint64_t, const char*,
                             const std::source_location&) {}
inline void on_region_free(const void*, const char*,
                           const std::source_location&) {}
inline SpanId on_acquire(const void*, const void*, std::uint64_t, int,
                         const char*, const std::source_location&) {
  return 0;
}
inline void on_access(SpanId, int, const std::source_location&) {}
inline void on_release(SpanId) {}

}  // namespace ca::ptrprov

#endif  // CA_PTRPROV_ENABLED
