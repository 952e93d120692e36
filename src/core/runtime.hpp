// The CachedArrays runtime: glue between the application-facing
// CachedArray type, the policy, and the data manager (paper Fig. 1).
//
// The runtime also emulates the garbage-collected host language (the
// paper's prototype lives in Julia): an object whose last handle drops is
// not freed immediately -- it joins a pending list that an explicit or
// pressure-triggered collection reclaims.  The paper's memory optimization
// (M) is precisely "retire arrays as soon as possible rather than relying
// solely on Julia's GC"; modes without M therefore keep semantically dead
// arrays alive, and those arrays cost NVRAM writebacks when evicted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/shared_heap.hpp"
#include "dm/data_manager.hpp"
#include "dm/pinned_span.hpp"
#include "policy/policy.hpp"
#include "sim/clock.hpp"
#include "sim/platform.hpp"
#include "telemetry/counters.hpp"

namespace ca::core {

struct RuntimeOptions {
  /// Tenant this runtime's objects and allocations are charged to when the
  /// DataManager is shared between clients.  Propagated to every
  /// create_object and to the policy (which threads it through allocate /
  /// evictfrom).  Default 0: the single-client tenant.
  dm::TenantId tenant{};

  /// Run a collection when resident bytes exceed this fraction of total
  /// heap capacity (checked at allocation).  <= 0 disables the trigger;
  /// pressure-driven collection on allocation failure always remains.
  double gc_trigger_fraction = 0.85;
};

struct GcStats {
  std::uint64_t collections = 0;
  std::uint64_t objects_collected = 0;
  std::uint64_t bytes_collected = 0;
  std::uint64_t pressure_triggers = 0;
};

class Runtime {
 public:
  using PolicyFactory =
      std::function<std::unique_ptr<policy::Policy>(dm::DataManager&)>;

  /// Single-client construction: the runtime owns a private SharedHeap
  /// built from `platform`.
  Runtime(sim::Platform platform, const PolicyFactory& make_policy,
          RuntimeOptions options = {});

  /// Multi-tenant construction: attach to an existing SharedHeap as one of
  /// its clients.  Each attached runtime gets its own policy instance but
  /// shares the platform, clock, counters and DataManager; set
  /// `options.tenant` (from SharedHeap::manager.register_tenant) so this
  /// runtime's objects and allocations are charged to its own slot.
  Runtime(std::shared_ptr<SharedHeap> heap, const PolicyFactory& make_policy,
          RuntimeOptions options = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- object lifecycle (used by CachedArray) ---------------------------

  /// Create an object and let the policy place its first region.
  dm::Object& new_object(std::size_t bytes, std::string name = {},
                         dm::ObjectClass cls = dm::ObjectClass::kGeneric);

  /// Last handle dropped: the object is garbage.  It stays allocated until
  /// the next collection (Julia semantics).
  void release(dm::Object& object);

  /// Application hint: the object will never be used again.  Returns true
  /// if the policy released it immediately (handles become invalid).
  bool retire(dm::Object& object);

  // --- hints (forwarded to the policy) ----------------------------------

  void will_use(dm::Object& object) { policy_->will_use(object); }
  void will_read(dm::Object& object) { policy_->will_read(object); }
  void will_write(dm::Object& object) { policy_->will_write(object); }
  void will_read_partial(dm::Object& object, std::size_t bytes) {
    policy_->will_read_partial(object, bytes);
  }
  void archive(dm::Object& object) { policy_->archive(object); }

  /// Kernel bracketing: protects `args` from displacement while the kernel
  /// is being staged, and pins them during execution.
  void begin_kernel(std::span<dm::Object* const> args);
  void end_kernel(std::span<dm::Object* const> args);

  // --- data access -------------------------------------------------------

  /// The provenance-tracked accessor: pins the object for the span's
  /// lifetime, marks the primary dirty on write, and checks every
  /// dereference against the relocation generation.  Composes with kernel
  /// brackets (pins are counted).
  [[nodiscard]] dm::PinnedSpan access(
      dm::Object& object, bool write,
      std::source_location loc = std::source_location::current()) {
    return dm_->access(object, write, loc);
  }

  // --- GC emulation -------------------------------------------------------

  /// Collect every pending dead object.  Returns bytes reclaimed.
  std::size_t gc_collect();

  [[nodiscard]] const GcStats& gc_stats() const noexcept { return gc_; }
  [[nodiscard]] std::size_t gc_pending() const noexcept {
    return dead_.size();
  }

  // --- plumbing ------------------------------------------------------------

  [[nodiscard]] sim::Clock& clock() noexcept { return heap_->clock; }
  [[nodiscard]] const sim::Clock& clock() const noexcept {
    return heap_->clock;
  }
  [[nodiscard]] telemetry::TrafficCounters& counters() noexcept {
    return heap_->counters;
  }
  [[nodiscard]] dm::DataManager& manager() noexcept { return *dm_; }
  [[nodiscard]] policy::Policy& policy() noexcept { return *policy_; }
  [[nodiscard]] const sim::Platform& platform() const noexcept {
    return heap_->platform;
  }

  /// The shared system state this runtime is attached to (its own private
  /// one in the single-client case).
  [[nodiscard]] const std::shared_ptr<SharedHeap>& shared_heap()
      const noexcept {
    return heap_;
  }

  /// Tenant this runtime's objects are charged to.
  [[nodiscard]] dm::TenantId tenant() const noexcept {
    return options_.tenant;
  }

  /// Compact all device heaps (between training iterations, §IV-A).
  void defragment_all();

  /// Total heap capacity across devices.
  [[nodiscard]] std::size_t total_capacity() const noexcept {
    return total_capacity_;
  }

 private:
  void destroy_now(dm::Object& object);
  void maybe_trigger_gc();

  std::shared_ptr<SharedHeap> heap_;
  dm::DataManager* dm_ = nullptr;  ///< &heap_->manager
  std::unique_ptr<policy::Policy> policy_;
  RuntimeOptions options_;
  std::vector<dm::Object*> dead_;
  GcStats gc_;
  std::size_t total_capacity_ = 0;
};

}  // namespace ca::core
