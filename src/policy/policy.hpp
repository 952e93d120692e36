// The policy API (paper Table II and §III-D).
//
// The application (or the autodiff tape acting on its behalf) talks to the
// policy exclusively through semantic hints about *future* data use:
//
//   will_use / will_read / will_write   "I am about to access this object"
//   archive                             "I will not use this for a while"
//   retire                              "I will never use this again"
//
// How a policy reacts is entirely its own business; it manipulates object
// placement through the data-management API only.  The runtime additionally
// notifies the policy of object lifecycle events (placement of new objects,
// destruction) and brackets kernel execution so a policy never evicts an
// argument of the kernel it is currently staging.
#pragma once

#include <span>

#include "dm/data_manager.hpp"
#include "dm/object.hpp"

namespace ca::policy {

class Policy {
 public:
  virtual ~Policy() = default;

  /// The tenant this policy instance drives.  A policy belongs to exactly
  /// one client of the (possibly shared) DataManager: every allocate /
  /// evictfrom it issues is charged to -- and quota-checked against -- this
  /// id.  Set once by the runtime before the first placement; defaults to
  /// the single-client tenant 0.
  void set_tenant(dm::TenantId tenant) noexcept { tenant_ = tenant; }
  [[nodiscard]] dm::TenantId tenant() const noexcept { return tenant_; }

  /// A new object needs its first region.  Returns the region chosen as
  /// primary (already attached via setprimary).  Must succeed or throw
  /// OutOfMemoryError.
  virtual dm::Region& place_new(dm::Object& object) = 0;

  // Semantic hints (Table II).
  virtual void will_use(dm::Object& object) = 0;
  virtual void will_read(dm::Object& object) = 0;
  virtual void will_write(dm::Object& object) = 0;
  virtual void archive(dm::Object& object) = 0;

  /// Sparse-access extension (paper §VI, after Hildebrand et al.'s DLRM
  /// work): "I will read only about `bytes` of this object" -- e.g. a few
  /// rows of a huge embedding table.  Policies that ignore sparsity may
  /// treat it as a plain will_read; sparse-aware policies avoid migrating
  /// an object that is about to be touched only fractionally.
  virtual void will_read_partial(dm::Object& object, std::size_t bytes) {
    (void)bytes;
    will_read(object);
  }

  /// "Never used again."  Returns true if the policy released the object's
  /// storage immediately (the paper's memory optimization M); false if it
  /// merely deprioritized the object and the runtime's GC emulation must
  /// reclaim it later.
  virtual bool retire(dm::Object& object) = 0;

  /// The runtime is about to destroy the object (GC or handle drop); the
  /// policy must drop any bookkeeping referring to it.
  virtual void on_destroy(dm::Object& object) = 0;

  /// Kernel bracketing: objects in `args` are arguments of the kernel being
  /// staged and must not be displaced by evictions triggered while staging
  /// its other arguments.  The runtime brackets twice per kernel, so both
  /// calls must cost O(args), never O(tracked objects): `end_kernel`
  /// releases exactly the objects the `begin_kernel` calls since the last
  /// `end_kernel` protected (nested brackets included).
  virtual void begin_kernel(std::span<dm::Object* const> args) = 0;
  virtual void end_kernel() = 0;

  /// A hook the runtime installs so the policy can request garbage
  /// collection when it detects memory pressure (paper §IV, "explicitly
  /// triggering collection when memory pressure is detected").  Returns
  /// true if any memory was reclaimed.
  using PressureHandler = std::function<bool()>;
  virtual void set_pressure_handler(PressureHandler handler) = 0;

 protected:
  dm::TenantId tenant_{};
};

}  // namespace ca::policy
