#include "core/runtime.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ca::core {

namespace {

/// Modeled cost of one collection: base pause plus per-collected-object
/// cost, charged to TimeCategory::kGc.
constexpr double kGcBaseSeconds = 2e-3;
constexpr double kGcPerObjectSeconds = 2e-5;

}  // namespace

Runtime::Runtime(sim::Platform platform, const PolicyFactory& make_policy,
                 RuntimeOptions options)
    : Runtime(std::make_shared<SharedHeap>(std::move(platform)), make_policy,
              options) {}

Runtime::Runtime(std::shared_ptr<SharedHeap> heap,
                 const PolicyFactory& make_policy, RuntimeOptions options)
    : heap_(std::move(heap)), options_(options) {
  CA_CHECK(heap_ != nullptr, "a shared heap is required");
  CA_CHECK(make_policy != nullptr, "a policy factory is required");
  dm_ = &heap_->manager;
  policy_ = make_policy(*dm_);
  CA_CHECK(policy_ != nullptr, "policy factory returned null");
  policy_->set_tenant(options_.tenant);
  policy_->set_pressure_handler([this] {
    ++gc_.pressure_triggers;
    return gc_collect() > 0;
  });
  for (const auto& spec : heap_->platform.devices) {
    total_capacity_ += spec.capacity;
  }
}

dm::Object& Runtime::new_object(std::size_t bytes, std::string name,
                                dm::ObjectClass cls) {
  maybe_trigger_gc();
  dm::Object* object =
      dm_->create_object(bytes, std::move(name), options_.tenant, cls);
  try {
    policy_->place_new(*object);
  } catch (...) {
    dm_->destroy_object(object);
    throw;
  }
  return *object;
}

void Runtime::release(dm::Object& object) {
  CA_CHECK(!object.pinned(), "released object is still pinned");
  dead_.push_back(&object);
}

bool Runtime::retire(dm::Object& object) {
  if (policy_->retire(object)) {
    destroy_now(object);
    return true;
  }
  return false;
}

void Runtime::begin_kernel(std::span<dm::Object* const> args) {
  // Stage arguments under displacement protection, then pin them so the
  // resolved pointers stay valid for the kernel's duration.
  policy_->begin_kernel(args);
  for (dm::Object* obj : args) {
    if (obj != nullptr) dm_->pin(*obj);
  }
}

void Runtime::end_kernel(std::span<dm::Object* const> args) {
  for (dm::Object* obj : args) {
    if (obj != nullptr) dm_->unpin(*obj);
  }
  policy_->end_kernel();
}

void Runtime::destroy_now(dm::Object& object) {
  policy_->on_destroy(object);
  dm_->destroy_object(&object);
}

std::size_t Runtime::gc_collect() {
  if (dead_.empty()) return 0;
  std::size_t bytes = 0;
  const std::size_t n = dead_.size();
  for (dm::Object* obj : dead_) {
    bytes += obj->size();
    destroy_now(*obj);
  }
  dead_.clear();
  ++gc_.collections;
  gc_.objects_collected += n;
  gc_.bytes_collected += bytes;
  heap_->clock.advance(
      kGcBaseSeconds + kGcPerObjectSeconds * static_cast<double>(n),
      sim::TimeCategory::kGc);
  return bytes;
}

void Runtime::maybe_trigger_gc() {
  if (options_.gc_trigger_fraction <= 0.0 || dead_.empty()) return;
  const auto resident = static_cast<double>(dm_->resident_bytes());
  if (resident > options_.gc_trigger_fraction *
                     static_cast<double>(total_capacity_)) {
    gc_collect();
  }
}

void Runtime::defragment_all() {
  for (std::uint32_t d = 0; d < heap_->platform.devices.size(); ++d) {
    dm_->defragment(sim::DeviceId{d});
  }
}

}  // namespace ca::core
