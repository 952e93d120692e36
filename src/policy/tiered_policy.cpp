#include "policy/tiered_policy.hpp"

#include "util/error.hpp"

namespace ca::policy {

TieredLruPolicy::TieredLruPolicy(dm::DataManager& dm,
                                 TieredLruPolicyConfig config)
    : dm_(dm), config_(std::move(config)), lists_(config_.tiers.size()) {
  CA_CHECK(config_.tiers.size() >= 2, "a tiered policy needs >= 2 tiers");
  for (std::size_t i = 0; i < config_.tiers.size(); ++i) {
    for (std::size_t j = i + 1; j < config_.tiers.size(); ++j) {
      CA_CHECK(config_.tiers[i] != config_.tiers[j],
               "tier list contains a duplicate device");
    }
  }
}

TieredLruPolicy::Node& TieredLruPolicy::node(dm::Object& object) {
  auto [it, inserted] = nodes_.try_emplace(&object);
  if (inserted) it->second.object = &object;
  return it->second;
}

void TieredLruPolicy::file_on(Node& n, std::size_t tier) {
  unfile(n);
  n.tier = tier;
  lists_[tier].push_front(n);
}

void TieredLruPolicy::unfile(Node& n) {
  if (n.hook.linked()) lists_[n.tier].erase(n);
}

std::size_t TieredLruPolicy::tier_of(const dm::Object& object) const {
  const dm::Region* primary = object.primary();
  CA_CHECK(primary != nullptr, "object has no storage");
  for (std::size_t i = 0; i < config_.tiers.size(); ++i) {
    if (primary->device() == config_.tiers[i]) return i;
  }
  throw UsageError("object resides on a device outside the tier list");
}

void TieredLruPolicy::set_pressure_handler(PressureHandler handler) {
  pressure_ = std::move(handler);
}

// --- allocation --------------------------------------------------------------

dm::Region* TieredLruPolicy::allocate_on(std::size_t tier, std::size_t size) {
  const sim::DeviceId dev = config_.tiers[tier];
  if (size > dm_.capacity(dev)) return nullptr;
  if (dm::Region* r = dm_.allocate(dev, size, tenant_)) return r;

  if (tier + 1 == config_.tiers.size()) {
    // Bottom tier: nothing to displace into.  GC then compact.
    if (pressure_ && pressure_()) {
      if (dm::Region* r = dm_.allocate(dev, size, tenant_)) return r;
    }
    dm_.defragment(dev);
    return dm_.allocate(dev, size, tenant_);
  }

  // Reclaim a window by cascading the coldest residents down one tier.
  std::size_t start = 0;
  Node* victim = lists_[tier].find_from_back([](const Node& n) {
    return !n.in_flight && !n.object->pinned();
  });
  if (victim != nullptr) {
    if (dm::Region* vr = dm_.getprimary(*victim->object);
        vr != nullptr && vr->device() == dev) {
      start = vr->offset();
    }
  }
  if (!dm_.evictfrom(
          dev, start, size,
          [this, tier](dm::Region& r) { return try_displace(tier, r); },
          tenant_)) {
    return nullptr;
  }
  return dm_.allocate(dev, size, tenant_);
}

bool TieredLruPolicy::try_displace(std::size_t tier, dm::Region& region) {
  dm::Object* object = dm_.parent(region);
  if (object == nullptr) return false;
  if (object->pinned()) return false;
  if (object->size() < config_.min_migratable) return false;
  Node& n = node(*object);
  if (n.in_flight) return false;
  CA_CHECK(n.tier == tier, "LRU bookkeeping out of sync with placement");
  if (!move_to_tier(*object, tier + 1)) return false;
  ++stats_.demotions;
  return true;
}

bool TieredLruPolicy::move_to_tier(dm::Object& object, std::size_t target) {
  CA_CHECK(target < config_.tiers.size(), "tier index out of range");
  dm::Region* x = dm_.getprimary(object);
  CA_CHECK(x != nullptr, "move of an object without storage");
  if (x->device() == config_.tiers[target]) return true;

  dm::Region* y = allocate_on(target, object.size());
  if (y == nullptr) return false;
  // Link before copying so copyto synchronizes both dirty bits (see the
  // same pattern in LruPolicy::prefetch).
  dm_.link(*x, *y);
  if (config_.async_movement) {
    // The copy rides a mover channel; free(x) below joins the real bytes
    // only, and y's ready_at carries the dependency to the next consumer.
    dm_.copyto_async(*y, *x);
  } else {
    dm_.copyto(*y, *x);
  }
  dm_.setprimary(object, *y);
  dm_.free(x);
  stats_.bytes_moved += object.size();
  file_on(node(object), target);
  return true;
}

// --- policy interface -------------------------------------------------------

dm::Region& TieredLruPolicy::place_new(dm::Object& object) {
  // Born as high as possible; displacement cascades make room at the top.
  for (std::size_t tier = 0; tier < config_.tiers.size(); ++tier) {
    if (dm::Region* r = allocate_on(tier, object.size())) {
      dm_.setprimary(object, *r);
      file_on(node(object), tier);
      return *r;
    }
  }
  throw OutOfMemoryError("all tiers exhausted");
}

void TieredLruPolicy::demote(dm::Object& object) {
  const std::size_t tier = tier_of(object);
  if (tier + 1 >= config_.tiers.size()) return;
  if (move_to_tier(object, tier + 1)) ++stats_.demotions;
}

bool TieredLruPolicy::promote(dm::Object& object) {
  Node& n = node(object);
  if (tier_of(object) == 0) {
    lists_[0].move_to_front(n);
    return true;
  }
  if (object.size() < config_.min_migratable) return false;
  if (!move_to_tier(object, 0)) return false;
  ++stats_.promotions;
  return true;
}

void TieredLruPolicy::will_use(dm::Object& object) { will_read(object); }

void TieredLruPolicy::will_read(dm::Object& object) { promote(object); }

void TieredLruPolicy::will_write(dm::Object& object) { promote(object); }

void TieredLruPolicy::archive(dm::Object& object) {
  Node& n = node(object);
  if (n.hook.linked()) lists_[n.tier].move_to_back(n);
}

bool TieredLruPolicy::retire(dm::Object& object) {
  if (config_.eager_retire) return true;
  archive(object);
  return false;
}

void TieredLruPolicy::on_destroy(dm::Object& object) {
  const auto it = nodes_.find(&object);
  if (it == nodes_.end()) return;
  if (it->second.in_flight) std::erase(in_flight_, &it->second);
  unfile(it->second);
  nodes_.erase(it);
}

void TieredLruPolicy::begin_kernel(std::span<dm::Object* const> args) {
  for (dm::Object* obj : args) {
    if (obj == nullptr) continue;
    Node& n = node(*obj);
    if (!n.in_flight) {
      n.in_flight = true;
      in_flight_.push_back(&n);
    }
  }
}

void TieredLruPolicy::end_kernel() {
  for (Node* n : in_flight_) n->in_flight = false;
  in_flight_.clear();
}

}  // namespace ca::policy
