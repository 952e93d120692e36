#include "policy/lru_policy.hpp"

#include <vector>

#include "util/error.hpp"

namespace ca::policy {

LruPolicy::LruPolicy(dm::DataManager& dm, LruPolicyConfig config)
    : dm_(dm), config_(config) {}

LruPolicy::Node& LruPolicy::node(dm::Object& object) {
  auto [it, inserted] = nodes_.try_emplace(&object);
  if (inserted) it->second.object = &object;
  return it->second;
}

void LruPolicy::touch(Node& n) {
  if (n.lru_hook.linked()) lru_.move_to_front(n);
}

void LruPolicy::remove_from_lru(Node& n) { lru_.erase(n); }

void LruPolicy::set_pressure_handler(PressureHandler handler) {
  pressure_ = std::move(handler);
}

// --- placement --------------------------------------------------------------

dm::Region& LruPolicy::place_new(dm::Object& object) {
  // Class-aware gradient-bucket lifetime (DESIGN.md §3.6): gradient
  // buckets are born hot, even in modes where generic objects are born in
  // slow memory, and archive() demotes them.
  const bool gradient = object.object_class() == dm::ObjectClass::kGradient;
  if (config_.local_alloc || gradient ||
      object.size() < config_.min_migratable) {
    // L: unlinked regions directly in fast memory -- no compulsory NVRAM
    // birth, no initial copy (paper requirement 1, §III-A).
    if (dm::Region* r = allocate_fast_forced(object.size())) {
      dm_.setprimary(object, *r);
      lru_.push_front(node(object));
      if (gradient) ++stats_.gradient_hot_allocs;
      return *r;
    }
  }
  // Either local allocation is disabled (CA:0 emulates a true cache where
  // every object is born in backing memory) or fast memory cannot hold the
  // object at all.
  dm::Region& r = allocate_slow_checked(object.size());
  dm_.setprimary(object, r);
  return r;
}

// --- hints ------------------------------------------------------------------

void LruPolicy::will_use(dm::Object& object) {
  // Generic "about to use": treated like will_read; a kernel that writes
  // will also issue will_write for the written arguments.
  will_read(object);
}

void LruPolicy::will_read(dm::Object& object) {
  if (config_.prefetch || !config_.local_alloc) {
    // P: always stage reads in fast memory.  Without L we emulate a true
    // cache, where reads likewise fault data into the cache first.
    prefetch(object, /*force=*/true);
  }
  // Otherwise: NVRAM read bandwidth is high enough that reads are served in
  // place (paper §III-D).  Touch the LRU either way.
  touch(node(object));
  prefetch_ahead(object);
}

void LruPolicy::will_read_partial(dm::Object& object, std::size_t bytes) {
  if (!config_.sparse_aware) {
    will_read(object);
    return;
  }
  const double fraction = static_cast<double>(bytes) /
                          static_cast<double>(object.size());
  if (fraction >= kSparseReadFraction) {
    // Mostly-dense read: behave like a plain will_read.
    will_read(object);
    return;
  }
  // Sparse read: migrating the whole object for a fractional touch is a
  // loss under every regime; serve it in place.  NVRAM read bandwidth is
  // high enough for this to be cheap (paper SIII-D).
  ++stats_.sparse_reads_in_place;
  touch(node(object));
}

void LruPolicy::will_write(dm::Object& object) {
  // NVRAM writes are slow and low-bandwidth: written objects always go to
  // fast memory, evicting colder data if necessary.
  prefetch(object, /*force=*/true);
  touch(node(object));
  prefetch_ahead(object);
}

void LruPolicy::archive(dm::Object& object) {
  if (object.object_class() == dm::ObjectClass::kGradient &&
      !object.pinned()) {
    // A gradient bucket archived after its reduced result was applied is
    // dead until the next backward pass: demote it off the fast tier now
    // rather than letting it squat in DRAM at the cold end of the list.
    // This is the class-aware lifetime rule plain LRU cannot express.
    dm::Region* primary = dm_.getprimary(object);
    if (primary != nullptr && dm_.in(*primary, sim::kFast)) {
      evict(object);
      ++stats_.gradient_demotes;
      return;
    }
  }
  // "Will not be used for some time": never evict eagerly (if everything
  // fits in fast memory there must be no downside, §III-E) -- just make the
  // object the preferred victim under future pressure.
  Node& n = node(object);
  if (n.lru_hook.linked()) lru_.move_to_back(n);
  if (config_.prefetch_distance > 0) record_archive(object);
}

void LruPolicy::record_archive(dm::Object& object) {
  if (trace_pos_.count(&object) != 0) {
    // Re-archive of an already-recorded object: the next forward pass has
    // begun and the old trace is stale.
    archive_trace_.clear();
    trace_pos_.clear();
  }
  trace_pos_[&object] = archive_trace_.size();
  archive_trace_.push_back(&object);
}

void LruPolicy::prefetch_ahead(dm::Object& object) {
  if (config_.prefetch_distance == 0) return;
  const auto it = trace_pos_.find(&object);
  if (it == trace_pos_.end()) return;
  // The backward pass consumes objects roughly in reverse archive order:
  // the ones recorded just before `object` are needed next.  Prefetch them
  // asynchronously and gently (never evict to make room for a guess).
  std::size_t issued = 0;
  std::size_t pos = it->second;
  while (pos > 0 && issued < config_.prefetch_distance) {
    dm::Object* ahead = archive_trace_[--pos];
    if (ahead == nullptr || ahead->pinned()) continue;
    if (ahead->size() < config_.min_migratable) continue;
    dm::Region* p = dm_.getprimary(*ahead);
    if (p == nullptr || !dm_.in(*p, sim::kSlow)) continue;
    if (!prefetch_impl(*ahead, /*force=*/false, /*async=*/true)) {
      break;  // fast memory is full; stop guessing
    }
    ++issued;
    ++stats_.prefetch_ahead;
    stats_.prefetch_ahead_bytes += ahead->size();
  }
}

bool LruPolicy::retire(dm::Object& object) {
  if (config_.eager_retire) {
    // M: release storage now; the runtime destroys the object.
    ++stats_.retires_honored;
    return true;
  }
  // Without M the object lingers until the emulated GC runs; make it the
  // preferred eviction victim in the meantime.
  archive(object);
  return false;
}

void LruPolicy::on_destroy(dm::Object& object) {
  const auto tp = trace_pos_.find(&object);
  if (tp != trace_pos_.end()) {
    archive_trace_[tp->second] = nullptr;  // tombstone; positions are stable
    trace_pos_.erase(tp);
  }
  const auto it = nodes_.find(&object);
  if (it == nodes_.end()) return;
  if (it->second.in_flight) std::erase(in_flight_, &it->second);
  remove_from_lru(it->second);
  nodes_.erase(it);
}

void LruPolicy::begin_kernel(std::span<dm::Object* const> args) {
  for (dm::Object* obj : args) {
    if (obj == nullptr) continue;
    Node& n = node(*obj);
    if (!n.in_flight) {
      n.in_flight = true;
      in_flight_.push_back(&n);
    }
  }
}

void LruPolicy::end_kernel() {
  // Everything flagged since the last end_kernel, nested brackets included.
  for (Node* n : in_flight_) n->in_flight = false;
  in_flight_.clear();
}

// --- mechanisms (paper Listings 1 and 2) -------------------------------------

void LruPolicy::evict(dm::Object& object) {
  dm::Region* x = dm_.getprimary(object);
  CA_CHECK(x != nullptr, "evict of an object without storage");
  if (!dm_.in(*x, sim::kFast)) return;

  dm::Region* y = dm_.getlinked(*x, sim::kSlow);
  const std::size_t sz = dm_.size_of(*x);
  bool allocated = false;
  if (y == nullptr) {
    y = &allocate_slow_checked(object.size());
    allocated = true;
    // Link before copying so copyto sees the regions as siblings and
    // synchronizes both dirty bits; copying first would leave a stale
    // dirty bit on x.
    dm_.link(*x, *y);
  }
  if (dm_.isdirty(*x) || allocated) {
    if (config_.async_movement) {
      // Write-behind: the writeback occupies a mover writeback channel in
      // the background; the evictor does not stall and the fast window is
      // reused immediately.  free(x) below joins the real copy only (no
      // simulated time) so the storage is safe to hand out.
      dm_.copyto_async(*y, *x);
      ++stats_.async_writebacks;
    } else {
      dm_.copyto(*y, *x);
    }
  } else {
    // The slow copy is already valid: the expensive NVRAM write is elided
    // (paper requirement 2, §III-A).
    ++stats_.elided_writebacks;
  }
  dm_.setprimary(object, *y);
  dm_.unlink(*x);
  dm_.free(x);

  ++stats_.evictions;
  stats_.eviction_bytes += sz;
  remove_from_lru(node(object));
}

bool LruPolicy::prefetch(dm::Object& object, bool force) {
  return prefetch_impl(object, force, config_.async_movement);
}

bool LruPolicy::prefetch_impl(dm::Object& object, bool force, bool async) {
  dm::Region* x = dm_.getprimary(object);
  CA_CHECK(x != nullptr, "prefetch of an object without storage");
  if (!dm_.in(*x, sim::kSlow)) return true;  // already fast
  // A pinned object's primary cannot change (a kernel holds its pointer);
  // the hint arrives too late to act on.
  if (object.pinned()) return false;

  dm::Region* y = dm_.allocate(sim::kFast, object.size(), tenant_);
  if (y == nullptr) {
    if (!force) return false;
    y = allocate_fast_forced(object.size());
    if (y == nullptr) return false;  // cannot fit in fast at all
  }
  // Link before copying: copyto only synchronizes the source's dirty bit
  // when the two regions are already siblings.  The old order left x
  // spuriously dirty, so a later write to the new primary produced two
  // "dirty" copies of one object.
  dm_.link(*x, *y);
  if (async) {
    dm_.copyto_async(*y, *x);
  } else {
    dm_.copyto(*y, *x);
  }
  dm_.setprimary(object, *y);
  lru_.push_front(node(object));
  ++stats_.prefetches;
  stats_.prefetch_bytes += object.size();
  return true;
}

bool LruPolicy::try_displace(dm::Region& region) {
  dm::Object* object = dm_.parent(region);
  if (object == nullptr) return false;  // orphan: not ours to move
  if (object->pinned()) return false;   // a kernel holds its pointer
  if (object->size() < config_.min_migratable) return false;  // not worth it
  // Look up without inserting: an untracked object cannot be in flight.
  const auto it = nodes_.find(object);
  if (it != nodes_.end() && it->second.in_flight) {
    return false;  // argument of the kernel being staged
  }
  evict(*object);
  return true;
}

dm::Region* LruPolicy::allocate_fast_forced(std::size_t size) {
  if (size > dm_.capacity(sim::kFast)) return nullptr;
  if (dm::Region* r = dm_.allocate(sim::kFast, size, tenant_)) return r;

  // Fast memory is under pressure.  Pick a starting point at the coldest
  // *evictable* resident object (the paper's "some heuristic like LRU",
  // Listing 2 line 8) and reclaim a contiguous window from there.
  std::size_t start = 0;
  Node* victim = lru_.find_from_back([](const Node& n) {
    return !n.in_flight && !n.object->pinned();
  });
  if (victim != nullptr) {
    if (dm::Region* vr = dm_.getprimary(*victim->object);
        vr != nullptr && dm_.in(*vr, sim::kFast)) {
      start = vr->offset();
    }
  }
  ++stats_.forced_reclaims;
  if (!dm_.evictfrom(sim::kFast, start, size,
                     [this](dm::Region& r) { return try_displace(r); },
                     tenant_)) {
    return nullptr;
  }
  dm::Region* r = dm_.allocate(sim::kFast, size, tenant_);
  CA_CHECK(r != nullptr, "evictfrom succeeded but allocation still failed");
  return r;
}

dm::Region& LruPolicy::allocate_slow_checked(std::size_t size) {
  if (dm::Region* r = dm_.allocate(sim::kSlow, size, tenant_)) return *r;
  // Memory pressure: ask the runtime to collect dead objects, then retry.
  if (pressure_) {
    ++stats_.gc_pressure_calls;
    if (pressure_()) {
      if (dm::Region* r = dm_.allocate(sim::kSlow, size, tenant_)) return *r;
    }
  }
  // Last resort: compaction (the heap may merely be fragmented).
  dm_.defragment(sim::kSlow);
  if (dm::Region* r = dm_.allocate(sim::kSlow, size, tenant_)) return *r;
  throw OutOfMemoryError("slow memory exhausted allocating " +
                         std::to_string(size) + " bytes");
}

}  // namespace ca::policy
