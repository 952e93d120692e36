// TieredLruPolicy: the paper's policy generalized to N memory tiers
// (paper §III-C notes that regions support "construction of higher order
// constructs like two-level caches"; §VI extends CachedArrays to other
// heterogeneous platforms).
//
// Tiers are ordered fastest to slowest.  New objects are born in the top
// tier; under pressure the coldest objects cascade down one tier at a time
// (a waterfall of Listing-1 evictions); any use hint promotes an object
// straight back to the top.  Unlike the two-tier LruPolicy, this policy
// keeps exactly one region per object (no linked siblings), trading the
// elided-writeback optimization for simplicity across arbitrarily many
// tiers.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "policy/policy.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/intrusive_list.hpp"

namespace ca::policy {

struct TieredLruPolicyConfig {
  /// Device ids ordered fastest -> slowest.  At least two tiers.
  std::vector<sim::DeviceId> tiers;

  bool eager_retire = true;

  /// Objects smaller than this stay wherever they were born.
  std::size_t min_migratable = 64 * util::KiB;

  /// Move objects between tiers on the asynchronous mover: demotions become
  /// write-behind (the vacated window is reused immediately) and promotions
  /// overlap with execution, with consumers stalling only for the unfinished
  /// remainder at first use.
  bool async_movement = false;
};

class TieredLruPolicy final : public Policy {
 public:
  struct OpStats {
    std::uint64_t demotions = 0;   ///< one-tier-down moves
    std::uint64_t promotions = 0;  ///< moves to the top tier
    std::uint64_t bytes_moved = 0;
  };

  TieredLruPolicy(dm::DataManager& dm, TieredLruPolicyConfig config);

  dm::Region& place_new(dm::Object& object) override;
  void will_use(dm::Object& object) override;
  void will_read(dm::Object& object) override;
  void will_write(dm::Object& object) override;
  void archive(dm::Object& object) override;
  bool retire(dm::Object& object) override;
  void on_destroy(dm::Object& object) override;
  void begin_kernel(std::span<dm::Object* const> args) override;
  void end_kernel() override;
  void set_pressure_handler(PressureHandler handler) override;

  [[nodiscard]] const OpStats& op_stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return config_.tiers.size();
  }

  /// Tier index (0 = fastest) where `object` currently resides.
  [[nodiscard]] std::size_t tier_of(const dm::Object& object) const;

  /// Number of objects tracked on tier `t`'s LRU.
  [[nodiscard]] std::size_t resident_objects(std::size_t tier) const {
    return lists_[tier].size();
  }

  /// Move an object down one tier (no-op on the bottom tier).
  void demote(dm::Object& object);

  /// Move an object to the top tier, forcing room by cascading demotions.
  bool promote(dm::Object& object);

 private:
  struct Node {
    dm::Object* object = nullptr;
    std::size_t tier = 0;
    util::ListHook hook;
    bool in_flight = false;
  };

  using Lru = util::IntrusiveList<Node, &Node::hook>;

  Node& node(dm::Object& object);
  void file_on(Node& n, std::size_t tier);
  void unfile(Node& n);

  /// Move the object's (sole) region from its tier to `target`; allocates
  /// on `target` with forced displacement.
  bool move_to_tier(dm::Object& object, std::size_t target);

  /// Allocate on tier `t`, displacing cold residents downward as needed.
  dm::Region* allocate_on(std::size_t tier, std::size_t size);

  bool try_displace(std::size_t tier, dm::Region& region);

  dm::DataManager& dm_;
  TieredLruPolicyConfig config_;
  PressureHandler pressure_;
  OpStats stats_;
  std::unordered_map<const dm::Object*, Node> nodes_;
  std::vector<Node*> in_flight_;  ///< flagged since the last end_kernel
  std::vector<Lru> lists_;
};

}  // namespace ca::policy
