// Platform presets: the simulated heterogeneous-memory machine.
//
// The paper's testbed is one socket of a 2-socket Intel Xeon Platinum 8276L
// with 192 GiB DRAM and 1.5 TB Optane DC NVRAM.  We reproduce it at 1:1000
// scale: every "GB" in the paper maps to one MiB here, and bandwidths are
// scaled identically (GB/s -> MiB/s), so simulated iteration times land in
// the same hundreds-of-seconds range as the paper's Fig. 3.
//
// Bandwidth control points follow the measurements the paper relies on
// (Izraelevitz et al. [6]; Hildebrand et al. [4]):
//   * DRAM read/write scale up with threads and saturate high.
//   * NVRAM read saturates at roughly 1/3 of DRAM.
//   * NVRAM write peaks at a *small* thread count and degrades beyond it,
//     and requires non-temporal stores for peak throughput.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/device.hpp"
#include "util/align.hpp"

namespace ca::sim {

struct Platform {
  std::vector<DeviceSpec> devices;

  /// Worker threads the copy engine models (and uses, when available).
  std::size_t copy_threads = 16;

  /// Transfers are split into chunks of this size across copy workers.
  std::size_t copy_chunk = 2 * util::MiB;

  /// Independent background-mover channels for asynchronous transfers.
  /// Channels are split evenly between the two directions (fetch toward
  /// faster devices vs writeback toward slower ones) so eviction traffic
  /// never queues behind prefetch traffic.  1 = a single fully-serialized
  /// mover (the pre-channel behaviour, kept as the ablation baseline).
  std::size_t mover_channels = 4;

  /// Human-readable note describing the scaling, echoed by bench headers.
  const char* scale_note = "";

  [[nodiscard]] const DeviceSpec& spec(DeviceId id) const {
    return devices.at(id.value);
  }

  /// The scaled Cascade Lake preset described above.  `dram_capacity` and
  /// `nvram_capacity` are arena sizes in (host) bytes; the paper's large-run
  /// configuration is 180 MiB DRAM + 1300 MiB NVRAM.
  static Platform cascade_lake_scaled(std::size_t dram_capacity,
                                      std::size_t nvram_capacity);

  /// Paper defaults for the large-network experiments (§IV-A).
  static Platform cascade_lake_default() {
    return cascade_lake_scaled(180 * util::MiB, 1300 * util::MiB);
  }

  /// A three-tier machine: HBM-like near memory, DRAM, and NVRAM
  /// (paper §III-C: regions support higher-order constructs like
  /// multi-level caches).  Used with policy::TieredLruPolicy.
  static Platform three_tier_scaled(std::size_t near_capacity,
                                    std::size_t dram_capacity,
                                    std::size_t nvram_capacity);
};

/// Index of the DRAM (fast) device in the Cascade Lake presets.
inline constexpr DeviceId kFast{0};
/// Index of the NVRAM (slow) device in the Cascade Lake presets.
inline constexpr DeviceId kSlow{1};

}  // namespace ca::sim
