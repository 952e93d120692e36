#include "sim/platform.hpp"

namespace ca::sim {

namespace {

// Scale factor: paper GB/s -> model MiB/s (1:1000 reproduction scale).
constexpr double kGBs = 1024.0 * 1024.0;  // one "paper GB" per second

}  // namespace

Platform Platform::cascade_lake_scaled(std::size_t dram_capacity,
                                       std::size_t nvram_capacity) {
  Platform p;
  p.copy_threads = 16;
  p.copy_chunk = 1 * util::MiB;
  p.scale_note =
      "Cascade Lake @ 1:1000 scale (paper GB == model MiB; paper GB/s == "
      "model MiB/s)";

  DeviceSpec dram;
  dram.name = "DRAM";
  dram.kind = DeviceKind::kDram;
  dram.capacity = dram_capacity;
  dram.read_bw = BandwidthCurve{
      {1, 20 * kGBs}, {4, 45 * kGBs}, {8, 75 * kGBs}, {16, 100 * kGBs}};
  dram.write_bw_nt = BandwidthCurve{
      {1, 16 * kGBs}, {4, 40 * kGBs}, {8, 60 * kGBs}, {16, 80 * kGBs}};
  dram.write_bw = dram.write_bw_nt;  // regular stores are fine for DRAM
  dram.op_latency_s = 2e-4;          // software launch overhead per transfer

  DeviceSpec nvram;
  nvram.name = "NVRAM (Optane DC)";
  nvram.kind = DeviceKind::kNvram;
  nvram.capacity = nvram_capacity;
  // Reads saturate around a third of DRAM; "not much slower than DRAM" in
  // the low-parallelism regime kernels actually operate in.
  nvram.read_bw = BandwidthCurve{{1, 18 * kGBs},
                                 {2, 29 * kGBs},
                                 {4, 40 * kGBs},
                                 {8, 50 * kGBs},
                                 {16, 54 * kGBs}};
  // Writes peak at ~4 threads with non-temporal stores, then *degrade* with
  // more parallelism (the paper's §V-d crossover).
  // The single-thread point includes per-transfer setup: small transfers
  // (the paper's small-batch VGG regime) pay a steep parallelization
  // penalty before the engine can deploy enough workers.
  nvram.write_bw_nt = BandwidthCurve{{1, 9.0 * kGBs},
                                     {2, 14.5 * kGBs},
                                     {4, 18.0 * kGBs},
                                     {8, 11.7 * kGBs},
                                     {16, 9.0 * kGBs},
                                     {32, 7.2 * kGBs}};
  // Regular (cached) stores lose roughly half the write bandwidth.
  nvram.write_bw = BandwidthCurve{{1, 4.0 * kGBs},
                                  {2, 6.5 * kGBs},
                                  {4, 8.0 * kGBs},
                                  {8, 5.2 * kGBs},
                                  {16, 4.0 * kGBs},
                                  {32, 3.2 * kGBs}};
  // Per-transfer software overhead of an explicit migration (launch,
  // synchronization, page-table updates).  This is what makes many small
  // transfers lose to few large ones -- the paper's "smaller data
  // transfers and more parallelization overhead" for small-batch VGG.
  nvram.op_latency_s = 3.4e-2;

  p.devices = {dram, nvram};
  return p;
}

Platform Platform::three_tier_scaled(std::size_t near_capacity,
                                     std::size_t dram_capacity,
                                     std::size_t nvram_capacity) {
  // Tier 0: a small HBM-like near memory in front of the Cascade Lake
  // DRAM+NVRAM pair.
  Platform p = cascade_lake_scaled(dram_capacity, nvram_capacity);
  p.scale_note = "three-tier (HBM-like / DRAM / NVRAM) @ 1:1000 scale";

  DeviceSpec near;
  near.name = "HBM-like";
  near.kind = DeviceKind::kDram;
  near.capacity = near_capacity;
  near.read_bw = BandwidthCurve{
      {1, 40 * kGBs}, {4, 120 * kGBs}, {8, 220 * kGBs}, {16, 320 * kGBs}};
  near.write_bw_nt = BandwidthCurve{
      {1, 35 * kGBs}, {4, 100 * kGBs}, {8, 190 * kGBs}, {16, 280 * kGBs}};
  near.write_bw = near.write_bw_nt;
  near.op_latency_s = 1e-4;

  p.devices.insert(p.devices.begin(), near);
  return p;
}

}  // namespace ca::sim
