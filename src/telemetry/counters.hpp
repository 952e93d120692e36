// Traffic counters -- the software analogue of the hardware performance
// counters the paper reads (uncore IMC counters for DRAM and NVRAM read /
// write traffic).  Every byte that crosses a device interface is recorded
// here, whether it comes from the copy engine, from kernel execution, or
// from the simulated 2LM cache's fills and writebacks.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sim/device.hpp"

namespace ca::telemetry {

struct DeviceTraffic {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Subset of bytes_written modeled as non-temporal (streamed) stores:
  /// CopyEngine writebacks and zero-fills that take the simd NT path.  The
  /// paper's NVRAM guidance (§V-d) makes this split worth watching per
  /// device.
  std::uint64_t bytes_written_nt = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return bytes_read + bytes_written;
  }
};

/// Host-side compute-kernel accounting (the "real" DNN backend).  Unlike
/// every other number in telemetry these are *wall* seconds: they describe
/// how fast the host actually ran the GEMM/im2col/elementwise kernels, the
/// roofline denominator the paper's oneDNN stack provides.  They are
/// observability only -- nothing here ever feeds sim::Clock, so simulated
/// results stay host-independent.
struct KernelCounters {
  std::uint64_t gemm_calls = 0;
  double gemm_seconds = 0.0;    ///< wall time inside the blocked GEMM core
  double gemm_flops = 0.0;      ///< 2*m*n*k summed over gemm calls
  std::uint64_t im2col_calls = 0;
  double im2col_seconds = 0.0;  ///< wall time packing conv patches
  std::uint64_t eltwise_calls = 0;
  double eltwise_seconds = 0.0;  ///< wall time in parallel elementwise ops

  /// Achieved arithmetic rate of the GEMM core, in GFLOP/s (0 before the
  /// first timed call).
  [[nodiscard]] double gemm_gflops() const noexcept {
    return gemm_seconds > 0.0 ? gemm_flops / gemm_seconds / 1e9 : 0.0;
  }

  [[nodiscard]] KernelCounters delta(const KernelCounters& snap) const {
    KernelCounters d;
    d.gemm_calls = gemm_calls - snap.gemm_calls;
    d.gemm_seconds = gemm_seconds - snap.gemm_seconds;
    d.gemm_flops = gemm_flops - snap.gemm_flops;
    d.im2col_calls = im2col_calls - snap.im2col_calls;
    d.im2col_seconds = im2col_seconds - snap.im2col_seconds;
    d.eltwise_calls = eltwise_calls - snap.eltwise_calls;
    d.eltwise_seconds = eltwise_seconds - snap.eltwise_seconds;
    return d;
  }
};

/// Heap-allocator telemetry: the binned free-list allocator's hot-path
/// counters (mem::FreeListAllocator::Stats::counters() produces one).
/// All counts are event totals since construction; latency is measured in
/// bench/micro_allocator (wall clocks are banned in src/).
struct AllocatorCounters {
  std::uint64_t total_allocs = 0;
  std::uint64_t total_frees = 0;
  std::uint64_t failed_allocs = 0;
  std::uint64_t splits = 0;            ///< allocations that split a block
  std::uint64_t coalesces = 0;         ///< neighbour merges inside free()
  std::uint64_t bin_exact_hits = 0;    ///< allocs served from the home bin
  std::uint64_t bin_spill_allocs = 0;  ///< allocs served from a higher bin
  std::size_t free_blocks = 0;
  std::size_t largest_free_block = 0;
  double fragmentation = 0.0;
};

/// Data-parallel communication accounting (DESIGN.md §3.6).  Counts come
/// from comm::CommEngine (wire bytes, per-algorithm picks); the seconds
/// split comes from dp::Trainer's overlap timeline: of the modeled
/// interconnect occupancy, how much hid behind backward compute
/// (overlapped) and how much extended the step (exposed).  All seconds are
/// simulated -- nothing here reads a wall clock.
struct CommCounters {
  std::uint64_t reductions = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t ring_picks = 0;
  std::uint64_t tree_picks = 0;
  double comm_seconds = 0.0;        ///< modeled collective occupancy, summed
  double exposed_seconds = 0.0;     ///< comm time the step stalled on
  double overlapped_seconds = 0.0;  ///< comm time hidden behind compute

  [[nodiscard]] CommCounters delta(const CommCounters& snap) const {
    CommCounters d;
    d.reductions = reductions - snap.reductions;
    d.bytes_on_wire = bytes_on_wire - snap.bytes_on_wire;
    d.ring_picks = ring_picks - snap.ring_picks;
    d.tree_picks = tree_picks - snap.tree_picks;
    d.comm_seconds = comm_seconds - snap.comm_seconds;
    d.exposed_seconds = exposed_seconds - snap.exposed_seconds;
    d.overlapped_seconds = overlapped_seconds - snap.overlapped_seconds;
    return d;
  }
};

/// Per-device traffic accounting.  Devices are addressed by sim::DeviceId.
///
/// Thread-safe: the counters are recorded from mover threads (CopyEngine)
/// and from every tenant thread of a shared DataManager, so the storage is
/// lock-free relaxed atomics (pure accounting sums -- no ordering contract)
/// and `device()` returns a plain DeviceTraffic snapshot by value.
class TrafficCounters {
 public:
  static constexpr std::size_t kMaxDevices = 8;

  void record_read(sim::DeviceId dev, std::uint64_t bytes) {
    auto& t = traffic_.at(dev.value);
    t.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
    t.read_ops.fetch_add(1, std::memory_order_relaxed);
  }

  void record_write(sim::DeviceId dev, std::uint64_t bytes) {
    auto& t = traffic_.at(dev.value);
    t.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
    t.write_ops.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attribute `bytes` of an already-recorded write to the NT-store
  /// regime.  Call after record_write; never increases bytes_written.
  void record_nt_write(sim::DeviceId dev, std::uint64_t bytes) {
    traffic_.at(dev.value).bytes_written_nt.fetch_add(
        bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] DeviceTraffic device(sim::DeviceId dev) const {
    const auto& t = traffic_.at(dev.value);
    DeviceTraffic snap;
    snap.bytes_read = t.bytes_read.load(std::memory_order_relaxed);
    snap.bytes_written = t.bytes_written.load(std::memory_order_relaxed);
    snap.bytes_written_nt =
        t.bytes_written_nt.load(std::memory_order_relaxed);
    snap.read_ops = t.read_ops.load(std::memory_order_relaxed);
    snap.write_ops = t.write_ops.load(std::memory_order_relaxed);
    return snap;
  }

  /// Difference since a snapshot -- used to report per-iteration traffic.
  [[nodiscard]] DeviceTraffic delta(sim::DeviceId dev,
                                    const DeviceTraffic& snapshot) const {
    const DeviceTraffic now = device(dev);
    DeviceTraffic d;
    d.bytes_read = now.bytes_read - snapshot.bytes_read;
    d.bytes_written = now.bytes_written - snapshot.bytes_written;
    d.bytes_written_nt = now.bytes_written_nt - snapshot.bytes_written_nt;
    d.read_ops = now.read_ops - snapshot.read_ops;
    d.write_ops = now.write_ops - snapshot.write_ops;
    return d;
  }

  void reset() noexcept {
    for (auto& t : traffic_) {
      t.bytes_read.store(0, std::memory_order_relaxed);
      t.bytes_written.store(0, std::memory_order_relaxed);
      t.bytes_written_nt.store(0, std::memory_order_relaxed);
      t.read_ops.store(0, std::memory_order_relaxed);
      t.write_ops.store(0, std::memory_order_relaxed);
    }
  }

 private:
  /// Atomic mirror of DeviceTraffic (the snapshot struct stays plain so
  /// existing callers keep value semantics).
  struct AtomicTraffic {
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> bytes_written_nt{0};
    std::atomic<std::uint64_t> read_ops{0};
    std::atomic<std::uint64_t> write_ops{0};
  };

  std::array<AtomicTraffic, kMaxDevices> traffic_{};
};

}  // namespace ca::telemetry
