// CSV reporting: machine-readable export of the figure data the benches
// print, so the reproduced tables can feed external plotting tools.
#pragma once

#include <string>
#include <vector>

#include "telemetry/counters.hpp"

namespace ca::telemetry {

/// RFC-4180-style CSV: fields containing commas, quotes or newlines are
/// quoted, quotes are doubled.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Render rows (first row = header) as CSV text.
[[nodiscard]] std::string to_csv(
    const std::vector<std::vector<std::string>>& rows);

/// Write rows to `path` as CSV.  Returns false (without throwing) if the
/// file cannot be opened -- bench binaries treat export as best-effort.
bool write_csv(const std::string& path,
               const std::vector<std::vector<std::string>>& rows);

/// One-line human-readable summary of the compute-kernel counters, e.g.
/// "gemm 12 calls 3.1ms 41.2 GFLOP/s | im2col 8 calls 0.4ms | eltwise ...".
/// All figures are host wall time (see KernelCounters).
[[nodiscard]] std::string format_kernel_report(const KernelCounters& k);

/// One-line summary of the SIMD data plane: the active dispatch level
/// (simd::active_level), the per-device NT-store write bytes passed in as
/// (device name, DeviceTraffic::bytes_written_nt) pairs, and the
/// process-wide streamed-byte counter, e.g.
/// "simd level avx512 | nt-writes DRAM 0 NVRAM 33554432 | streamed 33521664".
[[nodiscard]] std::string format_simd_report(
    const std::vector<std::pair<std::string, std::uint64_t>>& nt_write_bytes);

}  // namespace ca::telemetry
