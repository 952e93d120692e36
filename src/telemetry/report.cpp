#include "telemetry/report.hpp"

#include <fstream>
#include <utility>

#include "simd/copy.hpp"
#include "simd/isa.hpp"
#include "util/format.hpp"

namespace ca::telemetry {

std::string csv_escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string to_csv(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += csv_escape(row[c]);
    }
    out += '\n';
  }
  return out;
}

bool write_csv(const std::string& path,
               const std::vector<std::vector<std::string>>& rows) {
  std::ofstream f(path);
  if (!f) return false;
  f << to_csv(rows);
  return static_cast<bool>(f);
}

std::string format_kernel_report(const KernelCounters& k) {
  std::string out = "gemm " + std::to_string(k.gemm_calls) + " calls " +
                    util::format_fixed(k.gemm_seconds * 1e3, 2) + "ms " +
                    util::format_fixed(k.gemm_gflops(), 2) + " GFLOP/s";
  out += " | im2col " + std::to_string(k.im2col_calls) + " calls " +
         util::format_fixed(k.im2col_seconds * 1e3, 2) + "ms";
  out += " | eltwise " + std::to_string(k.eltwise_calls) + " calls " +
         util::format_fixed(k.eltwise_seconds * 1e3, 2) + "ms";
  return out;
}

std::string format_simd_report(
    const std::vector<std::pair<std::string, std::uint64_t>>&
        nt_write_bytes) {
  std::string out = "simd level ";
  out += simd::level_name(simd::active_level());
  out += " | nt-writes";
  for (const auto& [name, bytes] : nt_write_bytes) {
    out += " " + name + " " + std::to_string(bytes);
  }
  out += " | streamed " + std::to_string(simd::nt_store_bytes());
  return out;
}

}  // namespace ca::telemetry
