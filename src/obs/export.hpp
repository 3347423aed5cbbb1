// Snapshot exporters: schema-versioned JSON (machine-readable perf
// trajectory, consumed by CI and written as BENCH_*.json), CSV series
// (report/gnuplot-ready), and a Prometheus-style text dump.
//
// All three render a MetricsSnapshot, so one snapshot can be exported in
// several formats consistently; the registry overloads snapshot for you.
// Numeric formatting uses shortest-round-trip (std::to_chars), so exports
// are byte-deterministic for a given snapshot.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace hpcfail::obs {

/// Bumped whenever the JSON layout changes incompatibly; consumers must
/// check it (tests/obs/export_test.cpp pins the layout).
inline constexpr int kMetricsSchemaVersion = 1;
inline constexpr std::string_view kMetricsSchemaName = "hpcfail.metrics";

enum class ExportFormat { json, csv, prometheus };

/// Parses "json" / "csv" / "prom" (or "prometheus"). Throws
/// ValidationError on anything else.
ExportFormat export_format_from_string(std::string_view text);
std::string to_string(ExportFormat format);

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// and every control character).
std::string json_escape(std::string_view s);

std::string to_json(const MetricsSnapshot& snapshot);
std::string to_csv(const MetricsSnapshot& snapshot);
std::string to_prometheus(const MetricsSnapshot& snapshot);

std::string export_metrics(const MetricsSnapshot& snapshot,
                           ExportFormat format);

/// Snapshots `reg` and writes it to `path` in `format`. Throws IoError
/// when the file cannot be written.
void write_metrics_file(const std::string& path, ExportFormat format,
                        const Registry& reg = registry());

}  // namespace hpcfail::obs
