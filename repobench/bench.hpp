// Shared declarations of the repository benchmark (see README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/dataset.hpp"

namespace repobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< traced run: per-layer metrics
  std::string work_dir;   ///< scratch files (CSV, span dump)
};

/// One workload run. `end_to_end` is filled from untraced requests only;
/// in the traced run `traced` holds the same metrics from the traced
/// requests, so main() can print the tracing overhead.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> traced;
  std::map<std::string, double> layers;  ///< non-span per-layer values
  std::vector<std::string> info;         ///< printed "key=value" lines

  /// Records a failed correctness gate (printed, run exits non-zero).
  void gate(bool ok, const std::string& what);
};

Result run_batch_report(const Options& options);
Result run_serve_ingest(const Options& options);
Result run_serve_query(const Options& options);

// ---------------------------------------------------------------------
// Helpers shared by the workloads.

double seconds_since(std::int64_t start_ns);
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// Peak resident set of this process since the last reset_peak_rss(),
/// MiB (Linux VmHWM).
double peak_rss_mb();
void reset_peak_rss();
/// CPU time of this process (all threads), seconds.
double process_cpu_seconds();

/// Latency samples an untraced run collects at least, so that its p99
/// (interpolated at rank 0.99 * (n - 1)) has ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 1001;
/// query_p50_ms and query_p99_ms over `ms`.
std::map<std::string, double> latency_metrics(const std::vector<double>& ms);
/// One printed line: sample count and p50/p90/p95/p99/max of `ms`.
std::string latency_summary(const std::vector<double>& ms);

/// The LANL scenario (synth::lanl_scenario(seed)) with every system's
/// failures_per_year multiplied by `scale`; generated on the global pool.
hpcfail::trace::FailureDataset generate_lanl(std::uint64_t seed,
                                              double scale);
/// Column-for-column equality of two datasets.
bool same_columns(const hpcfail::trace::FailureDataset& a,
                  const hpcfail::trace::FailureDataset& b);

/// Minimal HTTP/1.0 GET against 127.0.0.1:port. Returns the status code
/// (0 when the connection failed) and fills `body`.
int http_get(int port, const std::string& target, std::string& body);

}  // namespace repobench
