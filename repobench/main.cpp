// repobench: the repository benchmark.
//
//   repobench --workload batch_report|serve_ingest|serve_query
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs one workload, checks its correctness gates, prints the counts it
// ran with, the metrics by name with their units and, as the last line
// of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones (from spans, see spans.hpp), followed on the
// human-readable lines by the tracing overhead on each end-to-end
// metric. Exit code 0 when every gate passed, 1 when one failed, 2 on a
// usage error. README.md documents the workloads and metrics.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "spans.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "trace/catalog.hpp"

namespace repobench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"records_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// Printed beside the end-to-end metrics but not in the JSON: on this
// shared host their run-to-run spread exceeds any bound the benchmark
// may set (README.md, "Steadiness").
constexpr MetricSpec kLatency[] = {
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.generate_s", "s"},
    {"trace.write_csv_s", "s"},
    {"serve.seed_observe_s", "s"},
    {"trace.read_csv_s", "s"},
    {"trace.validate_s", "s"},
    {"trace.index_s", "s"},
    {"analysis.root_cause_s", "s"},
    {"analysis.failure_rates_s", "s"},
    {"analysis.node_distribution_s", "s"},
    {"analysis.interarrival_s", "s"},
    {"analysis.per_node_fits_s", "s"},
    {"analysis.lifetime_s", "s"},
    {"analysis.trend_s", "s"},
    {"analysis.hazard_s", "s"},
    {"analysis.correlation_s", "s"},
    {"analysis.outliers_s", "s"},
    {"analysis.repair_s", "s"},
    {"analysis.availability_s", "s"},
    {"analysis.periodicity_s", "s"},
    {"report.render_s", "s"},
    {"common.thread_pool.cpu_per_wall", "ratio"},
    {"analysis.calls", "count"},
    {"analysis.calls_failed", "count"},
    {"dist.failed_families", "count"},
    {"trace.source.parse_s", "s"},
    {"trace.ingest.append_s", "s"},
    {"trace.ingest.seal_s", "s"},
    {"trace.ingest.seals", "count"},
    {"serve.analytics.observe_s", "s"},
    {"serve.replay.send_s", "s"},
    {"serve.drain_ms", "ms"},
    {"serve.shard_skew", "ratio"},
    {"serve.rejected", "count"},
    {"serve.http.report_24h_ms", "ms"},
    {"serve.http.report_168h_ms", "ms"},
    {"serve.http.report_336h_ms", "ms"},
    {"serve.http.report_idle_ms", "ms"},
    {"serve.analytics.report_ms", "ms"},
    {"serve.ingest_lag_events", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "repobench: " << why
            << "\nusage: repobench --workload batch_report|serve_ingest|"
               "serve_query --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  o.work_dir = ".bench_build/repobench-work";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed required");
  if (!(o.seconds > 0.0) || o.seconds > 120.0) {
    usage("--seconds must be in (0, 120]");
  }
  return o;
}

/// Per-layer value of `spec` from the span medians or the workload's
/// own per-layer numbers; 0 when the layer is not on the workload's
/// path.
double layer_value(const MetricSpec& spec,
                   const std::map<std::string, double>& span_seconds,
                   const Result& result) {
  const std::string name = spec.name;
  const auto own = result.layers.find(name);
  if (own != result.layers.end()) return own->second;
  const auto strip = [&](std::size_t n) {
    return name.substr(0, name.size() - n);
  };
  if (name.ends_with("_ms")) {
    const auto it = span_seconds.find(strip(3));
    return it == span_seconds.end() ? 0.0 : it->second * 1e3;
  }
  if (name.ends_with("_s")) {
    const auto it = span_seconds.find(strip(2));
    return it == span_seconds.end() ? 0.0 : it->second;
  }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

}  // namespace

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::cout << "GATE FAILED: " << what << "\n";
  correct = false;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::map<std::string, double> latency_metrics(const std::vector<double>& ms) {
  return {{"query_p50_ms", quantile(ms, 0.50)},
          {"query_p99_ms", quantile(ms, 0.99)}};
}

std::string latency_summary(const std::vector<double>& ms) {
  std::ostringstream out;
  out << "latency_ms n=" << ms.size();
  for (const auto& [label, q] :
       {std::pair{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99},
        {"max", 1.0}}) {
    out << " " << label << "=" << quantile(ms, q);
  }
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // Return freed heap to the OS first, so every request starts from the
  // same resident baseline: its live data.
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current resident set
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

hpcfail::trace::FailureDataset generate_lanl(std::uint64_t seed,
                                              double scale) {
  hpcfail::synth::ScenarioConfig config = hpcfail::synth::lanl_scenario(seed);
  for (auto& system : config.systems) system.failures_per_year *= scale;
  const hpcfail::synth::TraceGenerator generator(
      hpcfail::trace::SystemCatalog::lanl(), std::move(config));
  return generator.generate();
}

bool same_columns(const hpcfail::trace::FailureDataset& a,
                  const hpcfail::trace::FailureDataset& b) {
  const auto x = a.records();
  const auto y = b.records();
  return x.size() == y.size() &&
         std::ranges::equal(x.system_ids(), y.system_ids()) &&
         std::ranges::equal(x.node_ids(), y.node_ids()) &&
         std::ranges::equal(x.starts(), y.starts()) &&
         std::ranges::equal(x.ends(), y.ends()) &&
         std::ranges::equal(x.workloads(), y.workloads()) &&
         std::ranges::equal(x.causes(), y.causes()) &&
         std::ranges::equal(x.details(), y.details());
}

int http_get(int port, const std::string& target, std::string& body) {
  body.clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return 0;
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return 0;
  }
  std::string response;
  char buffer[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 200 OK\r\n...\r\n\r\nbody"
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return 0;
  const int status = std::atoi(response.c_str() + 9);
  const std::size_t split = response.find("\r\n\r\n");
  if (split != std::string::npos) body = response.substr(split + 4);
  return status;
}

}  // namespace repobench

int main(int argc, char** argv) {
  using namespace repobench;
  const Options options = parse_args(argc, argv);
  std::filesystem::create_directories(options.work_dir);

  std::cout << "workload=" << options.workload << "\nseed=" << options.seed
            << "\nseconds=" << options.seconds
            << "\ntrace=" << (options.trace ? 1 : 0)
            << "\nnproc=" << std::thread::hardware_concurrency() << "\n";

  Result result;
  try {
    if (options.workload == "batch_report") {
      result = run_batch_report(options);
    } else if (options.workload == "serve_ingest") {
      result = run_serve_ingest(options);
    } else if (options.workload == "serve_query") {
      result = run_serve_query(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cout << "repobench: workload aborted: " << e.what() << "\n";
    return 1;
  }
  tracer().set_enabled(false);
  for (const std::string& line : result.info) std::cout << line << "\n";

  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  std::cout << "attempted=" << result.attempted
            << "\nfailed=" << result.failed << "\nerror_rate ratio "
            << error_rate << "\n";

  std::ostringstream metrics;
  const auto add_metric = [&](const char* name, double value,
                              const char* unit) {
    std::cout << name << " " << unit << " " << json_number(value) << "\n";
    if (metrics.tellp() > 0) metrics << ", ";
    metrics << "\"" << name << "\": {\"value\": " << json_number(value)
            << ", \"unit\": \"" << unit << "\"}";
  };

  if (!options.trace) {
    std::cout << "-- end-to-end (metric unit value)\n";
    for (const MetricSpec& m : kEndToEnd) {
      add_metric(m.name, result.end_to_end[m.name], m.unit);
    }
    std::cout << "-- latency, not gated (metric unit value)\n";
    for (const MetricSpec& m : kLatency) {
      std::cout << m.name << " " << m.unit << " "
                << json_number(result.end_to_end[m.name]) << "\n";
    }
  } else {
    const std::map<std::string, double> span_seconds =
        tracer().median_self_seconds();
    std::cout << "-- per-layer (metric unit value; self time, median over "
                 "requests)\n";
    for (const MetricSpec& m : kPerLayer) {
      add_metric(m.name, layer_value(m, span_seconds, result), m.unit);
    }
    std::cout << "-- tracing overhead (metric unit untraced traced "
                 "traced-untraced)\n";
    for (const auto table : {std::span<const MetricSpec>(kEndToEnd),
                             std::span<const MetricSpec>(kLatency)}) {
      for (const MetricSpec& m : table) {
        const double off = result.end_to_end[m.name];
        const double on = result.traced[m.name];
        std::cout << "overhead." << m.name << " " << m.unit << " "
                  << json_number(off) << " " << json_number(on) << " "
                  << json_number(on - off) << "\n";
      }
    }
    std::cout << "overhead.span_buffer MiB "
              << static_cast<double>(tracer().bytes()) / (1024.0 * 1024.0)
              << " (" << tracer().size() << " spans)\n";
    const std::string dump = options.work_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    tracer().write_jsonl(dump);
    std::cout << "spans written to " << dump << "\n";
  }

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
