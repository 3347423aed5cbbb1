// Campaign engine throughput: injected faults per second, single-core
// and at full parallelism, on a renewal-heavy grid sized so one run
// injects hundreds of faults.
//
// Writes a JSON summary to the output path given as argv[1] (stdout when
// omitted). The JSON is committed as BENCH_PR7.json and its single-core
// faults/sec number is gated in CI by tools/check_bench_floor.py with a
// floor set well below measured throughput (single-shot CI runs see
// 1.5x scheduling noise). The run also cross-checks that single-core and
// parallel executions produce bit-identical results — a throughput
// number for a nondeterministic campaign would be meaningless.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace hpcfail;

/// Dense renewal faults (per-node MTBF 4 h over 3 days) against a
/// long-lived workload: each run delivers a few hundred faults.
sim::CampaignSpec bench_spec(std::size_t runs_per_cell) {
  sim::CampaignSpec spec;
  sim::CampaignScenario scenario =
      sim::weibull_renewal_scenario(64, 4.0 * 3600.0, 3.0 * 86400.0);
  scenario.name = "bench-renewal";
  scenario.job_count = 96;
  spec.scenarios = {scenario};
  spec.policies = {sim::periodic_checkpoint_policy(3600.0)};
  spec.runs_per_cell = runs_per_cell;
  spec.seed = 1234;
  return spec;
}

struct Measurement {
  unsigned threads = 0;
  std::size_t runs = 0;
  std::uint64_t faults = 0;
  double seconds = 0.0;
  double faults_per_sec = 0.0;
  std::vector<sim::CampaignRunResult> results;
};

Measurement measure(const sim::Campaign& campaign, unsigned threads) {
  set_parallelism(threads);
  const auto start = std::chrono::steady_clock::now();
  sim::CampaignResult result = campaign.run();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  Measurement m;
  m.threads = threads;
  m.runs = result.runs.size();
  m.faults = result.total_faults_injected();
  m.seconds = wall.count();
  m.faults_per_sec = m.seconds > 0.0
                         ? static_cast<double>(m.faults) / m.seconds
                         : 0.0;
  m.results = std::move(result.runs);
  return m;
}

void write_measurement(std::ostream& out, const char* key,
                       const Measurement& m) {
  out << "  \"" << key << "\": {\n"
      << "    \"threads\": " << m.threads << ",\n"
      << "    \"runs\": " << m.runs << ",\n"
      << "    \"faults\": " << m.faults << ",\n"
      << "    \"seconds\": " << m.seconds << ",\n"
      << "    \"faults_per_sec\": " << m.faults_per_sec << "\n"
      << "  }";
}

void write_json(std::ostream& out, const Measurement& single,
                const Measurement& parallel, bool identical) {
  out << "{\n"
      << "  \"benchmark\": \"pr7_campaign\",\n"
      << "  \"threads_available\": " << hardware_parallelism() << ",\n";
  write_measurement(out, "single_core", single);
  out << ",\n";
  write_measurement(out, "parallel", parallel);
  out << ",\n"
      << "  \"parallel_speedup\": "
      << (single.seconds > 0.0 ? single.seconds / parallel.seconds : 0.0)
      << ",\n"
      << "  \"deterministic\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::cerr << "usage: bench_perf_campaign [OUT.json]\n";
    return 2;
  }
  const sim::Campaign campaign(bench_spec(256));

  // Warm-up run so one-time allocator/pool costs don't land in the
  // single-core measurement.
  set_parallelism(0);
  (void)campaign.execute_run(0, 0);

  const Measurement single = measure(campaign, 1);
  const Measurement parallel = measure(campaign, hardware_parallelism());
  set_parallelism(0);
  const bool identical = single.results == parallel.results;

  if (!identical) {
    std::cerr << "FATAL: campaign results differ across thread counts\n";
    return 1;
  }

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    write_json(out, single, parallel, identical);
    std::cerr << "wrote " << argv[1] << " (single-core "
              << static_cast<long long>(single.faults_per_sec)
              << " faults/sec, parallel "
              << static_cast<long long>(parallel.faults_per_sec) << ")\n";
  } else {
    write_json(std::cout, single, parallel, identical);
  }
  return 0;
}
