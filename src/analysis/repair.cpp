#include "analysis/repair.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/error.hpp"
#include "obs/span.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

RepairReport repair_analysis(const trace::FailureDataset& dataset,
                             const trace::SystemCatalog& catalog) {
  hpcfail::obs::ScopedTimer timer("analysis.repair");
  HPCFAIL_EXPECTS(!dataset.empty(), "repair analysis of empty dataset");
  RepairReport report;

  // Table 2: per root cause. One pass over the start/end columns converts
  // every repair time (the division stays a division so the samples
  // match the record-level path bit for bit) and counts each cause; a
  // counting sort over the one-byte cause column then lays the times out
  // by cause in one exactly sized array, each cause's run in record order
  // as the per-cause scans used to collect it.
  const trace::ColumnsView records = dataset.records();
  const std::span<const trace::RootCause> causes = records.causes();
  const std::span<const hpcfail::Seconds> starts = records.starts();
  const std::span<const hpcfail::Seconds> ends = records.ends();
  std::array<std::size_t, trace::kAllRootCauses.size() + 1> first{};
  std::vector<double> all_minutes;
  all_minutes.reserve(causes.size());
  for (std::size_t i = 0; i < causes.size(); ++i) {
    all_minutes.push_back(static_cast<double>(ends[i] - starts[i]) / 60.0);
    ++first[trace::cause_index(causes[i]) + 1];
  }
  for (std::size_t k = 1; k < first.size(); ++k) first[k] += first[k - 1];
  {  // the grouped copy is freed before the fits below
    std::vector<double> by_cause(all_minutes.size());
    std::array<std::size_t, trace::kAllRootCauses.size()> next{};
    std::copy(first.begin(), first.end() - 1, next.begin());
    for (std::size_t i = 0; i < causes.size(); ++i) {
      by_cause[next[trace::cause_index(causes[i])]++] = all_minutes[i];
    }
    for (const trace::RootCause cause : trace::kAllRootCauses) {
      const std::size_t k = trace::cause_index(cause);
      if (first[k] == first[k + 1]) continue;
      RepairByCause entry;
      entry.cause = cause;
      entry.stats = hpcfail::stats::summarize(
          std::span(by_cause).subspan(first[k], first[k + 1] - first[k]));
      report.by_cause.push_back(entry);
    }
  }
  report.all = hpcfail::stats::summarize(all_minutes);

  // Fig 7(a): distribution fits over all repair times.
  report.fits = hpcfail::dist::fit_report(
      all_minutes, hpcfail::dist::standard_families());

  // Fig 7(b)/(c): per system, with the per-system distribution fits
  // batched across the shared pool.
  const trace::DatasetView view = dataset.view();
  std::vector<int> ids;
  std::vector<std::vector<double>> samples;
  for (const int id : dataset.index().system_ids()) {
    std::vector<double> minutes =
        view.for_system(id).repair_times_minutes();
    if (minutes.empty()) continue;
    ids.push_back(id);
    samples.push_back(std::move(minutes));
  }
  auto fit_reports = hpcfail::dist::fit_report_many(
      samples, hpcfail::dist::standard_families());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    RepairBySystem entry;
    entry.system_id = ids[i];
    entry.hw_type = catalog.system(ids[i]).hw_type;
    entry.failures = samples[i].size();
    const auto s = hpcfail::stats::summarize(samples[i]);
    entry.mean_minutes = s.mean;
    entry.median_minutes = s.median;
    entry.fits = std::move(fit_reports[i]);
    report.by_system.push_back(std::move(entry));
  }
  return report;
}

}  // namespace hpcfail::analysis
