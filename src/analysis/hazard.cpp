#include "analysis/hazard.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "obs/span.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

HazardReport node_hazard_analysis(const trace::FailureDataset& dataset,
                                  int system_id,
                                  std::optional<Seconds> censor_at,
                                  std::size_t min_events) {
  hpcfail::obs::ScopedTimer timer("analysis.hazard");
  const trace::DatasetView scoped = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(!scoped.empty(), "system has no failures in the dataset");
  const Seconds horizon = censor_at.value_or(scoped.records().back().start);

  HazardReport report;
  // Last failure time per node in a flat table. A node's slot is its rank
  // among the system's distinct node ids, so the table is as small as the
  // node set whatever the ids are, and walking it visits nodes in
  // ascending id order.
  const trace::ColumnsView records = scoped.records();
  const std::span<const int> nodes = records.node_ids();
  const std::span<const Seconds> starts = records.starts();
  std::vector<int> ids(nodes.begin(), nodes.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  constexpr Seconds kNoFailure = std::numeric_limits<Seconds>::min();
  std::vector<Seconds> last_failure(ids.size(), kNoFailure);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Seconds& last = last_failure[static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), nodes[i]) - ids.begin())];
    if (last != kNoFailure && starts[i] >= last) {
      report.observations.push_back(
          {static_cast<double>(starts[i] - last), true});
      ++report.events;
    }
    last = starts[i];
  }
  // One right-censored interval per node: from its last failure to the
  // observation horizon.
  for (const Seconds last : last_failure) {
    if (horizon > last) {
      report.observations.push_back(
          {static_cast<double>(horizon - last), false});
      ++report.censored;
    }
  }
  HPCFAIL_EXPECTS(report.events >= min_events,
                  "too few interarrival events for hazard analysis");

  report.cumulative_hazard =
      hpcfail::stats::nelson_aalen(report.observations);
  report.log_log_slope = hpcfail::stats::log_log_hazard_slope(
      report.cumulative_hazard, min_events);
  return report;
}

}  // namespace hpcfail::analysis
