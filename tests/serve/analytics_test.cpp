// Differential test of LiveAnalytics against the three-ordered-map
// implementation it replaced: one (system, node, cause) map for the
// cells, one (system, node) map for each node's last start and one map
// for the systems, each looked up per event. The reference is kept here
// verbatim in behaviour; the live class must produce byte-equal /report
// documents and the same compaction count on any event stream.
#include "serve/analytics.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "dist/fit.hpp"
#include "dist/window.hpp"
#include "trace/record.hpp"
#include "trace/types.hpp"

namespace hpcfail::serve {
namespace {

class ReferenceAnalytics {
 public:
  explicit ReferenceAnalytics(LiveAnalytics::Options options)
      : options_(options) {
    repair_opts_.bucket_seconds = options_.bucket_seconds;
    repair_opts_.max_buckets = options_.max_buckets;
    repair_opts_.floor_at = options_.repair_floor_minutes;
    gap_opts_.bucket_seconds = options_.bucket_seconds;
    gap_opts_.max_buckets = options_.max_buckets;
    gap_opts_.floor_at = options_.gap_floor_seconds;
  }

  void observe(const trace::FailureRecord& r) {
    if (r.start > latest_at_) latest_at_ = r.start;
    const auto key = std::make_tuple(r.system_id, r.node_id, r.cause);
    auto cit = cells_.find(key);
    if (cit == cells_.end()) {
      cit = cells_
                .emplace(key, Cell{dist::SlidingSuffStats(repair_opts_),
                                   dist::SlidingSuffStats(gap_opts_)})
                .first;
    }
    Cell& c = cit->second;
    c.repair_minutes.add(r.start, r.downtime_minutes());

    const std::pair<int, int> node_key{r.system_id, r.node_id};
    auto last = last_node_start_.find(node_key);
    if (last != last_node_start_.end()) {
      const Seconds gap = r.start - last->second;
      if (gap >= 0) {
        c.node_gaps.add(r.start, static_cast<double>(gap));
        last->second = r.start;
      }
    } else {
      last_node_start_.emplace(node_key, r.start);
    }

    auto sit = systems_.find(r.system_id);
    if (sit == systems_.end()) {
      SystemState fresh;
      fresh.system_gaps = dist::SlidingSuffStats(gap_opts_);
      sit = systems_.emplace(r.system_id, std::move(fresh)).first;
    }
    SystemState& sys = sit->second;
    ++sys.events;
    if (sys.has_last) {
      const Seconds gap = r.start - sys.last_start;
      if (gap >= 0) {
        sys.system_gaps.add(r.start, static_cast<double>(gap));
        sys.last_start = r.start;
      }
    } else {
      sys.last_start = r.start;
      sys.has_last = true;
    }
  }

  void compact_before(Seconds horizon) {
    for (auto& [key, c] : cells_) {
      compacted_ += c.repair_minutes.evict_before(horizon).n;
      compacted_ += c.node_gaps.evict_before(horizon).n;
    }
    for (auto& [id, sys] : systems_) {
      compacted_ += sys.system_gaps.evict_before(horizon).n;
    }
  }

  std::uint64_t compacted_observations() const { return compacted_; }

  WindowReport report(int system_id, Seconds window) const {
    WindowReport out;
    out.system_id = system_id;
    out.now = latest_at_;
    out.window = window > 0 ? window : 24 * kSecondsPerHour;
    out.repair_minutes.floor_at = options_.repair_floor_minutes;
    out.node_gaps_seconds.floor_at = options_.gap_floor_seconds;
    out.system_gaps_seconds.floor_at = options_.gap_floor_seconds;

    std::map<trace::RootCause, dist::SuffStats> by_cause;
    const auto first = cells_.lower_bound(
        std::make_tuple(system_id, 0, static_cast<trace::RootCause>(0)));
    for (auto it = first;
         it != cells_.end() && std::get<0>(it->first) == system_id; ++it) {
      const dist::SuffStats repair =
          it->second.repair_minutes.window_stats(out.now, out.window);
      const dist::SuffStats gaps =
          it->second.node_gaps.window_stats(out.now, out.window);
      out.repair_minutes.merge(repair);
      out.node_gaps_seconds.merge(gaps);
      if (repair.n > 0) {
        auto& slot = by_cause[std::get<2>(it->first)];
        if (slot.n == 0) slot.floor_at = repair.floor_at;
        slot.merge(repair);
      }
    }
    for (auto& [cause, stats] : by_cause) {
      out.by_cause.push_back(CauseWindow{cause, stats});
    }
    const auto sys = systems_.find(system_id);
    if (sys != systems_.end()) {
      out.events_total = sys->second.events;
      out.system_gaps_seconds =
          sys->second.system_gaps.window_stats(out.now, out.window);
    }
    try {
      out.repair_fits = dist::fit_report_from_stats(out.repair_minutes);
    } catch (const Error&) {
    }
    try {
      out.node_gap_fits = dist::fit_report_from_stats(out.node_gaps_seconds);
    } catch (const Error&) {
    }
    return out;
  }

 private:
  struct Cell {
    dist::SlidingSuffStats repair_minutes;
    dist::SlidingSuffStats node_gaps;
  };
  struct SystemState {
    std::uint64_t events = 0;
    Seconds last_start = 0;
    bool has_last = false;
    dist::SlidingSuffStats system_gaps;
  };

  LiveAnalytics::Options options_;
  dist::SlidingSuffStats::Options repair_opts_;
  dist::SlidingSuffStats::Options gap_opts_;
  std::map<std::tuple<int, int, trace::RootCause>, Cell> cells_;
  std::map<std::pair<int, int>, Seconds> last_node_start_;
  std::map<int, SystemState> systems_;
  Seconds latest_at_ = 0;
  std::uint64_t compacted_ = 0;
};

/// One detail cause of each high-level category, so records stay
/// consistent.
trace::DetailCause detail_for(trace::RootCause cause) {
  switch (cause) {
    case trace::RootCause::hardware: return trace::DetailCause::memory_dimm;
    case trace::RootCause::software: return trace::DetailCause::scheduler;
    case trace::RootCause::network: return trace::DetailCause::nic;
    case trace::RootCause::environment:
      return trace::DetailCause::power_outage;
    case trace::RootCause::human: return trace::DetailCause::operator_error;
    case trace::RootCause::unknown: return trace::DetailCause::undetermined;
  }
  return trace::DetailCause::undetermined;
}

/// 3 systems x 50 nodes x 6 causes, ~30 minutes apart on average (ties
/// included), about 5% of them arriving up to two days late.
std::vector<trace::FailureRecord> random_stream(std::size_t n,
                                                std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> system(1, 3);
  std::uniform_int_distribution<int> node(0, 49);
  std::uniform_int_distribution<std::size_t> cause(
      0, trace::kAllRootCauses.size() - 1);
  std::uniform_int_distribution<Seconds> step(0, 3600);
  std::uniform_int_distribution<Seconds> lateness(1, 2 * 86400);
  std::uniform_int_distribution<Seconds> downtime(0, 6 * 3600);
  std::uniform_int_distribution<int> percent(0, 99);
  std::vector<trace::FailureRecord> out;
  out.reserve(n);
  Seconds clock = to_epoch(2004, 1, 1);
  while (out.size() < n) {
    clock += step(rng);
    trace::FailureRecord r;
    r.system_id = system(rng);
    r.node_id = node(rng);
    r.start = percent(rng) < 5 ? clock - lateness(rng) : clock;
    r.end = r.start + downtime(rng);
    r.cause = trace::kAllRootCauses[cause(rng)];
    r.detail = detail_for(r.cause);
    out.push_back(r);
  }
  return out;
}

TEST(LiveAnalyticsDiff, MatchesThreeMapReferenceByteForByte) {
  const std::vector<trace::FailureRecord> stream = random_stream(20000, 15);
  const LiveAnalytics::Options options;
  LiveAnalytics live(options);
  ReferenceAnalytics reference(options);

  const auto expect_equal_reports = [&](const char* phase) {
    SCOPED_TRACE(phase);
    for (int system = 0; system <= 4; ++system) {  // 0 and 4: never seen
      for (const Seconds hours : {1, 24, 336, 87600}) {
        const Seconds window = hours * kSecondsPerHour;
        EXPECT_EQ(to_json(live.report(system, window)),
                  to_json(reference.report(system, window)))
            << "system " << system << ", " << hours << " h";
      }
    }
    EXPECT_EQ(live.compacted_observations(),
              reference.compacted_observations());
  };

  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    live.observe(stream[i]);
    reference.observe(stream[i]);
  }
  expect_equal_reports("before compaction");

  // Drop the first quarter of the trace clock's history from both.
  const Seconds horizon =
      stream.front().start + (live.latest_at() - stream.front().start) / 4;
  live.compact_before(horizon);
  reference.compact_before(horizon);
  ASSERT_GT(reference.compacted_observations(), 0u);

  for (std::size_t i = half; i < stream.size(); ++i) {
    live.observe(stream[i]);
    reference.observe(stream[i]);
  }
  expect_equal_reports("after compaction");
  EXPECT_EQ(live.events_observed(), stream.size());
  EXPECT_EQ(live.system_ids(), (std::vector<int>{1, 2, 3}));
}

// The per-node lookup points into the cell maps; a moved-to instance
// must keep updating the same cells.
TEST(LiveAnalyticsDiff, MovedInstanceKeepsObserving) {
  const std::vector<trace::FailureRecord> stream = random_stream(2000, 16);
  const LiveAnalytics::Options options;
  LiveAnalytics moved_from(options);
  ReferenceAnalytics reference(options);
  for (std::size_t i = 0; i < 1000; ++i) {
    moved_from.observe(stream[i]);
    reference.observe(stream[i]);
  }
  LiveAnalytics live(std::move(moved_from));
  for (std::size_t i = 1000; i < stream.size(); ++i) {
    live.observe(stream[i]);
    reference.observe(stream[i]);
  }
  for (int system = 1; system <= 3; ++system) {
    EXPECT_EQ(to_json(live.report(system, 336 * kSecondsPerHour)),
              to_json(reference.report(system, 336 * kSecondsPerHour)));
  }
}

}  // namespace
}  // namespace hpcfail::serve
