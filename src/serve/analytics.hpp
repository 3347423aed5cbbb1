// Windowed live analytics for the streaming daemon.
//
// LiveAnalytics keeps one SlidingSuffStats cell per (system, node,
// root-cause) for repair times and per-node failure gaps, plus a
// per-system cell for the system-view failure process (Section 5.3's two
// views), all updated in O(log buckets) per event. observe() reaches
// everything one event touches — the node's last start, its cell for
// the event's cause, its system — with one hash probe keyed by the
// packed (system, node); the cells themselves live in ordered maps
// whose nodes never move, so report() merges them in (node, cause)
// order, the same order whatever the arrival order. report() merges the
// covered buckets and derives the windowed moments (mean, C²) and a
// streaming FitReport (dist::fit_report_from_stats) — no trace rescan,
// no retained samples, so a report over any window is O(cells x buckets)
// regardless of how many events were ingested.
//
// Windows are anchored at the *trace* clock (the latest event timestamp
// seen), not the wall clock, so replayed historical traces report
// sensibly. Not thread-safe: the server serializes observe()/report()
// behind its own mutex (both are cheap — neither ever triggers an index
// rebuild).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "dist/fit.hpp"
#include "dist/window.hpp"
#include "trace/record.hpp"
#include "trace/types.hpp"

namespace hpcfail::serve {

/// One root cause's windowed slice of a report.
struct CauseWindow {
  trace::RootCause cause = trace::RootCause::unknown;
  dist::SuffStats repair_minutes;
};

/// The windowed view of one system, as served by /report.
struct WindowReport {
  int system_id = 0;
  Seconds now = 0;     ///< window end (latest event time seen)
  Seconds window = 0;  ///< window length, seconds
  std::uint64_t events_total = 0;  ///< system's events since startup
  dist::SuffStats repair_minutes;      ///< windowed, all causes
  dist::SuffStats node_gaps_seconds;   ///< per-node view gaps
  dist::SuffStats system_gaps_seconds; ///< system-view gaps
  std::vector<CauseWindow> by_cause;   ///< ascending cause, non-empty only
  dist::FitReport repair_fits;         ///< empty when degenerate
  dist::FitReport node_gap_fits;       ///< empty when degenerate
  /// Compacted-ledger view (dataset retention): this system's raw events
  /// dropped past the retention horizon, surfaced as per-cause pooled
  /// repair SuffStats so /report still accounts for pre-horizon history.
  /// Zero/empty when retention never compacted anything for the system.
  std::uint64_t compacted_events = 0;
  std::vector<CauseWindow> compacted_by_cause;  ///< ascending cause
};

class LiveAnalytics {
 public:
  struct Options {
    Seconds bucket_seconds = kSecondsPerHour;
    std::size_t max_buckets = 24 * 14;  ///< two weeks of hourly buckets
    double repair_floor_minutes = 1e-9;
    /// Gap floor of 1 second: the traces have second resolution and
    /// simultaneous failures yield exact zeros (same convention as the
    /// batch interarrival fits).
    double gap_floor_seconds = 1.0;
  };

  LiveAnalytics() : LiveAnalytics(Options{}) {}
  explicit LiveAnalytics(Options options);

  // The per-node lookup holds pointers into cells_ and systems_: a move
  // keeps them valid, a copy would not.
  LiveAnalytics(const LiveAnalytics&) = delete;
  LiveAnalytics& operator=(const LiveAnalytics&) = delete;
  LiveAnalytics(LiveAnalytics&&) = default;
  LiveAnalytics& operator=(LiveAnalytics&&) = default;

  /// Folds one event into the repair and gap cells.
  void observe(const trace::FailureRecord& r);

  /// Windowed report for one system. `window` <= 0 falls back to
  /// 24 hours. Systems never seen yield an all-empty report (callers map
  /// that to 404).
  WindowReport report(int system_id, Seconds window) const;

  /// Evicts every bucket entirely before `horizon` from all cells — the
  /// analytics side of dataset retention, so windows and the sealed
  /// dataset agree on what history exists. Evicted observations are
  /// counted (compacted_observations()) and their bucket indices become
  /// a floor: late arrivals below it are dropped, never resurrected
  /// (see dist::SlidingSuffStats::evict_before).
  void compact_before(Seconds horizon);

  /// Observations de-windowed by compact_before across all cells.
  std::uint64_t compacted_observations() const noexcept {
    return compacted_;
  }

  /// Distinct systems observed, ascending.
  std::vector<int> system_ids() const;

  /// Latest event timestamp seen (the report clock); 0 before any event.
  Seconds latest_at() const noexcept { return latest_at_; }

  std::uint64_t events_observed() const noexcept { return events_; }

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
  /// Everything observe() needs for one (system, node). Created on the
  /// node's first event, so last_start is always set.
  struct NodeState {
    Seconds last_start = 0;
    /// By cause_index(); null until the node first fails with a cause.
    std::array<Cell*, trace::kAllRootCauses.size()> cells{};
    SystemState* system = nullptr;
  };

  Cell& cell(int system_id, int node_id, trace::RootCause cause);
  SystemState& system_state(int system_id);

  Options options_;
  dist::SlidingSuffStats::Options repair_opts_;
  dist::SlidingSuffStats::Options gap_opts_;
  /// (system, node, cause) -> repair/gap accumulators.
  std::map<std::tuple<int, int, trace::RootCause>, Cell> cells_;
  std::map<int, SystemState> systems_;
  /// Packed (system, node) -> that node's state; points into the maps.
  std::unordered_map<std::uint64_t, NodeState> nodes_;
  Seconds latest_at_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t compacted_ = 0;
};

/// Renders a WindowReport as the /report JSON document.
std::string to_json(const WindowReport& report);

}  // namespace hpcfail::serve
