#include "serve/analytics.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/export.hpp"
#include "trace/types.hpp"

namespace hpcfail::serve {

LiveAnalytics::LiveAnalytics(Options options) : options_(options) {
  repair_opts_.bucket_seconds = options_.bucket_seconds;
  repair_opts_.max_buckets = options_.max_buckets;
  repair_opts_.floor_at = options_.repair_floor_minutes;
  gap_opts_.bucket_seconds = options_.bucket_seconds;
  gap_opts_.max_buckets = options_.max_buckets;
  gap_opts_.floor_at = options_.gap_floor_seconds;
}

namespace {

std::uint64_t node_key(int system_id, int node_id) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(system_id))
          << 32) |
         static_cast<std::uint32_t>(node_id);
}

}  // namespace

LiveAnalytics::Cell& LiveAnalytics::cell(int system_id, int node_id,
                                         trace::RootCause cause) {
  const auto key = std::make_tuple(system_id, node_id, cause);
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    Cell fresh{dist::SlidingSuffStats(repair_opts_),
               dist::SlidingSuffStats(gap_opts_)};
    it = cells_.emplace(key, std::move(fresh)).first;
  }
  return it->second;
}

LiveAnalytics::SystemState& LiveAnalytics::system_state(int system_id) {
  auto it = systems_.find(system_id);
  if (it == systems_.end()) {
    SystemState fresh;
    fresh.system_gaps = dist::SlidingSuffStats(gap_opts_);
    it = systems_.emplace(system_id, std::move(fresh)).first;
  }
  return it->second;
}

void LiveAnalytics::observe(const trace::FailureRecord& r) {
  ++events_;
  if (r.start > latest_at_) latest_at_ = r.start;

  const auto [it, first_event] =
      nodes_.try_emplace(node_key(r.system_id, r.node_id));
  NodeState& node = it->second;
  if (first_event) {
    node.last_start = r.start;
    node.system = &system_state(r.system_id);
  }
  Cell*& slot = node.cells[trace::cause_index(r.cause)];
  if (slot == nullptr) slot = &cell(r.system_id, r.node_id, r.cause);
  Cell& c = *slot;
  c.repair_minutes.add(r.start, r.downtime_minutes());

  // Per-node gap: consecutive failures of the same node, attributed at
  // (and to the cause of) the later event. Out-of-order arrivals with a
  // negative gap are skipped — trace::LiveDataset::node_starts() remains
  // the exact source for those.
  if (!first_event) {
    const Seconds gap = r.start - node.last_start;
    if (gap >= 0) {
      c.node_gaps.add(r.start, static_cast<double>(gap));
      node.last_start = r.start;
    }
  }

  SystemState& sys = *node.system;
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

void LiveAnalytics::compact_before(Seconds horizon) {
  for (auto& [key, c] : cells_) {
    compacted_ += c.repair_minutes.evict_before(horizon).n;
    compacted_ += c.node_gaps.evict_before(horizon).n;
  }
  for (auto& [id, sys] : systems_) {
    compacted_ += sys.system_gaps.evict_before(horizon).n;
  }
}

WindowReport LiveAnalytics::report(int system_id, Seconds window) const {
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
    // Degenerate window (empty or constant): serve moments without fits.
  }
  try {
    out.node_gap_fits = dist::fit_report_from_stats(out.node_gaps_seconds);
  } catch (const Error&) {
  }
  return out;
}

std::vector<int> LiveAnalytics::system_ids() const {
  std::vector<int> ids;
  ids.reserve(systems_.size());
  for (const auto& [id, state] : systems_) ids.push_back(id);
  return ids;
}

namespace {

void append_stats(std::string& out, const char* name,
                  const dist::SuffStats& s) {
  out += '"';
  out += name;
  out += "\":{\"n\":" + std::to_string(s.n);
  if (s.n > 0) {
    out += ",\"mean\":" + format_double(s.mean());
    out += ",\"cv2\":" + format_double(s.cv_squared());
    out += ",\"min\":" + format_double(s.min);
    out += ",\"max\":" + format_double(s.max);
  }
  out += '}';
}

void append_fits(std::string& out, const char* name,
                 const dist::FitReport& fits) {
  out += '"';
  out += name;
  out += "\":[";
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const dist::FitResult& f = fits[i];
    if (i != 0) out += ',';
    out += "{\"family\":\"" + dist::to_string(f.family) + '"';
    out += ",\"nll\":" + format_double(f.nll);
    out += ",\"aic\":" + format_double(f.aic);
    out += ",\"model\":\"" + obs::json_escape(f.model->describe()) + "\"}";
  }
  out += ']';
}

}  // namespace

std::string to_json(const WindowReport& report) {
  std::string out;
  out.reserve(1024);
  out += "{\"schema\":\"hpcfail.serve.report\",\"version\":1";
  out += ",\"system\":" + std::to_string(report.system_id);
  out += ",\"window_seconds\":" + std::to_string(report.window);
  out += ",\"now\":\"" + format_timestamp(report.now) + '"';
  out += ",\"events_total\":" + std::to_string(report.events_total);
  out += ',';
  append_stats(out, "repair_minutes", report.repair_minutes);
  out += ',';
  append_stats(out, "node_gaps_seconds", report.node_gaps_seconds);
  out += ',';
  append_stats(out, "system_gaps_seconds", report.system_gaps_seconds);
  out += ",\"by_cause\":[";
  for (std::size_t i = 0; i < report.by_cause.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"cause\":\"" + trace::to_string(report.by_cause[i].cause) + "\",";
    append_stats(out, "repair_minutes", report.by_cause[i].repair_minutes);
    out += '}';
  }
  out += "],";
  append_fits(out, "repair_fits", report.repair_fits);
  out += ',';
  append_fits(out, "node_gap_fits", report.node_gap_fits);
  out += ",\"compacted\":{\"events\":" +
         std::to_string(report.compacted_events);
  out += ",\"by_cause\":[";
  for (std::size_t i = 0; i < report.compacted_by_cause.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"cause\":\"" +
           trace::to_string(report.compacted_by_cause[i].cause) + "\",";
    append_stats(out, "repair_minutes",
                 report.compacted_by_cause[i].repair_minutes);
    out += '}';
  }
  out += "]}";
  out += '}';
  return out;
}

}  // namespace hpcfail::serve
