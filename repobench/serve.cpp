// serve_ingest and serve_query: the `hpcfail serve` daemon under a
// saturating write load and under reads beside a steady write trickle.
//
// serve_ingest: a fresh serve::Server (kIngestShards shards) per pass;
// one serve::replay_dataset client streams the whole ~1M-record LANL
// trace over kReplayConnections connections at speedup 0, so TCP
// backpressure makes the loop closed. A pass is timed from the first
// byte sent to the last event counted by the server. The first pass is
// an untimed warm-up (a fresh process ingests its first pass slower)
// whose /report answers must be byte-identical to those of a server
// seeded with the same trace (one connection keeps arrival order equal
// to trace order). Gates per pass: accepted + rejected == sent with 0
// rejected, and the final sealed snapshot is column-identical to the
// generated dataset.
//
// serve_query: one server (1 shard) seeded with the first part of the
// same LANL trace, the shortest prefix in which all 22 systems have
// appeared (~83% of it). The rest is streamed open loop at kTrickleRate
// events/s over one connection, repeated time-shifted for as long as
// the run lasts, while a closed-loop HTTP/1.0 client cycles /report over
// every system x {24, 168, 336} h after a kQueryWarmupSeconds warm-up.
// Gate: every response is a 200 whose JSON names the requested system.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "common/thread_pool.hpp"
#include "serve/analytics.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/types.hpp"

namespace repobench {

namespace {

using namespace hpcfail;

constexpr double kScale = 40.0;             // ~1M records
// One shard, one connection: with two of each the shards contend on the
// server's analytics mutex and the pass rate swung 307k..496k events/s
// between runs on a 4-vCPU guest (README.md, "Steadiness").
constexpr std::size_t kIngestShards = 1;
constexpr std::size_t kReplayConnections = 1;
constexpr double kTrickleRate = 40000.0;    // events/s, open loop
constexpr double kQueryWarmupSeconds = 1.0;
constexpr unsigned kThreads = 1;            // pool: seals index inline
constexpr int kSetupRepeats = 3;
constexpr int kWindowsHours[] = {24, 168, 336};
constexpr const char* kWindowSpans[] = {
    "serve.http.report_24h", "serve.http.report_168h",
    "serve.http.report_336h"};
constexpr std::size_t kChunkBytes = 64 * 1024;  // the server's recv size
constexpr int kIngestQueryCycles = 4;  // /report cycles after each pass

struct Query {
  int system = 0;
  int window_index = 0;
  std::string target;
  std::string needle;  ///< the body must name the requested system
};

std::vector<Query> report_queries(const trace::FailureDataset& ds) {
  std::vector<Query> out;
  for (const int system : ds.system_ids()) {
    for (int w = 0; w < 3; ++w) {
      out.push_back({system, w,
                     "/report?system=" + std::to_string(system) +
                         "&window_hours=" + std::to_string(kWindowsHours[w]),
                     "\"system\":" + std::to_string(system) + ","});
    }
  }
  return out;
}

/// Runs one /report query; returns its latency in ms (gate on failure).
double timed_query(int port, const Query& q, Result& result,
                   std::string* body_out = nullptr) {
  std::string body;
  const std::int64_t start = now_ns();
  const int status = http_get(port, q.target, body);
  const double ms = seconds_since(start) * 1e3;
  ++result.attempted;
  const bool ok = status == 200 && body.find(q.needle) != std::string::npos;
  if (!ok) ++result.failed;
  result.gate(ok, q.target + " answered status " + std::to_string(status));
  if (body_out) *body_out = std::move(body);
  return ms;
}

/// Waits until the server has counted `expected` events (accepted plus
/// rejected); false on a 60 s timeout.
bool wait_counted(const serve::Server& server, std::uint64_t expected) {
  const std::int64_t start = now_ns();
  while (server.events_ingested() + server.events_rejected() < expected) {
    if (seconds_since(start) > 60.0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// max / min of the per-shard "accepted" counts in a /stats body.
double shard_skew(const std::string& stats) {
  std::vector<double> accepted;
  std::size_t pos = stats.find("\"shards\":[");
  while (pos != std::string::npos) {
    pos = stats.find("\"accepted\":", pos);
    if (pos == std::string::npos) break;
    pos += 11;
    accepted.push_back(std::atof(stats.c_str() + pos));
  }
  if (accepted.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(accepted.begin(), accepted.end());
  return *lo > 0.0 ? *hi / *lo : 0.0;
}

// ---------------------------------------------------------------------
// serve_ingest

struct IngestPass {
  double events_per_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> query_ms;
};

IngestPass ingest_pass(const trace::FailureDataset& ds, std::uint64_t request,
                       Result& result, serve::Server* seeded) {
  reset_peak_rss();
  serve::ServerOptions options;
  options.ingest_threads = kIngestShards;
  serve::Server server(options);
  server.start();

  serve::ReplayOptions replay;
  replay.port = server.ingest_port();
  replay.connections = kReplayConnections;
  replay.speedup = 0.0;
  const std::int64_t start = now_ns();
  serve::ReplayStats sent;
  {
    const Scoped scoped("serve.replay.send", request);
    sent = serve::replay_dataset(ds, replay);
  }
  bool drained = false;
  {
    const Scoped scoped("serve.drain", request);
    drained = wait_counted(server, sent.events_sent);
  }
  IngestPass pass;
  pass.events_per_s =
      static_cast<double>(sent.events_sent) / seconds_since(start);

  result.attempted += sent.events_sent;
  result.failed += server.events_rejected();
  result.gate(drained && sent.events_sent == ds.size() &&
                  server.events_ingested() + server.events_rejected() ==
                      sent.events_sent,
              "ingest accounting: sent " + std::to_string(sent.events_sent) +
                  ", accepted " + std::to_string(server.events_ingested()) +
                  ", rejected " + std::to_string(server.events_rejected()));
  result.gate(server.events_rejected() == 0, "ingest rejected events");
  result.layers["serve.rejected"] += static_cast<double>(
      server.events_rejected());

  const std::vector<Query> queries = report_queries(ds);
  for (int cycle = 0; cycle < kIngestQueryCycles; ++cycle) {
    for (const Query& q : queries) {
      std::string body;
      pass.query_ms.push_back(timed_query(server.http_port(), q, result,
                                          seeded ? &body : nullptr));
      if (seeded && cycle == 0) {
        std::string expected;
        http_get(seeded->http_port(), q.target, expected);
        result.gate(body == expected,
                    q.target + " differs from the seeded server's");
      }
    }
  }
  std::string stats;
  http_get(server.http_port(), "/stats", stats);
  result.layers["serve.shard_skew"] = shard_skew(stats);

  server.stop();
  server.wait();
  result.gate(same_columns(*server.dataset().snapshot(), ds),
              "sealed snapshot is not column-identical to the trace");
  pass.peak_rss_mb = peak_rss_mb();
  return pass;
}

/// The server's per-event path in process, without sockets: the trace as
/// line-protocol text, fed to a LineSource in kChunkBytes chunks like the
/// server's reads, then LiveDataset::append (appends that advanced the
/// epoch are timed as trace.ingest.seal) and LiveAnalytics::observe.
void inprocess_pass(const std::string& stream, const trace::FailureDataset& ds,
                    std::uint64_t request, Result& result) {
  trace::LiveDataset live;
  serve::LiveAnalytics analytics;
  trace::LineSource source;
  std::vector<trace::FailureRecord> batch;
  std::uint64_t seals = 0;
  for (std::size_t offset = 0; offset < stream.size(); offset += kChunkBytes) {
    batch.clear();
    {
      const Scoped scoped("trace.source.parse", request);
      source.feed(std::string_view(stream).substr(offset, kChunkBytes));
      if (offset + kChunkBytes >= stream.size()) source.finish();
      trace::FailureRecord r;
      while (source.next(r) == trace::SourceStatus::event) batch.push_back(r);
    }
    {
      const Scoped scoped("trace.ingest.append", request);
      for (const trace::FailureRecord& r : batch) {
        const std::uint64_t epoch = live.epoch();
        const std::int64_t start = now_ns();
        live.append(r);
        if (live.epoch() != epoch) {
          tracer().record("trace.ingest.seal", request, start, now_ns());
          ++seals;
        }
      }
    }
    const Scoped scoped("serve.analytics.observe", request);
    for (const trace::FailureRecord& r : batch) analytics.observe(r);
  }
  {
    const Scoped scoped("trace.ingest.seal", request);
    live.seal();
    ++seals;
  }
  result.gate(source.counters().rejected == 0 &&
                  analytics.events_observed() == ds.size(),
              "in-process replay rejected events");
  result.gate(same_columns(*live.snapshot(), ds),
              "in-process sealed snapshot is not column-identical");
  result.layers["trace.ingest.seals"] = static_cast<double>(seals);
}

// ---------------------------------------------------------------------
// serve_query

/// Streams the trace suffix over one connection at a fixed rate, open
/// loop (deadlines from the start, not from the last send), with
/// pause/resume for the idle-latency leg. The suffix repeats as long as
/// the run lasts, each cycle shifted by `period` seconds so the trace
/// clock keeps moving forward and every node's events stay ordered.
class Trickle {
 public:
  Trickle(int port, std::vector<trace::FailureRecord> records, Seconds period)
      : records_(std::move(records)), period_(period) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw std::runtime_error("trickle: cannot connect to ingest port");
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~Trickle() {
    stop_ = true;
    thread_.join();
    ::close(fd_);
  }
  void pause(bool on) { paused_ = on; }
  std::uint64_t sent() const { return sent_.load(); }
  bool broken() const { return broken_; }
  /// How far behind its schedule the sender fell at worst, ms.
  double max_late_ms() const { return static_cast<double>(max_late_ns_) * 1e-6; }

 private:
  void append_line(std::string& out, std::uint64_t i) const {
    const trace::FailureRecord& r = records_[i % records_.size()];
    const Seconds shift =
        static_cast<Seconds>(i / records_.size()) * period_;
    out += std::to_string(r.system_id) + ',' + std::to_string(r.node_id) +
           ',' + format_timestamp(r.start + shift) + ',' +
           format_timestamp(r.end + shift) + ',' +
           trace::to_string(r.workload) + ',' + trace::to_string(r.cause) +
           ',' + trace::to_string(r.detail) + '\n';
  }

  void loop() {
    double credit_s = 0.0;  // unpaused time since start
    std::int64_t last = now_ns();
    std::uint64_t next = 0;
    std::string bytes;
    while (!stop_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::int64_t now = now_ns();
      if (!paused_) credit_s += static_cast<double>(now - last) * 1e-9;
      last = now;
      const auto due = static_cast<std::uint64_t>(credit_s * kTrickleRate);
      if (due <= next) continue;
      const auto late_ns = static_cast<std::int64_t>(
          (credit_s - static_cast<double>(next) / kTrickleRate) * 1e9);
      max_late_ns_ = std::max<std::int64_t>(max_late_ns_, late_ns);
      bytes.clear();
      for (; next < due; ++next) append_line(bytes, next);
      if (serve::send_fully(fd_, bytes) != bytes.size()) {
        broken_ = true;
        return;
      }
      sent_.store(next);
    }
  }

  std::vector<trace::FailureRecord> records_;
  Seconds period_ = 0;
  int fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> broken_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::int64_t> max_late_ns_{0};
};

}  // namespace

Result run_serve_ingest(const Options& options) {
  Result result;
  set_parallelism(kThreads);

  const int setups = options.trace ? kSetupRepeats + 1 : kSetupRepeats;
  std::vector<double> setup_off;
  std::vector<double> setup_on;
  trace::FailureDataset ds;
  std::unique_ptr<serve::Server> seeded;
  serve::ServerOptions seeded_options;
  seeded_options.ingest_threads = kIngestShards;
  for (int rep = 0; rep < setups; ++rep) {
    seeded.reset();
    const bool traced = options.trace && rep % 2 == 1;
    tracer().set_enabled(traced);
    const std::int64_t start = now_ns();
    {
      const Scoped scoped("synth.generate", rep);
      ds = generate_lanl(options.seed, kScale);
    }
    {
      trace::FailureDataset copy = ds;
      const Scoped scoped("serve.seed_observe", rep);
      seeded = std::make_unique<serve::Server>(seeded_options, std::move(copy));
    }
    seeded->start();
    (traced ? setup_on : setup_off).push_back(seconds_since(start));
  }
  tracer().set_enabled(false);

  // Warm-up, not timed: the replayed-vs-seeded /report identity pass.
  std::string pass_rates =
      "pass_events_per_s=" +
      format_double(ingest_pass(ds, 0, result, seeded.get()).events_per_s,
                    6) +
      " |";
  seeded.reset();

  std::vector<double> rate_off, rate_on, rss_off, rss_on, query_off,
      query_on;
  const std::int64_t began = now_ns();
  const auto more = [&] {
    return rate_off.size() + rate_on.size() < 3 ||
           seconds_since(began) < options.seconds ||
           (!options.trace && query_off.size() < kMinLatencySamples);
  };
  for (std::uint64_t i = 1; more(); ++i) {
    const bool traced = options.trace && i % 2 == 0;
    tracer().set_enabled(traced);
    const IngestPass pass = ingest_pass(ds, i, result, nullptr);
    tracer().set_enabled(false);
    (traced ? rate_on : rate_off).push_back(pass.events_per_s);
    (traced ? rss_on : rss_off).push_back(pass.peak_rss_mb);
    pass_rates += " " + format_double(pass.events_per_s, 6);
    auto& q = traced ? query_on : query_off;
    q.insert(q.end(), pass.query_ms.begin(), pass.query_ms.end());
  }

  const auto end_to_end = [&](const std::vector<double>& setup,
                              const std::vector<double>& rates,
                              const std::vector<double>& rss,
                              const std::vector<double>& query_ms) {
    std::map<std::string, double> m = latency_metrics(query_ms);
    m["setup_s"] = median(setup);
    m["records_per_s"] = median(rates);
    m["peak_rss_mb"] = median(rss);
    return m;
  };
  result.end_to_end = end_to_end(setup_off, rate_off, rss_off, query_off);
  if (options.trace) {
    result.traced = end_to_end(setup_on, rate_on, rss_on, query_on);
    std::ostringstream csv;
    trace::write_csv(csv, ds);
    const std::string stream = csv.str().substr(csv.str().find('\n') + 1);
    tracer().set_enabled(true);
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      inprocess_pass(stream, ds, rep, result);
    }
    tracer().set_enabled(false);
  }

  result.info = {
      "threads=" + std::to_string(kThreads),
      "ingest_threads=" + std::to_string(kIngestShards),
      "connections=" + std::to_string(kReplayConnections),
      "scale=" + format_double(kScale, 4),
      "records=" + std::to_string(ds.size()),
      "passes=" + std::to_string(rate_off.size() + rate_on.size()) +
          " (+1 warm-up)",
      pass_rates,
      latency_summary(query_off),
      "events_per_s 1/s " + format_double(result.end_to_end["records_per_s"], 8),
  };
  return result;
}

Result run_serve_query(const Options& options) {
  Result result;
  set_parallelism(kThreads);

  const int setups = options.trace ? kSetupRepeats + 1 : kSetupRepeats;
  std::vector<double> setup_off;
  std::vector<double> setup_on;
  std::unique_ptr<serve::Server> server;
  std::vector<trace::FailureRecord> seed_records;
  std::vector<trace::FailureRecord> suffix;
  Seconds period = 0;
  std::vector<Query> queries;
  serve::ServerOptions server_options;
  server_options.ingest_threads = 1;
  for (int rep = 0; rep < setups; ++rep) {
    server.reset();
    const bool traced = options.trace && rep % 2 == 1;
    tracer().set_enabled(traced);
    const std::int64_t start = now_ns();
    trace::FailureDataset ds;
    {
      const Scoped scoped("synth.generate", rep);
      ds = generate_lanl(options.seed, kScale);
    }
    // The seed is the shortest prefix that knows every system (systems
    // enter production over the years); the suffix is the trickle.
    const auto records = ds.records();
    std::map<int, std::size_t> first_index;
    for (std::size_t i = 0; i < records.size(); ++i) {
      first_index.try_emplace(records[i].system_id, i);
    }
    std::size_t cut = 0;
    for (const auto& [system, index] : first_index) {
      cut = std::max(cut, index + 1);
    }
    seed_records.clear();
    suffix.clear();
    for (std::size_t i = 0; i < records.size(); ++i) {
      (i < cut ? seed_records : suffix).push_back(records[i]);
    }
    constexpr Seconds kWeek = 7 * 24 * kSecondsPerHour;
    period = ((suffix.back().start - suffix.front().start) / kWeek + 1) * kWeek;
    queries = report_queries(ds);
    {
      trace::FailureDataset seed(seed_records);
      const Scoped scoped("serve.seed_observe", rep);
      server =
          std::make_unique<serve::Server>(server_options, std::move(seed));
    }
    server->start();
    (traced ? setup_on : setup_off).push_back(seconds_since(start));
  }
  tracer().set_enabled(false);

  const std::size_t cycle_records = suffix.size();
  Trickle trickle(server->ingest_port(), std::move(suffix), period);
  const int port = server->http_port();
  const std::int64_t warm_start = now_ns();
  for (std::size_t q = 0; seconds_since(warm_start) < kQueryWarmupSeconds;
       ++q) {
    (void)timed_query(port, queries[q % queries.size()], result);
  }

  std::vector<double> ms_off, ms_on, lag;
  reset_peak_rss();
  const std::uint64_t ingested_start = server->events_ingested();
  const std::int64_t began = now_ns();
  std::uint64_t request = 0;
  while (seconds_since(began) < options.seconds ||
         (!options.trace && ms_off.size() < kMinLatencySamples)) {
    const bool traced = options.trace && (request / queries.size()) % 2 == 1;
    tracer().set_enabled(traced);
    for (const Query& q : queries) {
      {
        const Scoped scoped(kWindowSpans[q.window_index], request++);
        (traced ? ms_on : ms_off).push_back(timed_query(port, q, result));
      }
      lag.push_back(static_cast<double>(trickle.sent()) -
                    static_cast<double>(server->events_ingested()));
    }
    tracer().set_enabled(false);
  }
  const double rss = peak_rss_mb();
  const double ingest_rate =
      static_cast<double>(server->events_ingested() - ingested_start) /
      seconds_since(began);

  if (options.trace) {
    // Same queries with the trickle paused: the difference to the
    // under-ingest latency is the analytics-mutex contention.
    trickle.pause(true);
    const std::uint64_t sent = trickle.sent();
    result.gate(wait_counted(*server, sent), "trickle did not drain");
    tracer().set_enabled(true);
    for (int cycle = 0; cycle < 3; ++cycle) {
      for (const Query& q : queries) {
        const Scoped scoped("serve.http.report_idle", request++);
        (void)timed_query(port, q, result);
      }
    }
    // The analytics layer alone: identically seeded, no HTTP, no mutex.
    serve::LiveAnalytics analytics;
    for (const trace::FailureRecord& r : seed_records) analytics.observe(r);
    for (int cycle = 0; cycle < 3; ++cycle) {
      for (const Query& q : queries) {
        const Scoped scoped("serve.analytics.report", request++);
        (void)serve::to_json(analytics.report(
            q.system, kWindowsHours[q.window_index] * kSecondsPerHour));
      }
    }
    tracer().set_enabled(false);
    result.layers["serve.ingest_lag_events"] =
        lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  }
  result.gate(!trickle.broken(), "trickle connection broke");
  result.gate(server->events_rejected() == 0, "trickled events rejected");

  const auto end_to_end = [&](const std::vector<double>& setup,
                              const std::vector<double>& ms) {
    std::map<std::string, double> m = latency_metrics(ms);
    m["setup_s"] = median(setup);
    m["records_per_s"] = ingest_rate;
    m["peak_rss_mb"] = rss;
    return m;
  };
  result.end_to_end = end_to_end(setup_off, ms_off);
  if (options.trace) result.traced = end_to_end(setup_on, ms_on);

  result.info = {
      "threads=" + std::to_string(kThreads),
      "ingest_threads=1",
      "connections=1 trickle + 1 query client",
      "scale=" + format_double(kScale, 4),
      "seed_records=" + std::to_string(seed_records.size()),
      "trickle_cycle_records=" + std::to_string(cycle_records),
      "trickle_rate=" + format_double(kTrickleRate, 6),
      latency_summary(ms_off),
      "trickle_max_late_ms=" + format_double(trickle.max_late_ms(), 4),
      "events_per_s 1/s " + format_double(ingest_rate, 8),
  };
  return result;
}

}  // namespace repobench
