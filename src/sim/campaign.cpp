#include "sim/campaign.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <queue>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace hpcfail::sim {

namespace {

// ---------------------------------------------------------------------
// Spec fingerprinting: FNV-1a over a canonical byte walk of the spec.
// Renewal distributions contribute their describe() string — the full
// printed parameterization — which is plenty to tell two specs apart.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void hash_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void hash_u64(std::uint64_t& h, std::uint64_t v) { hash_bytes(h, &v, 8); }

void hash_double(std::uint64_t& h, double v) {
  hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

void hash_string(std::uint64_t& h, const std::string& s) {
  hash_u64(h, s.size());
  hash_bytes(h, s.data(), s.size());
}

std::uint64_t fingerprint_spec(const CampaignSpec& spec) {
  std::uint64_t h = kFnvOffset;
  hash_u64(h, 1);  // fingerprint format version
  hash_u64(h, spec.seed);
  hash_u64(h, spec.runs_per_cell);
  hash_u64(h, spec.ci.replicates);
  hash_double(h, spec.ci.confidence);
  hash_u64(h, spec.scenarios.size());
  for (const CampaignScenario& s : spec.scenarios) {
    hash_string(h, s.name);
    hash_u64(h, s.node_count);
    hash_double(h, s.horizon_seconds);
    hash_u64(h, s.repair_concurrency);
    hash_u64(h, static_cast<std::uint64_t>(s.faults.kind));
    if (s.faults.kind == FaultModelKind::scripted) {
      hash_u64(h, s.faults.scripted.size());
      for (const InjectedFault& f : s.faults.scripted) {
        hash_double(h, f.time);
        hash_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(f.node)));
        hash_double(h, f.repair_seconds);
      }
    } else {
      hash_string(h, s.faults.interarrival->describe());
      hash_string(h, s.faults.repair ? s.faults.repair->describe()
                                     : std::string("none"));
    }
    hash_u64(h, static_cast<std::uint64_t>(s.job_width));
    hash_double(h, s.job_work_seconds);
    hash_u64(h, s.job_count);
    hash_double(h, s.checkpoint_cost);
    hash_double(h, s.restart_cost);
  }
  hash_u64(h, spec.policies.size());
  for (const CampaignPolicy& p : spec.policies) {
    hash_string(h, p.name);
    hash_u64(h, static_cast<std::uint64_t>(p.placement));
    hash_double(h, p.checkpoint_interval);
  }
  return h;
}

void validate_spec(const CampaignSpec& spec) {
  HPCFAIL_EXPECTS(!spec.scenarios.empty(),
                  "campaign needs at least one scenario");
  HPCFAIL_EXPECTS(!spec.policies.empty(), "campaign needs at least one policy");
  HPCFAIL_EXPECTS(spec.runs_per_cell > 0,
                  "campaign needs at least one run per cell");
  std::vector<std::string> names;
  for (const CampaignScenario& s : spec.scenarios) {
    HPCFAIL_EXPECTS(!s.name.empty(), "scenario names must be non-empty");
    HPCFAIL_EXPECTS(std::find(names.begin(), names.end(), s.name) ==
                        names.end(),
                    "scenario names must be unique within a campaign");
    names.push_back(s.name);
    HPCFAIL_EXPECTS(s.node_count > 0, "scenario needs at least one node");
    HPCFAIL_EXPECTS(s.job_count > 0, "scenario needs at least one job");
    HPCFAIL_EXPECTS(s.job_work_seconds > 0.0, "job work must be positive");
    HPCFAIL_EXPECTS(s.job_width >= 1 &&
                        static_cast<std::size_t>(s.job_width) <= s.node_count,
                    "job width must fit the cluster");
    HPCFAIL_EXPECTS(s.checkpoint_cost >= 0.0 && s.restart_cost >= 0.0,
                    "checkpoint/restart costs must be non-negative");
    if (s.faults.kind == FaultModelKind::scripted) {
      double last = 0.0;
      for (const InjectedFault& f : s.faults.scripted) {
        HPCFAIL_EXPECTS(f.time >= last, "scripted faults must be time-ascending");
        HPCFAIL_EXPECTS(f.node >= 0 &&
                            static_cast<std::size_t>(f.node) < s.node_count,
                        "scripted fault node out of range");
        HPCFAIL_EXPECTS(f.repair_seconds >= 0.0,
                        "scripted repair must be non-negative");
        last = f.time;
      }
    } else {
      HPCFAIL_EXPECTS(s.faults.interarrival != nullptr,
                      "renewal scenario needs an interarrival distribution");
      HPCFAIL_EXPECTS(s.horizon_seconds > 0.0,
                      "renewal scenario needs a positive horizon");
    }
  }
  names.clear();
  for (const CampaignPolicy& p : spec.policies) {
    HPCFAIL_EXPECTS(!p.name.empty(), "policy names must be non-empty");
    HPCFAIL_EXPECTS(std::find(names.begin(), names.end(), p.name) ==
                        names.end(),
                    "policy names must be unique within a campaign");
    names.push_back(p.name);
    HPCFAIL_EXPECTS(p.checkpoint_interval >= 0.0,
                    "checkpoint interval must be non-negative");
  }
}

/// Materializes one run's injection schedule. Scripted models return the
/// script; renewal models draw each node's stream from the run RNG via
/// fork (const — the caller's generator state is untouched, so placement
/// draws later in the run are independent of schedule length).
std::vector<InjectedFault> materialize_schedule(const CampaignScenario& scen,
                                                const Rng& run_rng) {
  if (scen.faults.kind == FaultModelKind::scripted) {
    return scen.faults.scripted;
  }
  std::vector<InjectedFault> out;
  for (std::size_t node = 0; node < scen.node_count; ++node) {
    Rng stream = run_rng.fork(static_cast<std::uint64_t>(node));
    double t = 0.0;
    for (;;) {
      t += scen.faults.interarrival->sample(stream);
      if (!(t <= scen.horizon_seconds)) break;
      double repair = 0.0;
      if (scen.faults.repair) {
        repair = std::max(0.0, scen.faults.repair->sample(stream));
      }
      out.push_back({t, static_cast<int>(node), repair});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const InjectedFault& a, const InjectedFault& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.node < b.node;
                   });
  return out;
}

// ---------------------------------------------------------------------
// The per-run simulation engine. Event-driven with the same (time, seq)
// total order as sim/cluster.cpp: ties are broken by insertion order, so
// a fault landing at a job's exact completion instant (the fault events
// are inserted first) kills the job.

enum class EventKind : std::uint8_t { fault, repair_done, job_complete };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::fault;
  int arg = 0;  ///< fault: schedule index; repair_done: node; complete: job
  std::uint64_t stamp = 0;  ///< job attempt stamp (completion staleness)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct QueuedRepair {
  double fault_time = 0.0;
  int node = 0;
  double duration = 0.0;
};

class RunEngine {
 public:
  RunEngine(const CampaignScenario& scen, const CampaignPolicy& pol,
            std::vector<InjectedFault> schedule, Rng rng)
      : scen_(scen), pol_(pol), schedule_(std::move(schedule)),
        rng_(rng), down_(scen.node_count, 0),
        node_job_(scen.node_count, -1), sched_faults_(scen.node_count, 0),
        jobs_(scen.job_count) {
    for (const InjectedFault& f : schedule_) {
      ++sched_faults_[static_cast<std::size_t>(f.node)];
    }
    for (Job& job : jobs_) job.remaining = scen.job_work_seconds;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      pending_.push_back(static_cast<int>(j));
    }
  }

  CampaignRunResult run() {
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      push_event(schedule_[i].time, EventKind::fault, static_cast<int>(i), 0);
    }
    try_dispatch(0.0);
    while (!events_.empty() && jobs_done_ < jobs_.size()) {
      const Event e = events_.top();
      events_.pop();
      switch (e.kind) {
        case EventKind::fault:
          handle_fault(e.time, schedule_[static_cast<std::size_t>(e.arg)]);
          break;
        case EventKind::repair_done:
          handle_repair_done(e.time, e.arg);
          break;
        case EventKind::job_complete:
          handle_complete(e.time, e.arg, e.stamp);
          break;
      }
    }
    // Down nodes always have a repair event in flight or queued behind a
    // busy crew, so the queue can only drain with jobs still pending if
    // the engine is buggy.
    HPCFAIL_ASSERT(jobs_done_ == jobs_.size());
    return out_;
  }

 private:
  struct Job {
    double remaining = 0.0;        ///< work left at the next dispatch
    double pending_restart = 0.0;  ///< reload cost owed at the next dispatch
    double attempt_start = 0.0;
    double attempt_work = 0.0;     ///< `remaining` when the attempt began
    double attempt_restart = 0.0;  ///< `pending_restart` when it began
    std::vector<int> nodes;
    std::uint64_t stamp = 0;  ///< bumped per dispatch/kill; stales events
    bool running = false;
    bool done = false;
  };

  void push_event(double time, EventKind kind, int arg, std::uint64_t stamp) {
    events_.push(Event{time, next_seq_++, kind, arg, stamp});
  }

  /// Wall seconds attempt `work` + `restart` takes uninterrupted: a
  /// checkpoint write follows every full interval except the last
  /// segment.
  double attempt_wall(double work, double restart) const {
    const double tau = pol_.checkpoint_interval;
    double writes = 0.0;
    if (tau > 0.0) writes = std::max(0.0, std::ceil(work / tau) - 1.0);
    return restart + work + writes * scen_.checkpoint_cost;
  }

  void try_dispatch(double now) {
    while (!pending_.empty()) {
      candidates_.clear();
      for (std::size_t n = 0; n < scen_.node_count; ++n) {
        if (!down_[n] && node_job_[n] < 0) {
          candidates_.push_back(static_cast<int>(n));
        }
      }
      const auto width = static_cast<std::size_t>(scen_.job_width);
      if (candidates_.size() < width) return;
      const int j = pending_.front();
      pending_.pop_front();
      if (pol_.placement == PlacementPolicy::reliability_ranked) {
        // Prefer the nodes with the fewest scheduled faults (an operator
        // who knows the per-node rates); ties by node id.
        std::sort(candidates_.begin(), candidates_.end(),
                  [this](int a, int b) {
                    const auto fa = sched_faults_[static_cast<std::size_t>(a)];
                    const auto fb = sched_faults_[static_cast<std::size_t>(b)];
                    if (fa != fb) return fa < fb;
                    return a < b;
                  });
      } else {
        // Partial Fisher-Yates over the ascending candidate list: the
        // only RNG consumption in the engine, one draw per chosen node.
        for (std::size_t i = 0; i < width; ++i) {
          const std::size_t pick =
              i + static_cast<std::size_t>(
                      rng_.uniform_index(candidates_.size() - i));
          std::swap(candidates_[i], candidates_[pick]);
        }
      }
      Job& job = jobs_[static_cast<std::size_t>(j)];
      job.nodes.assign(candidates_.begin(),
                       candidates_.begin() + static_cast<std::ptrdiff_t>(width));
      std::sort(job.nodes.begin(), job.nodes.end());
      for (const int n : job.nodes) node_job_[static_cast<std::size_t>(n)] = j;
      job.attempt_start = now;
      job.attempt_work = job.remaining;
      job.attempt_restart = job.pending_restart;
      job.running = true;
      ++job.stamp;
      push_event(now + attempt_wall(job.attempt_work, job.attempt_restart),
                 EventKind::job_complete, j, job.stamp);
    }
  }

  void begin_repair(double now, double fault_time, int node, double duration) {
    out_.repair_wait += now - fault_time;
    out_.downtime += (now - fault_time) + duration;
    push_event(now + duration, EventKind::repair_done, node, 0);
  }

  void handle_fault(double now, const InjectedFault& fault) {
    ++out_.faults_injected;
    const auto n = static_cast<std::size_t>(fault.node);
    if (down_[n]) {
      // A fault on an already-down node is absorbed: it neither extends
      // the repair in progress nor queues a second one.
      ++out_.faults_absorbed;
      return;
    }
    down_[n] = 1;
    if (scen_.repair_concurrency == 0 ||
        crews_busy_ < scen_.repair_concurrency) {
      ++crews_busy_;
      begin_repair(now, now, fault.node, fault.repair_seconds);
    } else {
      repair_queue_.push_back({now, fault.node, fault.repair_seconds});
    }
    const int j = node_job_[n];
    if (j >= 0) kill_job(now, j);
  }

  void kill_job(double now, int j) {
    Job& job = jobs_[static_cast<std::size_t>(j)];
    const auto w = static_cast<double>(job.nodes.size());
    const double elapsed = now - job.attempt_start;
    // Split the attempt's elapsed node-seconds into restart phase, saved
    // work, checkpoint writes, and the lost tail since the last
    // checkpoint. e1 + e2 == elapsed, and saved + writes*cost +
    // (e2 - k*(tau+cost)) == e2, so the four buckets sum exactly to
    // elapsed * width.
    const double e1 = std::min(elapsed, job.attempt_restart);
    const double e2 = elapsed - e1;
    const double tau = pol_.checkpoint_interval;
    double saved = 0.0;
    double write_cost = 0.0;
    if (tau > 0.0 && e2 > 0.0) {
      const double cycles = std::floor(e2 / (tau + scen_.checkpoint_cost));
      saved = std::min(cycles * tau, job.attempt_work);
      write_cost = cycles * scen_.checkpoint_cost;
    }
    out_.restart_overhead += e1 * w;
    out_.useful_work += saved * w;
    out_.checkpoint_overhead += write_cost * w;
    out_.wasted_work += (e2 - saved - write_cost) * w;
    ++out_.interruptions;
    job.remaining = job.attempt_work - saved;
    job.pending_restart = scen_.restart_cost;
    job.running = false;
    ++job.stamp;  // stales the scheduled completion event
    for (const int n : job.nodes) node_job_[static_cast<std::size_t>(n)] = -1;
    job.nodes.clear();
    pending_.push_back(j);
    try_dispatch(now);
  }

  void handle_repair_done(double now, int node) {
    down_[static_cast<std::size_t>(node)] = 0;
    --crews_busy_;
    if (!repair_queue_.empty()) {
      const QueuedRepair next = repair_queue_.front();
      repair_queue_.pop_front();
      ++crews_busy_;
      begin_repair(now, next.fault_time, next.node, next.duration);
    }
    try_dispatch(now);
  }

  void handle_complete(double now, int j, std::uint64_t stamp) {
    Job& job = jobs_[static_cast<std::size_t>(j)];
    if (!job.running || job.stamp != stamp) return;  // stale attempt
    const auto w = static_cast<double>(job.nodes.size());
    const double tau = pol_.checkpoint_interval;
    double writes = 0.0;
    if (tau > 0.0) writes = std::max(0.0, std::ceil(job.attempt_work / tau) - 1.0);
    out_.useful_work += job.attempt_work * w;
    out_.checkpoint_overhead += writes * scen_.checkpoint_cost * w;
    out_.restart_overhead += job.attempt_restart * w;
    job.running = false;
    job.done = true;
    for (const int n : job.nodes) node_job_[static_cast<std::size_t>(n)] = -1;
    job.nodes.clear();
    ++jobs_done_;
    out_.makespan = now;
    try_dispatch(now);
  }

  const CampaignScenario& scen_;
  const CampaignPolicy& pol_;
  std::vector<InjectedFault> schedule_;
  Rng rng_;
  CampaignRunResult out_;

  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t next_seq_ = 0;

  std::vector<char> down_;
  std::vector<int> node_job_;
  std::vector<std::uint64_t> sched_faults_;
  std::vector<int> candidates_;

  std::vector<Job> jobs_;
  std::deque<int> pending_;
  std::size_t jobs_done_ = 0;

  std::size_t crews_busy_ = 0;
  std::deque<QueuedRepair> repair_queue_;
};

/// The body of load_campaign_checkpoint; its ParseErrors name the
/// problem, the caller adds the file.
CampaignCheckpoint read_checkpoint(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "hpcfail-campaign-checkpoint v1") {
    throw ParseError("bad header");
  }
  const auto expect_field = [&](const char* key) {
    if (!std::getline(in, line)) throw ParseError("truncated");
    std::istringstream fields(line);
    std::string name, value, extra;
    if (!(fields >> name >> value) || name != key || (fields >> extra)) {
      throw ParseError(std::string("expected '") + key + "' line");
    }
    return value;
  };
  CampaignCheckpoint checkpoint;
  checkpoint.fingerprint =
      parse_int<std::uint64_t>(expect_field("fingerprint"));
  checkpoint.total_runs = parse_int<std::size_t>(expect_field("total_runs"));
  const auto completed = parse_int<std::size_t>(expect_field("completed"));
  if (completed > checkpoint.total_runs) {
    throw ParseError("completed " + std::to_string(completed) +
                     " exceeds total_runs " +
                     std::to_string(checkpoint.total_runs));
  }
  for (std::size_t i = 0; i < completed; ++i) {
    if (!std::getline(in, line)) throw ParseError("truncated run list");
    std::istringstream fields(line);
    std::string tag;
    std::string token[12];
    if (!(fields >> tag) || tag != "run") {
      throw ParseError("expected 'run' line");
    }
    for (auto& t : token) {
      if (!(fields >> t)) throw ParseError("short run line");
    }
    std::string extra;
    if (fields >> extra) throw ParseError("long run line");
    CampaignRunResult r;
    r.cell = parse_int<std::uint32_t>(token[0]);
    r.replicate = parse_int<std::uint32_t>(token[1]);
    r.faults_injected = parse_int<std::uint64_t>(token[2]);
    r.faults_absorbed = parse_int<std::uint64_t>(token[3]);
    r.interruptions = parse_int<std::uint64_t>(token[4]);
    r.makespan = parse_double(token[5]);
    r.useful_work = parse_double(token[6]);
    r.wasted_work = parse_double(token[7]);
    r.checkpoint_overhead = parse_double(token[8]);
    r.restart_overhead = parse_double(token[9]);
    r.downtime = parse_double(token[10]);
    r.repair_wait = parse_double(token[11]);
    checkpoint.completed.push_back(r);
  }
  return checkpoint;
}

}  // namespace

double CampaignRunResult::waste_fraction() const {
  const double busy =
      useful_work + wasted_work + checkpoint_overhead + restart_overhead;
  if (busy <= 0.0) return 0.0;
  return (busy - useful_work) / busy;
}

std::uint64_t CampaignResult::total_faults_injected() const {
  std::uint64_t total = 0;
  for (const CampaignRunResult& r : runs) total += r.faults_injected;
  return total;
}

void save_campaign_checkpoint(const std::string& path,
                              const CampaignCheckpoint& checkpoint) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open campaign checkpoint for write: " + path);
  out << "hpcfail-campaign-checkpoint v1\n";
  out << "fingerprint " << checkpoint.fingerprint << "\n";
  out << "total_runs " << checkpoint.total_runs << "\n";
  out << "completed " << checkpoint.completed.size() << "\n";
  for (const CampaignRunResult& r : checkpoint.completed) {
    out << "run " << r.cell << ' ' << r.replicate << ' ' << r.faults_injected
        << ' ' << r.faults_absorbed << ' ' << r.interruptions << ' '
        << format_double(r.makespan, 17) << ' '
        << format_double(r.useful_work, 17) << ' '
        << format_double(r.wasted_work, 17) << ' '
        << format_double(r.checkpoint_overhead, 17) << ' '
        << format_double(r.restart_overhead, 17) << ' '
        << format_double(r.downtime, 17) << ' '
        << format_double(r.repair_wait, 17) << "\n";
  }
  out.flush();
  if (!out) throw IoError("failed writing campaign checkpoint: " + path);
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open campaign checkpoint: " + path);
  try {
    return read_checkpoint(in);
  } catch (const ParseError& e) {
    throw ParseError("campaign checkpoint " + path + ": " + e.what());
  }
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {
  validate_spec(spec_);
  fingerprint_ = fingerprint_spec(spec_);
}

std::size_t Campaign::cell_count() const {
  return spec_.scenarios.size() * spec_.policies.size();
}

std::size_t Campaign::total_runs() const {
  return cell_count() * spec_.runs_per_cell;
}

const CampaignScenario& Campaign::scenario_of_cell(std::size_t cell) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  return spec_.scenarios[cell / spec_.policies.size()];
}

const CampaignPolicy& Campaign::policy_of_cell(std::size_t cell) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  return spec_.policies[cell % spec_.policies.size()];
}

std::vector<InjectedFault> Campaign::schedule_for(std::size_t cell,
                                                  std::size_t replicate) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  HPCFAIL_EXPECTS(replicate < spec_.runs_per_cell,
                  "replicate index out of range");
  const Rng run_rng(mix_seed(spec_.seed, cell, replicate));
  return materialize_schedule(scenario_of_cell(cell), run_rng);
}

CampaignRunResult Campaign::execute_run(std::size_t cell,
                                        std::size_t replicate) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  HPCFAIL_EXPECTS(replicate < spec_.runs_per_cell,
                  "replicate index out of range");
  const auto started = std::chrono::steady_clock::now();
  const Rng run_rng(mix_seed(spec_.seed, cell, replicate));
  const CampaignScenario& scen = scenario_of_cell(cell);
  RunEngine engine(scen, policy_of_cell(cell),
                   materialize_schedule(scen, run_rng), run_rng);
  CampaignRunResult result = engine.run();
  result.cell = static_cast<std::uint32_t>(cell);
  result.replicate = static_cast<std::uint32_t>(replicate);
  if (obs::enabled()) {
    // Timing is observe-only (the engine never reads the clock), so the
    // results stay bit-identical with obs on or off.
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - started;
    obs::Registry& reg = obs::registry();
    reg.counter("campaign.faults_injected").add(result.faults_injected);
    reg.gauge("campaign.shard_ms").add(wall.count());
  }
  return result;
}

namespace {

/// Places `resume`'s runs into `slots`/`have` after validating that it
/// belongs to this campaign. Counts the resume in obs.
void absorb_checkpoint(const Campaign& campaign,
                       const CampaignCheckpoint& resume,
                       std::vector<CampaignRunResult>& slots,
                       std::vector<char>& have) {
  if (resume.fingerprint != campaign.fingerprint()) {
    throw ValidationError(
        "campaign checkpoint belongs to a different spec "
        "(fingerprint mismatch)");
  }
  if (resume.total_runs != campaign.total_runs()) {
    throw ValidationError("campaign checkpoint run-count mismatch");
  }
  const std::size_t rpc = campaign.spec().runs_per_cell;
  for (const CampaignRunResult& r : resume.completed) {
    if (r.cell >= campaign.cell_count() || r.replicate >= rpc) {
      throw ValidationError("campaign checkpoint run outside the grid");
    }
    const std::size_t idx = r.cell * rpc + r.replicate;
    if (have[idx]) {
      throw ValidationError("campaign checkpoint has duplicate runs");
    }
    slots[idx] = r;
    have[idx] = 1;
  }
  if (!resume.completed.empty() && obs::enabled()) {
    obs::registry().counter("campaign.resumes").add(1);
  }
}

}  // namespace

CampaignResult Campaign::run(const CampaignCheckpoint* resume) const {
  const std::size_t n = total_runs();
  const std::size_t rpc = spec_.runs_per_cell;
  std::vector<CampaignRunResult> slots(n);
  std::vector<char> have(n, 0);
  if (resume) absorb_checkpoint(*this, *resume, slots, have);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i) {
    if (!have[i]) todo.push_back(i);
  }
  const auto fresh =
      parallel_map(todo.size(), [this, &todo, rpc](std::size_t i) {
        const std::size_t idx = todo[i];
        return execute_run(idx / rpc, idx % rpc);
      });
  for (std::size_t i = 0; i < todo.size(); ++i) slots[todo[i]] = fresh[i];
  return assemble(std::move(slots));
}

CampaignCheckpoint Campaign::run_partial(
    std::size_t max_new_runs, const CampaignCheckpoint* resume) const {
  const std::size_t n = total_runs();
  const std::size_t rpc = spec_.runs_per_cell;
  std::vector<CampaignRunResult> slots(n);
  std::vector<char> have(n, 0);
  if (resume) absorb_checkpoint(*this, *resume, slots, have);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n && todo.size() < max_new_runs; ++i) {
    if (!have[i]) todo.push_back(i);
  }
  const auto fresh =
      parallel_map(todo.size(), [this, &todo, rpc](std::size_t i) {
        const std::size_t idx = todo[i];
        return execute_run(idx / rpc, idx % rpc);
      });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    slots[todo[i]] = fresh[i];
    have[todo[i]] = 1;
  }
  CampaignCheckpoint out;
  out.fingerprint = fingerprint_;
  out.total_runs = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (have[i]) out.completed.push_back(slots[i]);
  }
  return out;
}

CampaignResult Campaign::summarize(const CampaignCheckpoint& checkpoint) const {
  const std::size_t n = total_runs();
  std::vector<CampaignRunResult> slots(n);
  std::vector<char> have(n, 0);
  absorb_checkpoint(*this, checkpoint, slots, have);
  if (!checkpoint.complete()) {
    throw ValidationError("cannot summarize an incomplete campaign checkpoint");
  }
  return assemble(std::move(slots));
}

CampaignResult Campaign::assemble(std::vector<CampaignRunResult> runs) const {
  CampaignResult result;
  result.runs = std::move(runs);
  const std::size_t rpc = spec_.runs_per_cell;
  // Plain accumulation mean, bit-identical to the testkit reference
  // aggregate (and to stats::mean).
  const stats::Statistic mean_stat = [](std::span<const double> xs) {
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
  };
  result.cells.reserve(cell_count());
  for (std::size_t cell = 0; cell < cell_count(); ++cell) {
    CampaignCellSummary summary;
    summary.scenario = scenario_of_cell(cell).name;
    summary.policy = policy_of_cell(cell).name;
    summary.runs = rpc;
    std::vector<double> makespans, wastes, interrupts;
    makespans.reserve(rpc);
    wastes.reserve(rpc);
    interrupts.reserve(rpc);
    for (std::size_t rep = 0; rep < rpc; ++rep) {
      const CampaignRunResult& r = result.runs[cell * rpc + rep];
      summary.faults_injected += r.faults_injected;
      makespans.push_back(r.makespan);
      wastes.push_back(r.waste_fraction());
      interrupts.push_back(static_cast<double>(r.interruptions));
    }
    // Resample streams are keyed on (fingerprint, cell, metric), so the
    // summaries are as reproducible as the runs themselves.
    const auto boot = [&](std::uint64_t metric, std::span<const double> xs) {
      Rng rng(mix_seed(fingerprint_, cell, metric));
      return stats::bootstrap(xs, mean_stat, rng, spec_.ci);
    };
    summary.makespan = boot(0, makespans);
    summary.waste_fraction = boot(1, wastes);
    summary.interruptions = boot(2, interrupts);
    result.cells.push_back(std::move(summary));
  }
  return result;
}

}  // namespace hpcfail::sim
