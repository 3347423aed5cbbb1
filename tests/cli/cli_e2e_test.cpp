// End-to-end smokes of the streaming daemon through the real binaries:
// `hpcfail serve` on ephemeral ports (scraped from its key=value stdout),
// line-protocol events over TCP, HTTP readers, /shutdown, the exit log
// line, and the metrics dump validated by tools/check_metrics_schema.py;
// then `hpcfail replay` into a sharded server, accounting for every event
// and matching a server seeded from the same trace byte for byte.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/http_client.hpp"
#include "common/time.hpp"

namespace {

using hpcfail::test_client::connect_to;
using hpcfail::test_client::http_get;
using hpcfail::test_client::HttpResponse;
using hpcfail::test_client::send_all;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A per-process scratch directory, removed with everything in it.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              (name + "_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  std::string operator/(const std::string& file) const {
    return (path_ / file).string();
  }

 private:
  std::filesystem::path path_;
};

// One `hpcfail` process with stdout and stderr in a log file. The
// destructor kills a process that was never waited for, so a failed
// assertion does not leak a daemon.
class Cli {
 public:
  Cli(std::vector<std::string> args, std::string log) : log_(std::move(log)) {
    args.insert(args.begin(), HPCFAIL_CLI_PATH);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Cli(const Cli&) = delete;
  Cli& operator=(const Cli&) = delete;
  ~Cli() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// Blocks until the process exits; its exit code, or -1 on a signal.
  int wait() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string log() const { return read_file(log_); }

  /// The value of the `key=N` line, waiting up to 10 s for it to appear.
  int port(const std::string& key) const {
    for (int i = 0; i < 100; ++i) {
      const std::string text = log();
      const std::size_t at = text.find(key + "=");
      const std::size_t eol = text.find('\n', at);
      if (at != std::string::npos && eol != std::string::npos) {
        return std::stoi(text.substr(at + key.size() + 1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ADD_FAILURE() << "no " << key << "= line in\n" << log();
    return 0;
  }

 private:
  std::string log_;
  pid_t pid_ = -1;
};

int run_cli(const std::vector<std::string>& args, const std::string& log) {
  return Cli(args, log).wait();
}

// The integer after `"key":` in a flat JSON object, or "" when absent.
std::string field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find_first_not_of("-0123456789", begin);
  return json.substr(begin, end - begin);
}

// Polls /stats until `events_ingested` reaches `count` (at most 30 s).
void wait_for_ingested(int http_port, const std::string& count) {
  std::string stats;
  for (int i = 0; i < 300; ++i) {
    stats = http_get(http_port, "/stats").body;
    if (field(stats, "events_ingested") == count) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ADD_FAILURE() << "events_ingested never reached " << count << ": "
                << stats;
}

int check_metrics_schema(const std::string& dump,
                         const std::string& requirements) {
  const std::string command = std::string(HPCFAIL_CHECK_METRICS_SCHEMA) +
                              " " + dump + " " + requirements;
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(E2eServe, StreamsTenThousandEventsAndOneMalformedLine) {
  const ScratchDir dir("e2e_serve");
  ASSERT_EQ(run_cli({"generate", "--out", dir / "trace.csv", "--seed", "9",
                     "--threads", "2"},
                    dir / "generate.log"),
            0);
  std::istringstream trace(read_file(dir / "trace.csv"));
  std::string line;
  std::getline(trace, line);  // header
  std::string payload = "not,a,valid,line\n";
  int events = 0;
  while (events < 10000 && std::getline(trace, line)) {
    payload += line + "\n";
    ++events;
  }
  ASSERT_EQ(events, 10000);

  Cli serve({"serve", "--metrics-out", dir / "metrics.json"},
            dir / "serve.log");
  const int ingest_port = serve.port("ingest_port");
  const int http_port = serve.port("http_port");
  ASSERT_GT(ingest_port, 0);
  ASSERT_GT(http_port, 0);
  const int client = connect_to(ingest_port);
  send_all(client, payload);
  ::close(client);
  wait_for_ingested(http_port, "10000");

  const HttpResponse stats = http_get(http_port, "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_EQ(field(stats.body, "events_ingested"), "10000") << stats.body;
  EXPECT_EQ(field(stats.body, "events_rejected"), "1") << stats.body;

  const HttpResponse report =
      http_get(http_port, "/report?system=20&window_hours=87600");
  EXPECT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"hpcfail.serve.report\""), std::string::npos)
      << report.body;

  const HttpResponse metrics = http_get(http_port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  for (const char* name :
       {"hpcfail_serve_events_ingested", "hpcfail_serve_rejected_events"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
  }

  EXPECT_EQ(http_get(http_port, "/shutdown").status, 200);
  EXPECT_EQ(serve.wait(), 0);
  EXPECT_NE(serve.log().find("ingested 10000 events (1 rejected)"),
            std::string::npos)
      << serve.log();
  EXPECT_EQ(check_metrics_schema(dir / "metrics.json",
                                 "--require-counter serve.events_ingested "
                                 "--require-counter serve.rejected_events "
                                 "--require-gauge ingest.epoch "
                                 "--require-gauge serve.events_per_sec"),
            0);
}

// 50k events one second apart (~14 hours of trace time, so --speedup 1000
// paces a replay over ~50 s). Start times strictly increase, so the sorted
// dataset order equals the file order, which the byte compare relies on.
void write_dense_trace(const std::string& path) {
  static const char* const kCauses[][2] = {{"hardware", "memory_dimm"},
                                           {"software", "operating_system"},
                                           {"hardware", "cpu"},
                                           {"network", "network_switch"}};
  const hpcfail::Seconds base = hpcfail::to_epoch(2004, 6, 1);
  std::ofstream out(path);
  out << "system,node,start,end,workload,cause,detail\n";
  for (int i = 0; i < 50000; ++i) {
    const hpcfail::Seconds start = base + i;
    const hpcfail::Seconds end = start + 60 * (5 + i % 90);
    // 57 is coprime with the connection count, so the replay client's
    // (system, node) hash spreads over all four connections.
    out << 1 + i % 8 << ',' << i % 57 << ','
        << hpcfail::format_timestamp(start) << ','
        << hpcfail::format_timestamp(end) << ",compute," << kCauses[i % 4][0]
        << ',' << kCauses[i % 4][1] << '\n';
  }
}

TEST(E2eReplay, FourConnectionsIntoFourShardsAccountForEveryEvent) {
  const ScratchDir dir("e2e_replay_accounting");
  write_dense_trace(dir / "trace.csv");
  Cli serve({"serve", "--ingest-threads", "4", "--metrics-out",
             dir / "metrics.json"},
            dir / "serve.log");
  const int ingest_port = serve.port("ingest_port");
  const int http_port = serve.port("http_port");
  ASSERT_GT(http_port, 0);

  Cli replay({"replay", "--trace", dir / "trace.csv", "--port",
              std::to_string(ingest_port), "--speedup", "1000",
              "--connections", "4"},
             dir / "replay.log");
  EXPECT_EQ(replay.wait(), 0);
  EXPECT_NE(replay.log().find("\nsent=50000\n"), std::string::npos)
      << replay.log();
  wait_for_ingested(http_port, "50000");

  const HttpResponse stats = http_get(http_port, "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_EQ(field(stats.body, "events_ingested"), "50000") << stats.body;
  EXPECT_EQ(field(stats.body, "events_rejected"), "0") << stats.body;
  EXPECT_EQ(field(stats.body, "ingest_threads"), "4") << stats.body;

  EXPECT_EQ(http_get(http_port, "/shutdown").status, 200);
  EXPECT_EQ(serve.wait(), 0);
  EXPECT_NE(serve.log().find("ingested 50000 events (0 rejected)"),
            std::string::npos)
      << serve.log();
}

// One connection keeps the arrival order equal to the trace order, so
// even the floating-point accumulation order matches the seeded server.
TEST(E2eReplay, OneConnectionReportIsByteEqualToSeededServer) {
  const ScratchDir dir("e2e_replay_identity");
  write_dense_trace(dir / "trace.csv");
  Cli live({"serve", "--ingest-threads", "4"}, dir / "live.log");
  Cli seeded({"serve", "--trace", dir / "trace.csv"}, dir / "seeded.log");
  const int live_ingest = live.port("ingest_port");
  const int live_http = live.port("http_port");
  const int seeded_http = seeded.port("http_port");
  ASSERT_GT(live_http, 0);
  ASSERT_GT(seeded_http, 0);

  EXPECT_EQ(run_cli({"replay", "--trace", dir / "trace.csv", "--port",
                     std::to_string(live_ingest), "--connections", "1"},
                    dir / "replay.log"),
            0);
  wait_for_ingested(live_http, "50000");

  const std::string query = "/report?system=5&window_hours=87600";
  const HttpResponse live_report = http_get(live_http, query);
  const HttpResponse seeded_report = http_get(seeded_http, query);
  EXPECT_EQ(live_report.status, 200);
  EXPECT_EQ(seeded_report.status, 200);
  EXPECT_FALSE(live_report.body.empty());
  EXPECT_EQ(live_report.body, seeded_report.body);

  EXPECT_EQ(http_get(live_http, "/shutdown").status, 200);
  EXPECT_EQ(http_get(seeded_http, "/shutdown").status, 200);
  EXPECT_EQ(live.wait(), 0);
  EXPECT_EQ(seeded.wait(), 0);
}

}  // namespace
