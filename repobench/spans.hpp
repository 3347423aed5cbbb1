// In-memory span recorder for the traced benchmark run.
//
// The benchmark measures each library layer from outside: it wraps the
// calls it makes into a layer's public functions in a Span. A span has a
// name (the layer metric it feeds, e.g. "trace.read_csv"), a start and
// end on the steady clock, the id of the enclosing span on the same
// thread (0 = root) and a request id (the iteration, ingest pass or HTTP
// query it belongs to). Recording is a vector push under a mutex, and
// is off unless the tracer is enabled, so the untraced run pays one
// branch per wrapped call.
//
// Per-layer metrics come from self time: a span's duration minus its
// children's. For every span name, self times are summed per request and
// the metric is the median of those per-request sums, so a layer metric
// is as robust to one slow request as the end-to-end medians are.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace repobench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string (a literal)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;        ///< index in the recorder + 1
  std::uint64_t parent = 0;   ///< 0 = no enclosing span on that thread
  std::uint64_t request = 0;  ///< iteration / pass / query id
};

class Tracer {
 public:
  /// Turns recording on or off (the traced run toggles it per request
  /// to measure the tracing overhead on interleaved requests).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread; returns 0 when disabled.
  std::uint64_t open(const char* name, std::uint64_t request);
  void close(std::uint64_t id);
  /// Records an already-timed interval as a child of the calling
  /// thread's innermost open span.
  void record(const char* name, std::uint64_t request, std::int64_t start_ns,
              std::int64_t end_ns);

  /// name -> median over requests of the per-request summed self time,
  /// in seconds.
  std::map<std::string, double> median_self_seconds() const;
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;
  std::size_t size() const;
  /// Bytes held by the recorded spans.
  std::size_t bytes() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span: open on construction, close on destruction.
class Scoped {
 public:
  Scoped(const char* name, std::uint64_t request)
      : id_(tracer().open(name, request)) {}
  ~Scoped() { tracer().close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::uint64_t id_;
};

}  // namespace repobench
