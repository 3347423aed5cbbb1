#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "bench.hpp"

namespace repobench {

namespace {

thread_local std::vector<std::uint64_t> t_open_stack;

std::uint64_t current_parent() {
  return t_open_stack.empty() ? 0 : t_open_stack.back();
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::uint64_t Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  const std::uint64_t parent = current_parent();
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, start, start, id, parent, request});
  t_open_stack.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t end = now_ns();
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = end;
}

void Tracer::record(const char* name, std::uint64_t request,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  const std::uint64_t parent = current_parent();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, spans_.size() + 1, parent, request});
}

std::map<std::string, double> Tracer::median_self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);  // by id
  for (const Span& s : spans_) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, std::map<std::uint64_t, double>> per_request;
  for (const Span& s : spans_) {
    const std::int64_t self = s.end_ns - s.start_ns - child_ns[s.id];
    per_request[s.name][s.request] += static_cast<double>(self) * 1e-9;
  }
  std::map<std::string, double> out;
  for (const auto& [name, requests] : per_request) {
    std::vector<double> sums;
    sums.reserve(requests.size());
    for (const auto& [request, seconds] : requests) sums.push_back(seconds);
    out[name] = median(sums);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::size_t Tracer::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.capacity() * sizeof(Span);
}

}  // namespace repobench
