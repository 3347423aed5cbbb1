#include "trace/adapters/adapter.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "trace/adapters/lu.hpp"
#include "trace/adapters/mistral.hpp"
#include "trace/adapters/tan.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace {

std::span<const Adapter* const> all_adapters() noexcept {
  static const adapters::LuAdapter lu;
  static const adapters::MistralAdapter mistral;
  static const adapters::TanAdapter tan;
  // Name-ascending so listings and error messages are stable.
  static const Adapter* const kAll[] = {&lu, &mistral, &tan};
  return kAll;
}

std::string adapter_names() {
  std::string joined;
  for (const Adapter* adapter : all_adapters()) {
    if (!joined.empty()) joined += ", ";
    joined += adapter->name();
  }
  return joined;
}

const Adapter& adapter_for(std::string_view name) {
  for (const Adapter* adapter : all_adapters()) {
    if (adapter->name() == name) return *adapter;
  }
  throw ValidationError("unknown trace format '" + std::string(name) +
                        "' (known formats: " + adapter_names() + ")");
}

void validate_adapted(const FailureRecord& record) {
  if (record.system_id < 1 || record.node_id < 0) {
    throw ValidationError("system id must be >= 1 and node id >= 0 (got " +
                          std::to_string(record.system_id) + ", " +
                          std::to_string(record.node_id) + ")");
  }
  if (record.end < record.start) {
    throw ValidationError("repair interval ends before it starts");
  }
  // The span a native timestamp can spell (years that fit int), so no
  // difference between two records' times overflows Seconds.
  constexpr int kMinYear = std::numeric_limits<int>::min();
  constexpr int kMaxYear = std::numeric_limits<int>::max();
  static const Seconds kFirst = to_epoch(kMinYear, 1, 1);
  static const Seconds kLast =
      to_epoch(CivilDateTime{kMaxYear, 12, 31, 23, 59, 59});
  if (record.start < kFirst || record.end > kLast) {
    throw ValidationError("time outside the native timestamp range");
  }
  if (category_of(record.detail) != record.cause) {
    throw ValidationError("detail cause '" + to_string(record.detail) +
                          "' does not belong to category '" +
                          to_string(record.cause) + "'");
  }
}

AdapterSource::AdapterSource(std::istream& in, const Adapter& adapter,
                             OnError on_error)
    : in_(in), adapter_(adapter), on_error_(on_error) {}

SourceStatus AdapterSource::next(FailureRecord& out) {
  while (std::getline(in_, line_)) {
    ++line_number_;
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    const std::string stripped = trim(line_);
    if (stripped.empty() || stripped == adapter_.header()) continue;
    try {
      out = adapter_.parse_line(line_);
      ++counters_.accepted;
      return SourceStatus::event;
    } catch (const ParseError& e) {
      const std::string message =
          "line " + std::to_string(line_number_) + ": " + e.what();
      if (on_error_ == OnError::throw_) throw ParseError(message);
      ++counters_.rejected;
      counters_.last_error = message;
    } catch (const ValidationError& e) {
      const std::string message =
          "line " + std::to_string(line_number_) + ": " + e.what();
      if (on_error_ == OnError::throw_) throw ValidationError(message);
      ++counters_.rejected;
      counters_.last_error = message;
    }
  }
  return SourceStatus::end;
}

void write_adapter(std::ostream& out, const FailureDataset& dataset,
                   const Adapter& adapter) {
  if (!adapter.header().empty()) out << adapter.header() << '\n';
  for (const FailureRecord& record : dataset.records()) {
    out << adapter.format_line(record) << '\n';
  }
}

void write_adapter_file(const std::string& path,
                        const FailureDataset& dataset,
                        const Adapter& adapter) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  write_adapter(out, dataset, adapter);
  if (!out) throw IoError("write failed for '" + path + "'");
}

FailureDataset read_adapter_file(const std::string& path,
                                 const Adapter& adapter,
                                 SourceCounters* counters) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  AdapterSource source(in, adapter,
                       counters == nullptr ? AdapterSource::OnError::throw_
                                           : AdapterSource::OnError::reject);
  std::vector<FailureRecord> records;
  FailureRecord record;
  while (source.next(record) == SourceStatus::event) {
    records.push_back(record);
  }
  if (counters != nullptr) *counters = source.counters();
  return FailureDataset(std::move(records));
}

}  // namespace hpcfail::trace
