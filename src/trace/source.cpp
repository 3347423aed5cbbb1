#include "trace/source.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <fstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/adapters/adapter.hpp"
#include "trace/io.hpp"

namespace hpcfail::trace {

namespace {

std::string_view trim_view(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

FailureRecord record_from_views(const std::array<std::string_view, 7>& f) {
  FailureRecord r;
  r.system_id = parse_int<int>(trim_view(f[0]));
  r.node_id = parse_int<int>(trim_view(f[1]));
  r.start = parse_timestamp(trim_view(f[2]));
  r.end = parse_timestamp(trim_view(f[3]));
  r.workload = workload_from_string(f[4]);
  r.cause = root_cause_from_string(f[5]);
  r.detail = detail_cause_from_string(f[6]);
  if (!r.is_consistent()) {
    throw ParseError("inconsistent record (end < start, bad ids, or "
                     "cause/detail mismatch)");
  }
  return r;
}

}  // namespace

FailureRecord record_from_fields(const std::vector<std::string>& fields) {
  if (fields.size() != 7) {
    throw ParseError("expected 7 fields, got " +
                     std::to_string(fields.size()));
  }
  std::array<std::string_view, 7> f;
  for (std::size_t i = 0; i < 7; ++i) f[i] = fields[i];
  return record_from_views(f);
}

FailureRecord record_from_line(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::array<std::string_view, 7> f;
  std::size_t count = 0;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = line.find(',', pos);
    const std::string_view field =
        comma == std::string_view::npos ? line.substr(pos)
                                        : line.substr(pos, comma - pos);
    if (count < 7) f[count] = field;
    ++count;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (count != 7) {
    throw ParseError("expected 7 fields, got " + std::to_string(count));
  }
  return record_from_views(f);
}

CsvSource::CsvSource(std::istream& in, OnError on_error)
    : reader_(in), on_error_(on_error) {
  if (!reader_.next_row(row_)) {
    throw ParseError("empty trace file (missing header)");
  }
  std::string joined;
  for (std::size_t i = 0; i < row_.size(); ++i) {
    if (i != 0) joined += ',';
    joined += trim(row_[i]);
  }
  if (joined != kCsvHeader) {
    throw ParseError("unexpected trace header: '" + joined + "'");
  }
}

SourceStatus CsvSource::next(FailureRecord& out) {
  while (reader_.next_row(row_)) {
    const std::size_t line = reader_.line_number();
    if (row_.size() == 1 && trim(row_[0]).empty()) continue;  // blank line
    try {
      out = record_from_fields(row_);
      ++counters_.accepted;
      return SourceStatus::event;
    } catch (const ParseError& e) {
      const std::string message =
          "line " + std::to_string(line) + ": " + e.what();
      if (on_error_ == OnError::throw_) throw ParseError(message);
      ++counters_.rejected;
      counters_.last_error = message;
    }
  }
  return SourceStatus::end;
}

void LineSource::feed(std::string_view bytes) { buffer_.append(bytes); }

bool LineSource::parse_line(std::string_view line, FailureRecord& out) {
  ++lines_seen_;
  const std::string_view stripped = trim_view(line);
  const std::string_view header =
      adapter_ != nullptr ? adapter_->header() : std::string_view(kCsvHeader);
  if (stripped.empty() || stripped == header) return false;
  try {
    // Adapters throw both ParseError (malformed) and ValidationError
    // (semantically inconsistent); streaming ingest flattens the whole
    // Error taxonomy into reject-and-count, so one bad line never takes
    // the daemon down regardless of which type the decoder raises.
    out = adapter_ != nullptr ? adapter_->parse_line(line)
                              : record_from_line(line);
    ++counters_.accepted;
    return true;
  } catch (const Error& e) {
    ++counters_.rejected;
    counters_.last_error =
        "line " + std::to_string(lines_seen_) + ": " + e.what();
    return false;
  }
}

SourceStatus LineSource::next(FailureRecord& out) {
  while (true) {
    const std::size_t nl = buffer_.find('\n', pos_);
    if (nl == std::string::npos) {
      if (finished_) {
        if (pos_ < buffer_.size()) {  // final unterminated line
          const std::string_view line =
              std::string_view(buffer_).substr(pos_);
          pos_ = buffer_.size();
          if (parse_line(line, out)) return SourceStatus::event;
          continue;
        }
        return SourceStatus::end;
      }
      // Compact consumed bytes so the buffer stays bounded by the largest
      // partial line plus one feed() chunk.
      if (pos_ > 0) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return SourceStatus::idle;
    }
    const std::string_view line =
        std::string_view(buffer_).substr(pos_, nl - pos_);
    pos_ = nl + 1;
    if (parse_line(line, out)) return SourceStatus::event;
  }
}

TailSource::TailSource(std::string path, std::uint64_t start_offset,
                       const Adapter* adapter)
    : path_(std::move(path)), offset_(start_offset), lines_(adapter) {}

std::size_t TailSource::poll_file() {
  constexpr std::size_t kSignatureBytes = 64;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;  // not created yet (or unreadable): stay idle
  in.seekg(0, std::ios::end);
  const auto size_pos = in.tellg();
  if (size_pos < 0) return 0;
  const auto size = static_cast<std::uint64_t>(size_pos);

  // Rewrite check (see the class comment): shrink below the consumed
  // offset, a different inode, or different leading bytes all mean the
  // path no longer continues the stream we were tailing.
  bool rewritten = size < offset_;
  struct stat st{};
  if (::stat(path_.c_str(), &st) == 0) {
    if (inode_ != 0 && static_cast<std::uint64_t>(st.st_ino) != inode_) {
      rewritten = true;
    }
    inode_ = static_cast<std::uint64_t>(st.st_ino);
  }
  std::string probe(
      static_cast<std::size_t>(std::min<std::uint64_t>(size, kSignatureBytes)),
      '\0');
  if (!probe.empty()) {
    in.seekg(0);
    in.read(probe.data(), static_cast<std::streamsize>(probe.size()));
    probe.resize(static_cast<std::size_t>(in.gcount()));
  }
  const std::size_t common = std::min(signature_.size(), probe.size());
  if (common > 0 && probe.compare(0, common, signature_, 0, common) != 0) {
    rewritten = true;
  }
  if (rewritten) {
    offset_ = 0;
    signature_ = probe;
    lines_.reset();  // drop stale partial-line bytes from the old file
    ++rewrites_;
  } else if (probe.size() > signature_.size()) {
    signature_ = probe;  // the file grew into the signature window
  }

  if (size == offset_) return 0;
  in.clear();  // the signature read may have hit EOF on short files
  in.seekg(static_cast<std::streamoff>(offset_));
  std::string chunk(static_cast<std::size_t>(size - offset_), '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  const auto got = static_cast<std::size_t>(in.gcount());
  chunk.resize(got);
  offset_ += got;
  lines_.feed(chunk);
  return got;
}

SourceStatus TailSource::next(FailureRecord& out) {
  SourceStatus status = lines_.next(out);
  if (status != SourceStatus::idle) return status;
  if (poll_file() == 0) return SourceStatus::idle;
  status = lines_.next(out);
  // The inner LineSource never ends (finish() is never called on it).
  return status;
}

}  // namespace hpcfail::trace
