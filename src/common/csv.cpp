#include "common/csv.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hpcfail {

namespace {

/// Bytes CsvReader reads ahead per refill (more when one row is longer).
constexpr std::size_t kReadAheadBytes = std::size_t{64} << 10;

}  // namespace

CsvScan scan_csv_row(std::string_view text, std::size_t& pos, bool final,
                     char separator, std::vector<std::string>& fields,
                     std::size_t& newlines) {
  const std::size_t n = text.size();
  std::size_t i = pos;
  if (i == n) return final ? CsvScan::end : CsvScan::incomplete;

  // Fields are rebuilt in place so their capacity carries over rows.
  std::size_t count = 0;
  const auto next_field = [&fields, &count]() -> std::string& {
    if (count == fields.size()) {
      fields.emplace_back();
    } else {
      fields[count].clear();
    }
    return fields[count];
  };
  std::string* field = &next_field();
  std::size_t quoted_newlines = 0;
  bool quoted = false;
  // A trailing '\r' is a CRLF line ending only when it arrived outside
  // quotes; a '\r' pushed inside quotes (written by csv_escape) is field
  // data — even when more unquoted characters follow the closing quote,
  // so this tracks the provenance of the *current last* character, not
  // whether the field started quoted.
  bool trailing_cr_is_data = false;
  const auto end_row = [&](std::size_t next, std::size_t row_newlines) {
    if (!trailing_cr_is_data && !field->empty() && field->back() == '\r') {
      field->pop_back();
    }
    fields.resize(count + 1);
    pos = next;
    newlines += row_newlines;
    return CsvScan::row;
  };
  for (;; ++i) {
    if (i == n) {
      if (!final) return CsvScan::incomplete;
      if (quoted) return CsvScan::unterminated;
      // A CRLF file whose last line lacks the final newline still ends
      // the field with '\r'; strip it exactly as the '\n' path does.
      return end_row(n, quoted_newlines);
    }
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 == n && !final) return CsvScan::incomplete;
        if (i + 1 < n && text[i + 1] == '"') {
          ++i;
          field->push_back('"');
          trailing_cr_is_data = false;
        } else {
          quoted = false;
        }
      } else {
        if (c == '\n') ++quoted_newlines;
        field->push_back(c);
        trailing_cr_is_data = (c == '\r');
      }
      continue;
    }
    if (c == '"' && field->empty()) {
      quoted = true;
    } else if (c == separator) {
      ++count;
      field = &next_field();
      trailing_cr_is_data = false;
    } else if (c == '\n') {
      return end_row(i + 1, quoted_newlines + 1);
    } else {
      field->push_back(c);
      trailing_cr_is_data = false;
    }
  }
}

bool append_from(std::istream& in, std::string& buffer, std::size_t count) {
  const std::size_t old = buffer.size();
  buffer.resize(old + count);
  in.read(buffer.data() + old, static_cast<std::streamsize>(count));
  const auto got = static_cast<std::size_t>(in.gcount());
  buffer.resize(old + got);
  return got == count;
}

CsvReader::CsvReader(std::istream& source, char separator)
    : in_(source), sep_(separator) {
  if (obs::enabled()) {
    rows_counter_ = &obs::registry().counter("csv.rows_read");
  }
}

bool CsvReader::next_row(std::vector<std::string>& fields) {
  for (;;) {
    std::size_t newlines = 0;
    switch (scan_csv_row(buffer_, pos_, eof_, sep_, fields, newlines)) {
      case CsvScan::row:
        if (rows_counter_ != nullptr) rows_counter_->add(1);
        row_start_line_ = newlines_ + 1;
        newlines_ += newlines;
        return true;
      case CsvScan::end:
        fields.clear();
        return false;
      case CsvScan::unterminated:
        if (rows_counter_ != nullptr) rows_counter_->add(1);
        row_start_line_ = newlines_ + 1;
        throw ParseError("unterminated quoted CSV field starting at line " +
                         std::to_string(row_start_line_));
      case CsvScan::incomplete:
        // Keep the partial row, read at least as much again as it holds
        // so a long row costs linear rescanning.
        buffer_.erase(0, pos_);
        pos_ = 0;
        eof_ = !append_from(in_, buffer_,
                            std::max(kReadAheadBytes, buffer_.size()));
        break;
    }
  }
}

CsvWriter::CsvWriter(std::ostream& sink, char separator)
    : out_(sink), sep_(separator) {
  if (obs::enabled()) {
    rows_counter_ = &obs::registry().counter("csv.rows_written");
  }
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  if (rows_counter_ != nullptr) rows_counter_->add(1);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << sep_;
    out_ << csv_escape(fields[i], sep_);
  }
  out_ << '\n';
}

std::string csv_escape(std::string_view field, char separator) {
  const bool needs_quotes =
      field.find(separator) != std::string_view::npos ||
      field.find('"') != std::string_view::npos ||
      field.find('\n') != std::string_view::npos ||
      field.find('\r') != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text,
                                                char separator) {
  std::istringstream in{std::string(text)};
  CsvReader reader(in, separator);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (reader.next_row(row)) rows.push_back(row);
  return rows;
}

}  // namespace hpcfail
