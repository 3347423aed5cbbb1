// RFC-4180-style CSV reading and writing.
//
// The public LANL failure-data release is distributed as CSV; this module
// provides the lossless round-trip layer used by hpcfail::trace. Fields
// containing the separator, quotes, or newlines are quoted; embedded quotes
// are doubled. The reader is streaming (row at a time) and reports the line
// number of any malformed row.
//
// One tokenizer, scan_csv_row(), implements the quoting rules over bytes
// in memory. CsvReader feeds it from a buffered istream; the trace
// loader's block reader (trace/io.cpp) feeds it whole blocks of rows.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::obs {
class Counter;
}  // namespace hpcfail::obs

namespace hpcfail {

/// What scan_csv_row() found at the scan position.
enum class CsvScan {
  row,           ///< a whole row: `fields` holds it, `pos` is past it
  end,           ///< no bytes left in the final input
  incomplete,    ///< the row runs past the end of non-final input
  unterminated,  ///< the final input ends inside a quoted field
};

/// Tokenizes the row that starts at text[pos] (RFC 4180): a '"' opens a
/// quoted field only at the start of a field, a doubled '"' inside quotes
/// is one literal quote, a '\n' ends the row only outside quotes, and a
/// '\r' left at the end of the row's last field by an unquoted CRLF ending
/// is dropped (a quoted '\r' is data). `final` says that `text` holds the
/// rest of the input, so a row may end at its end without a '\n'.
///
/// On `row`, `fields` holds the row's fields, `pos` is one past the row
/// (past its '\n', or text.size()), and `newlines` grows by every '\n'
/// the row consumed, quoted ones included: a row starts on physical line
/// 1 + (newlines before it). On any other result `pos` and `newlines`
/// are unchanged and `fields` is unspecified; after `incomplete` the
/// caller retries the same position with more bytes.
CsvScan scan_csv_row(std::string_view text, std::size_t& pos, bool final,
                     char separator, std::vector<std::string>& fields,
                     std::size_t& newlines);

/// Appends up to `count` bytes read from `in` to `buffer`. Returns false
/// once `in` is exhausted (fewer than `count` bytes arrived).
bool append_from(std::istream& in, std::string& buffer, std::size_t count);

/// Streaming CSV reader over any std::istream. Reads the stream ahead in
/// chunks and tokenizes with scan_csv_row().
///
/// Rows delivered are counted into the obs counter "csv.rows_read" (the
/// handle is resolved once per reader, so the per-row cost is one relaxed
/// atomic increment; zero when obs is disabled at construction).
class CsvReader {
 public:
  /// `source` must outlive the reader.
  explicit CsvReader(std::istream& source, char separator = ',');

  /// Reads the next row into `fields` (cleared first). Returns false at
  /// end of input. Throws ParseError on an unterminated quoted field.
  bool next_row(std::vector<std::string>& fields);

  /// 1-based line number of the most recently returned row.
  std::size_t line_number() const noexcept { return row_start_line_; }

 private:
  std::istream& in_;
  char sep_;
  std::string buffer_;   ///< read-ahead bytes; buffer_[pos_] starts a row
  std::size_t pos_ = 0;
  bool eof_ = false;     ///< buffer_ holds the rest of the stream
  std::size_t newlines_ = 0;  ///< '\n's consumed so far
  std::size_t row_start_line_ = 0;
  obs::Counter* rows_counter_ = nullptr;  ///< null when obs is disabled
};

/// Streaming CSV writer over any std::ostream. Rows written are counted
/// into the obs counter "csv.rows_written" (same scheme as CsvReader).
class CsvWriter {
 public:
  /// `sink` must outlive the writer.
  explicit CsvWriter(std::ostream& sink, char separator = ',');

  /// Writes one row, quoting fields as needed, terminated by '\n'.
  void write_row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
  char sep_;
  obs::Counter* rows_counter_ = nullptr;  ///< null when obs is disabled
};

/// Quotes a single field if it contains the separator, a quote, or a
/// newline; otherwise returns it unchanged.
std::string csv_escape(std::string_view field, char separator = ',');

/// Parses a full document in memory. Convenience for tests and small files.
std::vector<std::vector<std::string>> parse_csv(std::string_view text,
                                                char separator = ',');

}  // namespace hpcfail
