#include "trace/io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {

const char* const kCsvHeader = "system,node,start,end,workload,cause,detail";

namespace {

/// write_csv flushes its row buffer to the stream at this size.
constexpr std::size_t kWriteFlushBytes = std::size_t{64} << 10;

/// csv_escape() of each enumerator's name up to `Last`, indexed by value.
template <auto Last>
std::array<std::string, static_cast<std::size_t>(Last) + 1> escaped_names() {
  std::array<std::string, static_cast<std::size_t>(Last) + 1> names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    names[i] = csv_escape(to_string(static_cast<decltype(Last)>(i)));
  }
  return names;
}

/// A row CsvSource skips: one field that is all whitespace.
bool is_blank(std::string_view field) noexcept {
  return std::all_of(field.begin(), field.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

/// The '\n's in `text` (memchr runs far faster than a byte loop).
std::size_t count_newlines(std::string_view text) noexcept {
  std::size_t count = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while ((p = static_cast<const char*>(
              std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) !=
         nullptr) {
    ++count;
    ++p;
  }
  return count;
}

/// Splits a stream into blocks that end on a row boundary: after the
/// last '\n' outside quotes, carrying the partial row into the next
/// block. The final block holds the rest of the stream, which may end
/// without a newline.
class BlockCutter {
 public:
  explicit BlockCutter(std::istream& in) : in_(in) {}

  /// The next block, or false at the end of the stream.
  bool next(std::string& block) {
    if (done_) return false;
    block = std::move(carry_);
    carry_.clear();
    for (;;) {
      // At least as much again as the carried partial row, so a row
      // longer than a block is rescanned a bounded number of times.
      if (!append_from(in_, block, std::max(kCsvBlockBytes, block.size()))) {
        done_ = true;
        return !block.empty();
      }
      const std::size_t cut = row_boundary(block);
      if (cut == 0) continue;  // not one whole row yet
      carry_.assign(block, cut);
      block.resize(cut);
      return true;
    }
  }

 private:
  /// One past the last '\n' that ends a row (0 when none does).
  static std::size_t row_boundary(std::string_view text) {
    if (text.find('"') == std::string_view::npos) {
      const std::size_t nl = text.rfind('\n');
      return nl == std::string_view::npos ? 0 : nl + 1;
    }
    std::vector<std::string> fields;
    std::size_t pos = 0;
    std::size_t newlines = 0;
    while (scan_csv_row(text, pos, false, ',', fields, newlines) ==
           CsvScan::row) {
    }
    return pos;
  }

  std::istream& in_;
  std::string carry_;
  bool done_ = false;
};

/// One block parsed into its own columns. Parsing stops at the block's
/// first bad row, which `error` then describes.
struct ParsedBlock {
  ColumnStore columns;
  std::size_t rows = 0;      ///< CSV rows tokenized, blank ones included
  std::size_t newlines = 0;  ///< '\n's before the bad row, or in total
  bool failed = false;
  bool unterminated = false;  ///< the block ends inside a quoted field
  std::string error;          ///< the bad row's ParseError message
};

/// Parses a block of whole rows into `out`, whose columns the caller
/// reserved. A block without a '"' is split on '\n' and each line goes
/// through record_from_line; one with quotes goes through the RFC 4180
/// tokenizer and record_from_fields. Both run the same field checks
/// CsvSource does.
void parse_block(std::string_view text, ParsedBlock& out) {
  const auto add = [&out](auto&& parse) {
    try {
      out.columns.push_back(parse());
      return true;
    } catch (const ParseError& e) {
      out.failed = true;
      out.error = e.what();
      return false;
    }
  };
  if (text.find('"') == std::string_view::npos) {
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t nl = std::min(text.find('\n', pos), text.size());
      const std::string_view line = text.substr(pos, nl - pos);
      ++out.rows;
      if (!is_blank(line) && !add([line] { return record_from_line(line); })) {
        return;
      }
      out.newlines += nl < text.size() ? 1 : 0;
      pos = nl + 1;
    }
    return;
  }
  std::vector<std::string> fields;
  std::size_t pos = 0;
  for (;;) {
    std::size_t newlines = out.newlines;
    const CsvScan scan =
        scan_csv_row(text, pos, true, ',', fields, newlines);
    if (scan == CsvScan::end) return;
    ++out.rows;
    if (scan == CsvScan::unterminated) {
      out.failed = true;
      out.unterminated = true;
      return;
    }
    if (!(fields.size() == 1 && is_blank(fields[0])) &&
        !add([&fields] { return record_from_fields(fields); })) {
      return;
    }
    out.newlines = newlines;
  }
}

/// Concatenates one column of every block, in order, releasing each
/// block's copy as it goes.
template <typename T>
void concat_column(std::vector<ColumnStore>& blocks,
                   std::vector<T> ColumnStore::*column, std::size_t rows,
                   ColumnStore& out) {
  std::vector<T>& dest = out.*column;
  dest.reserve(rows);
  for (ColumnStore& block : blocks) {
    std::vector<T>& src = block.*column;
    dest.insert(dest.end(), src.begin(), src.end());
    std::vector<T>().swap(src);
  }
}

void count_rows_read(std::size_t rows) {
  if (obs::enabled()) obs::registry().counter("csv.rows_read").add(rows);
}

}  // namespace

void write_csv(std::ostream& out, const FailureDataset& dataset) {
  static const auto workloads = escaped_names<Workload::frontend>();
  static const auto causes = escaped_names<RootCause::unknown>();
  static const auto details = escaped_names<DetailCause::undetermined>();
  out << kCsvHeader << '\n';
  const ColumnStore& c = dataset.columns();
  std::string buffer;
  buffer.reserve(kWriteFlushBytes + 256);
  char row[256];
  const auto put = [](char* p, std::string_view s) {
    return std::copy(s.begin(), s.end(), p);
  };
  for (std::size_t i = 0; i < c.size(); ++i) {
    char* p = std::to_chars(row, row + 16, c.system_id[i]).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + 16, c.node_id[i]).ptr;
    *p++ = ',';
    p = format_timestamp_to(p, c.start[i]);
    *p++ = ',';
    p = format_timestamp_to(p, c.end[i]);
    *p++ = ',';
    p = put(p, workloads[static_cast<std::size_t>(c.workload[i])]);
    *p++ = ',';
    p = put(p, causes[static_cast<std::size_t>(c.cause[i])]);
    *p++ = ',';
    p = put(p, details[static_cast<std::size_t>(c.detail[i])]);
    *p++ = '\n';
    buffer.append(row, p);
    if (buffer.size() >= kWriteFlushBytes) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (obs::enabled()) {
    obs::registry().counter("csv.rows_written").add(c.size());
  }
}

void write_csv_file(const std::string& path, const FailureDataset& dataset) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  write_csv(out, dataset);
  if (!out) throw IoError("write failed for '" + path + "'");
}

FailureDataset read_csv(std::istream& in) {
  BlockCutter cutter(in);
  std::string first;
  if (!cutter.next(first)) {
    throw ParseError("empty trace file (missing header)");
  }

  // The header is the first row of the first block, which holds whole
  // rows; checked exactly as CsvSource checks it.
  std::vector<std::string> header;
  std::size_t header_end = 0;
  std::size_t newlines = 0;  // '\n's before the block being parsed
  std::size_t rows = 1;
  if (scan_csv_row(first, header_end, true, ',', header, newlines) ==
      CsvScan::unterminated) {
    count_rows_read(rows);
    throw ParseError("unterminated quoted CSV field starting at line 1");
  }
  std::string joined;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i != 0) joined += ',';
    joined += trim(header[i]);
  }
  if (joined != kCsvHeader) {
    count_rows_read(rows);
    throw ParseError("unexpected trace header: '" + joined + "'");
  }
  first.erase(0, header_end);

  // Waves of parallelism() blocks: cut in order on this thread, parsed
  // on the pool, then checked and kept in file order, so the first bad
  // row in the file is the one reported.
  std::vector<ColumnStore> blocks;
  std::size_t records = 0;
  std::vector<std::string> wave;
  wave.push_back(std::move(first));
  const std::size_t width = parallelism();
  for (;;) {
    std::string block;
    while (wave.size() < width && cutter.next(block)) {
      wave.push_back(std::move(block));
    }
    if (wave.empty()) break;
    // Columns are reserved here, one row per '\n', so the workers never
    // allocate: memory a worker's malloc arena took would stay out of
    // reach of the allocations that follow the load.
    std::vector<ParsedBlock> parsed(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      parsed[i].columns.reserve(count_newlines(wave[i]) + 1);
    }
    parallel_for(wave.size(), [&wave, &parsed](std::size_t i) {
      parse_block(wave[i], parsed[i]);
    });
    wave.clear();
    for (ParsedBlock& p : parsed) {
      rows += p.rows;
      if (p.failed) {
        count_rows_read(rows);
        const std::string line = std::to_string(newlines + p.newlines + 1);
        throw ParseError(
            p.unterminated
                ? "unterminated quoted CSV field starting at line " + line
                : "line " + line + ": " + p.error);
      }
      newlines += p.newlines;
      records += p.columns.size();
      blocks.push_back(std::move(p.columns));
    }
  }
  count_rows_read(rows);

  ColumnStore columns;
  concat_column(blocks, &ColumnStore::system_id, records, columns);
  concat_column(blocks, &ColumnStore::node_id, records, columns);
  concat_column(blocks, &ColumnStore::start, records, columns);
  concat_column(blocks, &ColumnStore::end, records, columns);
  concat_column(blocks, &ColumnStore::workload, records, columns);
  concat_column(blocks, &ColumnStore::cause, records, columns);
  concat_column(blocks, &ColumnStore::detail, records, columns);
  return FailureDataset::from_columns(std::move(columns));
}

FailureDataset read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  return read_csv(in);
}

}  // namespace hpcfail::trace
