// Differential tests of read_csv's block reader against the row-at-a-time
// CsvSource path on randomized traces larger than two blocks: the same
// columns in the same order, the same first error, the same csv.rows_read
// count, at any thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {
namespace {

struct Outcome {
  ColumnStore columns;
  std::string error;  ///< the ParseError message, empty when none
  std::uint64_t rows_read = 0;
};

std::uint64_t rows_read_counter() {
  return obs::enabled() ? obs::registry().counter("csv.rows_read").value()
                        : 0;
}

Outcome through_source(const std::string& text) {
  Outcome out;
  const std::uint64_t before = rows_read_counter();
  try {
    std::istringstream in(text);
    CsvSource source(in);
    std::vector<FailureRecord> records;
    FailureRecord r;
    while (source.next(r) == SourceStatus::event) records.push_back(r);
    out.columns = FailureDataset(std::move(records)).columns();
  } catch (const ParseError& e) {
    out.error = e.what();
  }
  out.rows_read = rows_read_counter() - before;
  return out;
}

Outcome through_read_csv(const std::string& text) {
  Outcome out;
  const std::uint64_t before = rows_read_counter();
  try {
    std::istringstream in(text);
    out.columns = read_csv(in).columns();
  } catch (const ParseError& e) {
    out.error = e.what();
  }
  out.rows_read = rows_read_counter() - before;
  return out;
}

void expect_same(const Outcome& expected, const Outcome& actual) {
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.rows_read, expected.rows_read);
  ASSERT_EQ(actual.columns.size(), expected.columns.size());
  EXPECT_EQ(actual.columns.system_id, expected.columns.system_id);
  EXPECT_EQ(actual.columns.node_id, expected.columns.node_id);
  EXPECT_EQ(actual.columns.start, expected.columns.start);
  EXPECT_EQ(actual.columns.end, expected.columns.end);
  EXPECT_EQ(actual.columns.workload, expected.columns.workload);
  EXPECT_EQ(actual.columns.cause, expected.columns.cause);
  EXPECT_EQ(actual.columns.detail, expected.columns.detail);
}

/// Builds CSV text row by row in every shape the reader accepts: quoted
/// fields, quoted fields holding newlines (fields 0-3 are trimmed, so
/// surrounding whitespace keeps the record valid), CRLF endings, blank
/// lines, and rows tied on the sort key in random order.
class TraceText {
 public:
  explicit TraceText(std::uint64_t seed) : rng_(seed) {
    text_ = std::string(kCsvHeader) + "\n";
  }

  const std::string& text() const noexcept { return text_; }
  std::size_t size() const noexcept { return text_.size(); }

  /// Appends one random valid row (or, now and then, a blank line).
  void add_row() {
    if (rng_.uniform_index(50) == 0) {
      text_ += rng_.uniform_index(2) == 0 ? "\n" : " \t\r\n";
      return;
    }
    static constexpr const char* kRows[][3] = {
        {"compute", "hardware", "memory_dimm"},
        {"graphics", "software", "parallel_fs"},
        {"fe", "network", "nic"},
        {"compute", "human", "operator_error"},
        {"compute", "unknown", "undetermined"},
        {"frontend", "environment", "power_outage"},
    };
    const auto* names = kRows[rng_.uniform_index(6)];
    // Few distinct starts, systems and nodes: many rows tie on the key.
    const Seconds start =
        to_epoch(2001, 1, 1) +
        static_cast<Seconds>(rng_.uniform_index(2000)) * 3600;
    const Seconds end =
        start + static_cast<Seconds>(rng_.uniform_index(86400));
    const std::string fields[7] = {
        std::to_string(1 + rng_.uniform_index(3)),
        std::to_string(rng_.uniform_index(4)),
        format_timestamp(start),
        format_timestamp(end),
        names[0],
        names[1],
        names[2],
    };
    for (int i = 0; i < 7; ++i) {
      if (i != 0) text_ += ',';
      const std::uint64_t shape = rng_.uniform_index(20);
      if (shape == 0) {
        text_ += '"' + fields[i] + '"';
      } else if (shape == 1 && i < 4) {
        text_ += "\"\n" + fields[i] + "\r\n\"";  // trimmed back to valid
      } else {
        text_ += fields[i];
      }
    }
    text_ += rng_.uniform_index(4) == 0 ? "\r\n" : "\n";
  }

  /// Appends rows until the text is at least `bytes` long.
  void fill_to(std::size_t bytes) {
    while (text_.size() < bytes) add_row();
  }

  /// Appends a row whose quoted system field holds newlines and spans
  /// stream offset `boundary`: its last embedded '\n' is the byte just
  /// before the boundary, so the last '\n' of the block read up to there
  /// lies inside quotes. Call when the text is a little short of it.
  void add_row_straddling(std::size_t boundary) {
    const std::size_t pad = boundary - text_.size() - 3;  // '"' + "\n\n"
    text_ += '"' + std::string(pad, ' ') + "\n\n2\"";
    ASSERT_EQ(text_.size(), boundary + 2);
    text_ += ",1,2001-01-01 00:00:00,2001-01-01 01:00:00,compute,"
             "hardware,cpu\n";
  }

  void append(const std::string& raw) { text_ += raw; }

  /// Drops the final newline ("\r\n" or "\n").
  void drop_final_newline() {
    while (!text_.empty() && (text_.back() == '\n' || text_.back() == '\r')) {
      text_.pop_back();
    }
  }

 private:
  Rng rng_;
  std::string text_;
};

/// A trace of a little over `blocks` blocks whose first two block
/// boundaries are each straddled by a quoted field holding newlines,
/// ending without a final newline.
std::string multi_block_trace(std::uint64_t seed, double blocks) {
  TraceText trace(seed);
  for (const std::size_t boundary : {kCsvBlockBytes, 2 * kCsvBlockBytes}) {
    trace.fill_to(boundary - 200);
    trace.add_row_straddling(boundary);
  }
  trace.fill_to(static_cast<std::size_t>(blocks * kCsvBlockBytes));
  trace.drop_final_newline();
  return trace.text();
}

class ParallelismGuard {
 public:
  explicit ParallelismGuard(unsigned n) : before_(parallelism()) {
    set_parallelism(n);
  }
  ~ParallelismGuard() { set_parallelism(before_); }

 private:
  unsigned before_;
};

TEST(BlockReader, MatchesCsvSourceOnRandomizedMultiBlockTraces) {
  for (const std::uint64_t seed : {11u, 12u}) {
    const std::string text = multi_block_trace(seed, 2.6);
    ASSERT_GT(text.size(), 2 * kCsvBlockBytes);
    const Outcome expected = through_source(text);
    ASSERT_EQ(expected.error, "");
    ASSERT_GT(expected.columns.size(), 50000u);
    expect_same(expected, through_read_csv(text));
  }
}

TEST(BlockReader, IdenticalAtOneTwoAndEightThreads) {
  const std::string text = multi_block_trace(21, 3.3);
  const Outcome expected = through_source(text);
  ASSERT_EQ(expected.error, "");
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    const ParallelismGuard guard(threads);
    expect_same(expected, through_read_csv(text));
  }
}

TEST(BlockReader, BadRowInTheLastBlockReportsTheSameLine) {
  TraceText trace(31);
  trace.fill_to(kCsvBlockBytes - 200);
  trace.add_row_straddling(kCsvBlockBytes);
  trace.fill_to(2 * kCsvBlockBytes + 1000);
  // Embedded newlines before the bad row count toward its line number.
  trace.append("\"\n\n3\",0,2001-01-01 00:00:00,2001-01-01 01:00:00,"
               "compute,hardware,cpu\n");
  trace.append("3,0,2001-01-01 00:00:00,not-a-date,compute,hardware,cpu\n");
  trace.fill_to(2 * kCsvBlockBytes + 5000);
  const Outcome expected = through_source(trace.text());
  ASSERT_NE(expected.error.find("line "), std::string::npos);
  ASSERT_NE(expected.error.find("not-a-date"), std::string::npos);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    const ParallelismGuard guard(threads);
    expect_same(expected, through_read_csv(trace.text()));
  }
}

TEST(BlockReader, FirstBadRowInFileOrderWinsAcrossBlocks) {
  TraceText trace(41);
  trace.fill_to(kCsvBlockBytes / 2);
  trace.append("1,0,2001-01-01 00:00:00\n");  // wrong field count
  trace.fill_to(kCsvBlockBytes * 3 / 2);
  trace.append("1,0,2001-01-01 00:00:00,2001-01-01 01:00:00,compute,"
               "gremlins,cpu\n");
  trace.fill_to(kCsvBlockBytes * 2);
  const Outcome expected = through_source(trace.text());
  ASSERT_NE(expected.error.find("expected 7 fields"), std::string::npos);
  const ParallelismGuard guard(4);
  expect_same(expected, through_read_csv(trace.text()));
}

TEST(BlockReader, UnterminatedQuoteInTheLastBlockMatches) {
  TraceText trace(51);
  trace.fill_to(kCsvBlockBytes + 100);
  // No '"' follows, so the quoted field runs to the end of the input.
  trace.append("1,\"0,2001-01-01 00:00:00\n2,0\n3,1\n");
  const Outcome expected = through_source(trace.text());
  ASSERT_NE(expected.error.find("unterminated quoted CSV field"),
            std::string::npos);
  expect_same(expected, through_read_csv(trace.text()));
}

TEST(BlockReader, SmallInputsMatchCsvSource) {
  const std::string header = std::string(kCsvHeader);
  const std::string row =
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu";
  for (const std::string& text : {
           std::string(""),
           header,
           header + "\r\n",
           "\"system\",node,start,end,workload,cause,\"detail\"\n" + row,
           " system , node,start,end,workload,cause,detail\r\n" + row,
           "wrong,header\n" + row + "\n",
           "\n" + header + "\n" + row + "\n",
           "\"" + header + "\n" + row + "\n",
           header + "\n\n \n" + row + "\r\n\r\n",
           header + "\n" + row + "\r",
           header + "\n\"" + row + "\n",
           header + "\n" + row + "\n1,0,2000-01-01 00:00:00\n",
       }) {
    SCOPED_TRACE(text);
    expect_same(through_source(text), through_read_csv(text));
  }
}

}  // namespace
}  // namespace hpcfail::trace
