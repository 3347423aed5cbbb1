#include "trace/source.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "trace/io.hpp"

namespace hpcfail::trace {
namespace {

const std::string kGoodLine =
    "2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,compute,human,"
    "operator_error";

std::string sample_csv() {
  std::string text = std::string(kCsvHeader) + "\n";
  text += kGoodLine + "\n";
  text += "2,0,1996-06-07 14:18:50,1996-06-07 14:40:17,compute,hardware,"
          "memory_dimm\n";
  return text;
}

TEST(RecordFromLine, ParsesAndTrims) {
  const FailureRecord r =
      record_from_line(" 2 , 0 , 1996-06-07 08:48:45 , 1996-06-07 08:55:14 "
                       ",compute,human,operator_error");
  EXPECT_EQ(r.system_id, 2);
  EXPECT_EQ(r.node_id, 0);
  EXPECT_EQ(r.end - r.start, 389);
  EXPECT_EQ(r.cause, RootCause::human);
}

TEST(RecordFromLine, RejectsWrongFieldCount) {
  try {
    record_from_line("1,2,3");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("expected 7 fields, got 3"),
              std::string::npos);
  }
  EXPECT_THROW(record_from_line(kGoodLine + ",extra"), ParseError);
}

TEST(RecordFromLine, RejectsInconsistentRecord) {
  // end < start.
  EXPECT_THROW(
      record_from_line("2,0,1996-06-07 08:55:14,1996-06-07 08:48:45,"
                       "compute,human,operator_error"),
      ParseError);
  // cause/detail mismatch.
  EXPECT_THROW(
      record_from_line("2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,"
                       "compute,human,memory_dimm"),
      ParseError);
}

TEST(RecordFromLine, RejectsIdsThatDoNotFitInt) {
  // 2^32 + 1 and 2^32 once narrowed to system 1, node 0: a real node.
  const std::string line =
      "4294967297,4294967296,1996-06-07 08:48:45,1996-06-07 08:55:14,"
      "compute,human,operator_error";
  EXPECT_THROW(record_from_line(line), ParseError);
  EXPECT_THROW(record_from_line("2,-9223372036854775809,1996-06-07 08:48:45,"
                                "1996-06-07 08:55:14,compute,human,"
                                "operator_error"),
               ParseError);

  LineSource source;
  source.feed(line + "\n" + kGoodLine + "\n");
  source.finish();
  FailureRecord r;
  ASSERT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(r.system_id, 2);
  EXPECT_EQ(source.next(r), SourceStatus::end);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_NE(source.counters().last_error.find("line 1:"), std::string::npos);
}

TEST(CsvSource, MatchesReadCsv) {
  std::istringstream a(sample_csv());
  std::istringstream b(sample_csv());
  CsvSource source(a);
  std::vector<FailureRecord> pulled;
  FailureRecord r;
  while (source.next(r) == SourceStatus::event) pulled.push_back(r);
  EXPECT_EQ(source.next(r), SourceStatus::end);  // end is sticky
  EXPECT_EQ(source.counters().accepted, 2u);

  const FailureDataset ds = read_csv(b);
  ASSERT_EQ(pulled.size(), ds.size());
  std::size_t i = 0;
  for (const FailureRecord& expected : ds.records()) {
    EXPECT_EQ(pulled[i].start, expected.start);
    EXPECT_EQ(pulled[i].system_id, expected.system_id);
    ++i;
  }
}

TEST(CsvSource, HeaderErrorsMatchReadCsvContract) {
  {
    std::istringstream in("");
    try {
      CsvSource source(in);
      FAIL() << "should have thrown";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "empty trace file (missing header)");
    }
  }
  {
    std::istringstream in("wrong,header\n1,2\n");
    try {
      CsvSource source(in);
      FAIL() << "should have thrown";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unexpected trace header"),
                std::string::npos);
    }
  }
}

TEST(CsvSource, ThrowModeReportsLineNumber) {
  std::istringstream in(std::string(kCsvHeader) + "\n" + kGoodLine +
                        "\nnot,a,record\n");
  CsvSource source(in);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  try {
    source.next(r);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos);
  }
}

TEST(CsvSource, RejectModeCountsAndContinues) {
  std::istringstream in(std::string(kCsvHeader) + "\nnot,a,record\n" +
                        kGoodLine + "\n");
  CsvSource source(in, CsvSource::OnError::reject);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);  // skipped the bad line
  EXPECT_EQ(source.next(r), SourceStatus::end);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_NE(source.counters().last_error.find("line 2:"), std::string::npos);
}

TEST(LineSource, ReassemblesChunkedFeeds) {
  LineSource source;
  const std::string two_lines = kGoodLine + "\n" + kGoodLine + "\n";
  FailureRecord r;
  // Feed one byte at a time: every split point must reassemble.
  for (const char ch : two_lines) source.feed(std::string_view(&ch, 1));
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // stream still open
  EXPECT_EQ(source.counters().accepted, 2u);
}

TEST(LineSource, SkipsBlankLinesAndEchoedHeader) {
  LineSource source;
  source.feed("\n  \n" + std::string(kCsvHeader) + "\n" + kGoodLine + "\n");
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 0u);
}

TEST(LineSource, RejectsMalformedWithLineNumber) {
  LineSource source;
  source.feed("garbage line\n" + kGoodLine + "\n");
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_NE(source.counters().last_error.find("line 1:"), std::string::npos);
}

TEST(LineSource, HandlesCrlfAndFinalUnterminatedLine) {
  LineSource source;
  source.feed(kGoodLine + "\r\n" + kGoodLine);  // second line: no newline
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // partial line buffered
  source.finish();
  EXPECT_EQ(source.next(r), SourceStatus::event);  // flushed by finish()
  EXPECT_EQ(source.next(r), SourceStatus::end);
  EXPECT_EQ(source.counters().accepted, 2u);
}

class TailSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tail_source_test.csv";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void append_text(const std::string& text) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << text;
  }

  std::string path_;
};

TEST_F(TailSourceTest, PicksUpAppendedLines) {
  append_text(std::string(kCsvHeader) + "\n" + kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // caught up, never ends

  append_text(kGoodLine + "\n");
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_GT(source.offset(), 0u);
}

TEST_F(TailSourceTest, MissingFileIsIdleNotError) {
  TailSource source(path_);  // file does not exist yet
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::idle);
  append_text(kGoodLine + "\n");
  EXPECT_EQ(source.next(r), SourceStatus::event);
}

TEST_F(TailSourceTest, TruncationRestartsFromTop) {
  append_text(kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);

  // Truncate + rewrite shorter: the tailer must reset its offset.
  std::ofstream(path_, std::ios::trunc).close();
  ASSERT_EQ(source.next(r), SourceStatus::idle);
  append_text(kGoodLine + "\n");
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_GE(source.rewrites_detected(), 1u);
}

TEST_F(TailSourceTest, TruncateThenRegrowPastOldOffsetIsDetected) {
  // Seed a file and consume everything, leaving offset_ at its end.
  append_text(kGoodLine + "\n" + kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);
  const std::uint64_t old_offset = source.offset();

  // Rewrite the file with DIFFERENT leading content that is LARGER than the
  // old offset. A size-only check reads this as an append and resumes mid-file;
  // the leading-bytes signature must flag it as a rewrite instead.
  std::string rewritten = std::string(kCsvHeader) + "\n";
  for (int i = 0; i < 5; ++i) {
    rewritten += "3,1,1996-06-08 02:00:0" + std::to_string(i) +
                 ",1996-06-08 02:30:0" + std::to_string(i) +
                 ",compute,hardware,memory_dimm\n";
  }
  ASSERT_GT(rewritten.size(), old_offset);
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << rewritten;
  }

  std::vector<FailureRecord> replayed;
  while (source.next(r) == SourceStatus::event) replayed.push_back(r);
  EXPECT_EQ(source.rewrites_detected(), 1u);
  // Every record of the rewritten file arrives — nothing is skipped and no
  // half-line splice from the old read position is ever parsed.
  ASSERT_EQ(replayed.size(), 5u);
  for (const FailureRecord& rec : replayed) {
    EXPECT_EQ(rec.system_id, 3);
    EXPECT_EQ(rec.node_id, 1);
    EXPECT_EQ(rec.cause, RootCause::hardware);
  }
  EXPECT_EQ(source.counters().rejected, 0u);
  EXPECT_EQ(source.counters().accepted, 7u);
}

TEST_F(TailSourceTest, RewriteDiscardsBufferedPartialLine) {
  // Leave a partial (unterminated) line buffered in the decoder.
  append_text(kGoodLine + "\n2,0,1996-06-07 15:");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // partial line held back

  // Rewrite-with-regrow: the buffered fragment must be dropped, not spliced
  // onto the first line of the new file. Lead with the header so the leading
  // bytes differ from the old file's first record.
  std::string rewritten = std::string(kCsvHeader) + "\n";
  for (int i = 0; i < 8; ++i) rewritten += kGoodLine + "\n";
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << rewritten;
  }
  std::size_t events = 0;
  while (source.next(r) == SourceStatus::event) ++events;
  EXPECT_EQ(events, 8u);
  EXPECT_EQ(source.rewrites_detected(), 1u);
  EXPECT_EQ(source.counters().rejected, 0u);
}

TEST_F(TailSourceTest, PlainAppendIsNotFlaggedAsRewrite) {
  append_text(std::string(kCsvHeader) + "\n" + kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  for (int i = 0; i < 4; ++i) {
    append_text(kGoodLine + "\n");
    EXPECT_EQ(source.next(r), SourceStatus::event);
  }
  EXPECT_EQ(source.rewrites_detected(), 0u);
  EXPECT_EQ(source.counters().accepted, 5u);
}

}  // namespace
}  // namespace hpcfail::trace
