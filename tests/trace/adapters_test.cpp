#include "trace/adapters/adapter.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "trace/dataset.hpp"
#include "trace/record.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace {
namespace {

FailureRecord sample_record() {
  FailureRecord r;
  r.system_id = 2;
  r.node_id = 7;
  r.start = to_epoch(2004, 6, 1) + 3600;
  r.end = r.start + 389;
  r.workload = Workload::compute;
  r.cause = RootCause::human;
  r.detail = DetailCause::operator_error;
  return r;
}

FailureDataset sample_dataset() {
  std::vector<FailureRecord> records;
  FailureRecord a = sample_record();
  records.push_back(a);
  FailureRecord b = sample_record();
  b.node_id = 3;
  b.start = a.start + 7200;
  b.end = b.start + 1200;
  b.cause = RootCause::hardware;
  b.detail = DetailCause::memory_dimm;
  records.push_back(b);
  return FailureDataset(std::move(records));
}

TEST(AdapterRegistry, ListsAdaptersAscendingByName) {
  const auto adapters = all_adapters();
  ASSERT_EQ(adapters.size(), 3u);
  EXPECT_EQ(adapters[0]->name(), "lu");
  EXPECT_EQ(adapters[1]->name(), "mistral");
  EXPECT_EQ(adapters[2]->name(), "tan");
  EXPECT_EQ(adapter_names(), "lu, mistral, tan");
}

TEST(AdapterRegistry, LooksUpByNameAndRejectsUnknown) {
  EXPECT_EQ(adapter_for("tan").name(), "tan");
  try {
    adapter_for("slurmdb");
    FAIL() << "should have thrown";
  } catch (const ValidationError& e) {
    // The message must list the known names so the CLI error is
    // self-explanatory.
    EXPECT_NE(std::string(e.what()).find("lu, mistral, tan"),
              std::string::npos);
  }
}

TEST(AdapterLu, FormatsAndParsesOneLine) {
  const Adapter& lu = adapter_for("lu");
  const FailureRecord r = sample_record();
  const std::string line = lu.format_line(r);
  EXPECT_EQ(line, std::to_string(r.start) +
                      " c2n7 NODE_FAIL 389s comp HUM/oper");
  const FailureRecord back = lu.parse_line(line);
  EXPECT_EQ(back, r);
}

TEST(AdapterLu, ErrorTaxonomy) {
  const Adapter& lu = adapter_for("lu");
  const std::string good = lu.format_line(sample_record());
  // Malformed shapes are ParseErrors.
  EXPECT_THROW(lu.parse_line(""), ParseError);
  EXPECT_THROW(lu.parse_line("only three fields here"), ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 JOB_START 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 x2n7 NODE_FAIL 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389 comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389s comp HUMoper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389s comp ZZZ/oper"),
               ParseError);
  // Well-formed but semantically invalid lines are ValidationErrors:
  // negative downtime, cause/detail category mismatch.
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL -5s comp HUM/oper"),
               ValidationError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389s comp HUM/mem"),
               ValidationError);
  // Ids that do not fit int (2^32 + 2 once narrowed to system 2), and an
  // end (start + downtime) that does not fit Seconds.
  EXPECT_THROW(lu.parse_line("123 c4294967298n7 NODE_FAIL 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n4294967303 NODE_FAIL 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("9223372036854775807 c2n7 NODE_FAIL 1s comp "
                             "HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("-9223372036854775808 c2n7 NODE_FAIL 0s comp "
                             "HUM/oper"),
               ValidationError);
  // The good line still parses after all that.
  EXPECT_NO_THROW(lu.parse_line(good));
}

TEST(AdapterTan, FormatsAndParsesOneLine) {
  const Adapter& tan = adapter_for("tan");
  const FailureRecord r = sample_record();
  const std::string line = tan.format_line(r);
  EXPECT_EQ(line,
            "2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|389|Human|"
            "Operator|Compute");
  EXPECT_EQ(tan.parse_line(line), r);
}

TEST(AdapterTan, RejectsDurationDisagreement) {
  const Adapter& tan = adapter_for("tan");
  // The redundant duration column must equal up - down.
  try {
    tan.parse_line(
        "2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|400|Human|"
        "Operator|Compute");
    FAIL() << "should have thrown";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("disagrees"), std::string::npos);
  }
  EXPECT_THROW(
      tan.parse_line("2|7|2004-06-01 01:00:00|06/01/2004 01:06:29|389|"
                     "Human|Operator|Compute"),
      ParseError);
  EXPECT_THROW(
      tan.parse_line("2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|389|"
                     "Gremlins|Operator|Compute"),
      ParseError);
  // 2^32 + 2 does not fit int; it once narrowed to system 2.
  EXPECT_THROW(
      tan.parse_line("4294967298|7|06/01/2004 01:00:00|06/01/2004 01:06:29|"
                     "389|Human|Operator|Compute"),
      ParseError);
}

TEST(AdapterMistral, FormatsAndParsesOneLine) {
  const Adapter& mistral = adapter_for("mistral");
  const FailureRecord r = sample_record();
  const std::string line = mistral.format_line(r);
  EXPECT_EQ(line,
            "j2-7,m2n7,2004-06-01T01:00:00,2004-06-01T01:06:29,"
            "FAILED_OP,operator,compute");
  EXPECT_EQ(mistral.parse_line(line), r);
}

TEST(AdapterMistral, RejectsJobHostMismatch) {
  const Adapter& mistral = adapter_for("mistral");
  // job_id and host encode the same (system, node); a disagreement is
  // semantic, not syntactic.
  EXPECT_THROW(
      mistral.parse_line("j2-8,m2n7,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ValidationError);
  EXPECT_THROW(
      mistral.parse_line("j2-7,m2n7,2004-06-01 01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ParseError);
  EXPECT_THROW(
      mistral.parse_line("j2-7,m2n7,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,gremlin,compute"),
      ParseError);
  // Job id and host agree on 2^32 + 2, which once narrowed to system 2.
  EXPECT_THROW(
      mistral.parse_line("j4294967298-7,m4294967298n7,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ParseError);
}

TEST(AdapterValidate, ChecksSharedSemantics) {
  FailureRecord r = sample_record();
  EXPECT_NO_THROW(validate_adapted(r));
  r.system_id = 0;
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r = sample_record();
  r.node_id = -1;
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r = sample_record();
  r.end = r.start - 1;
  EXPECT_THROW(validate_adapted(r), ValidationError);
  // Times past what a native timestamp can spell (a year that fits int):
  // differences between such a time and an ordinary one overflow.
  r = sample_record();
  r.start = std::numeric_limits<Seconds>::min();
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r.start = to_epoch(std::numeric_limits<int>::min(), 1, 1);
  EXPECT_NO_THROW(validate_adapted(r));
  r = sample_record();
  r.end = std::numeric_limits<Seconds>::max();
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r = sample_record();
  r.detail = DetailCause::memory_dimm;  // category hardware, cause human
  EXPECT_THROW(validate_adapted(r), ValidationError);
}

TEST(AdapterSourceTest, StrictModeThrowsWithLinePrefix) {
  const Adapter& lu = adapter_for("lu");
  std::istringstream in(std::string(lu.header()) + "\n" +
                        lu.format_line(sample_record()) + "\n" +
                        "garbage line that cannot parse at all ok\n");
  AdapterSource source(in, lu);
  FailureRecord out;
  EXPECT_EQ(source.next(out), SourceStatus::event);
  try {
    source.next(out);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos);
  }
}

TEST(AdapterSourceTest, RejectModeCountsAndContinues) {
  const Adapter& tan = adapter_for("tan");
  const FailureRecord r = sample_record();
  std::istringstream in(std::string(tan.header()) + "\n" +
                        "not|a|valid|row\n" + tan.format_line(r) + "\n" +
                        "\n" +  // blank lines are skipped, not rejected
                        tan.format_line(r) + "\n");
  AdapterSource source(in, tan, AdapterSource::OnError::reject);
  FailureRecord out;
  std::size_t events = 0;
  while (source.next(out) == SourceStatus::event) ++events;
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_FALSE(source.counters().last_error.empty());
}

TEST(AdapterFiles, WriteThenReadIsIdentity) {
  const FailureDataset ds = sample_dataset();
  for (const Adapter* adapter : all_adapters()) {
    const std::string path =
        "adapter_file_test_" + std::string(adapter->name()) + ".txt";
    write_adapter_file(path, ds, *adapter);
    const FailureDataset back = read_adapter_file(path, *adapter);
    ASSERT_EQ(back.size(), ds.size()) << adapter->name();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(back.records()[i], ds.records()[i]) << adapter->name();
    }
    std::remove(path.c_str());
  }
}

TEST(AdapterFiles, LenientReadCountsRejects) {
  const Adapter& mistral = adapter_for("mistral");
  const std::string path = "adapter_file_lenient_test.txt";
  {
    std::ofstream out(path);
    out << mistral.header() << "\n";
    out << mistral.format_line(sample_record()) << "\n";
    out << "j1-1,m1n1,not-a-timestamp-here,2004-06-01T01:06:29,"
           "FAILED_OP,operator,compute\n";
  }
  SourceCounters counters;
  const FailureDataset ds = read_adapter_file(path, mistral, &counters);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.rejected, 1u);
  // The strict path reports the same line with its number.
  EXPECT_THROW(read_adapter_file(path, mistral), ParseError);
  std::remove(path.c_str());
}

TEST(AdapterLineSource, StreamsForeignLinesWithRejectAndCount) {
  // The serve-ingest path: a LineSource constructed with an adapter
  // parses that wire format and flattens the whole error taxonomy
  // (ParseError and ValidationError alike) into reject-and-count.
  const Adapter& lu = adapter_for("lu");
  LineSource source(&lu);
  const FailureRecord r = sample_record();
  source.feed(lu.format_line(r) + "\n");
  source.feed(std::string(lu.header()) + "\n");       // skipped
  source.feed("123 c2n7 NODE_FAIL -9s comp HUM/oper\n");  // ValidationError
  source.feed("complete garbage\n");                      // ParseError
  source.finish();
  FailureRecord out;
  std::size_t events = 0;
  while (source.next(out) == SourceStatus::event) {
    EXPECT_EQ(out, r);
    ++events;
  }
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 2u);
}

}  // namespace
}  // namespace hpcfail::trace
