#include "trace/types.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace hpcfail::trace {
namespace {

TEST(RootCause, StringRoundTrip) {
  for (const RootCause cause : kAllRootCauses) {
    EXPECT_EQ(root_cause_from_string(to_string(cause)), cause);
  }
}

TEST(RootCause, ParsingIsCaseInsensitiveAndTrimmed) {
  EXPECT_EQ(root_cause_from_string("Hardware"), RootCause::hardware);
  EXPECT_EQ(root_cause_from_string("  SOFTWARE  "), RootCause::software);
}

TEST(RootCause, RejectsUnknownSpelling) {
  EXPECT_THROW(root_cause_from_string("cosmic rays"), ParseError);
  EXPECT_THROW(root_cause_from_string(""), ParseError);
}

TEST(DetailCause, CategoryMapping) {
  EXPECT_EQ(category_of(DetailCause::memory_dimm), RootCause::hardware);
  EXPECT_EQ(category_of(DetailCause::cpu), RootCause::hardware);
  EXPECT_EQ(category_of(DetailCause::parallel_fs), RootCause::software);
  EXPECT_EQ(category_of(DetailCause::scheduler), RootCause::software);
  EXPECT_EQ(category_of(DetailCause::nic), RootCause::network);
  EXPECT_EQ(category_of(DetailCause::power_outage), RootCause::environment);
  EXPECT_EQ(category_of(DetailCause::ac_failure), RootCause::environment);
  EXPECT_EQ(category_of(DetailCause::operator_error), RootCause::human);
  EXPECT_EQ(category_of(DetailCause::undetermined), RootCause::unknown);
}

TEST(DetailCause, StringRoundTrip) {
  for (const DetailCause d :
       {DetailCause::memory_dimm, DetailCause::cpu, DetailCause::scheduler,
        DetailCause::power_outage, DetailCause::operator_error,
        DetailCause::undetermined}) {
    EXPECT_EQ(detail_cause_from_string(to_string(d)), d);
  }
  EXPECT_THROW(detail_cause_from_string("gremlins"), ParseError);
}

TEST(Workload, StringRoundTripWithReleaseSpelling) {
  // The LANL release spells front-end "fe".
  EXPECT_EQ(to_string(Workload::frontend), "fe");
  EXPECT_EQ(workload_from_string("fe"), Workload::frontend);
  EXPECT_EQ(workload_from_string("frontend"), Workload::frontend);
  EXPECT_EQ(workload_from_string("front-end"), Workload::frontend);
  EXPECT_EQ(workload_from_string("compute"), Workload::compute);
  EXPECT_EQ(workload_from_string("GRAPHICS"), Workload::graphics);
  EXPECT_THROW(workload_from_string("database"), ParseError);
}

// --- Decode table ----------------------------------------------------------

std::string mixed_case(const std::string& name) {
  std::string out = name;
  for (std::size_t i = 0; i < out.size(); i += 2) {
    if (out[i] >= 'a' && out[i] <= 'z') {
      out[i] = static_cast<char>(out[i] - 32);
    }
  }
  return out;
}

std::string upper_case(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
  }
  return out;
}

/// Every case and whitespace variant of a canonical name.
std::vector<std::string> spellings(const std::string& name) {
  return {name, upper_case(name), mixed_case(name), " " + name + "\t",
          "\r\n " + upper_case(name) + " \v\f", "\t" + mixed_case(name)};
}

TEST(DecodeTable, EveryNameRoundTripsInAnyCaseAndWhitespace) {
  for (const RootCause cause : kAllRootCauses) {
    for (const std::string& s : spellings(to_string(cause))) {
      EXPECT_EQ(root_cause_from_string(s), cause) << '"' << s << '"';
    }
  }
  for (std::uint8_t v = 0; v <= static_cast<std::uint8_t>(
                               DetailCause::undetermined);
       ++v) {
    const auto detail = static_cast<DetailCause>(v);
    for (const std::string& s : spellings(to_string(detail))) {
      EXPECT_EQ(detail_cause_from_string(s), detail) << '"' << s << '"';
    }
  }
  for (const Workload w :
       {Workload::compute, Workload::graphics, Workload::frontend}) {
    for (const std::string& s : spellings(to_string(w))) {
      EXPECT_EQ(workload_from_string(s), w) << '"' << s << '"';
    }
  }
  for (const char* alias : {"frontend", "front-end"}) {
    for (const std::string& s : spellings(alias)) {
      EXPECT_EQ(workload_from_string(s), Workload::frontend);
    }
  }
}

TEST(DecodeTable, NearMissesAreParseErrors) {
  using namespace std::string_view_literals;
  for (const std::string_view miss :
       {"hardwar"sv, "hardware_"sv, "nicx"sv, "front end"sv, ""sv, "   "sv,
        "hard\0ware"sv, "nic\0"sv, "fe\0"sv, "_nic"sv, "computer"sv}) {
    const std::string shown(miss);
    EXPECT_THROW(root_cause_from_string(miss), ParseError) << shown;
    EXPECT_THROW(detail_cause_from_string(miss), ParseError) << shown;
    EXPECT_THROW(workload_from_string(miss), ParseError) << shown;
  }
}

TEST(CauseIndex, StableOrder) {
  EXPECT_EQ(cause_index(RootCause::hardware), 0u);
  EXPECT_EQ(cause_index(RootCause::software), 1u);
  EXPECT_EQ(cause_index(RootCause::network), 2u);
  EXPECT_EQ(cause_index(RootCause::environment), 3u);
  EXPECT_EQ(cause_index(RootCause::human), 4u);
  EXPECT_EQ(cause_index(RootCause::unknown), 5u);
  for (std::size_t i = 0; i < kAllRootCauses.size(); ++i) {
    EXPECT_EQ(cause_index(kAllRootCauses[i]), i);
  }
}

}  // namespace
}  // namespace hpcfail::trace
