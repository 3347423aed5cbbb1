// Cross-schema differential battery, property half:
//
//   * round trip — a native record formatted by any adapter and parsed
//     back is bit-identical (the bijectivity contract of the tentpole);
//   * mutation fuzz — random byte mutations of valid foreign lines
//     either throw a typed library Error (which streaming ingest turns
//     into reject-and-count) or parse into a fully consistent record;
//     nothing crashes, nothing is silently accepted as garbage;
//   * boundary fuzz — one numeric token swapped for an integer-type edge
//     value is rejected, or accepted exactly (format(parse(l)) == l).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "testkit/generators.hpp"
#include "testkit/property.hpp"
#include "trace/adapters/adapter.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {
namespace {

TEST(AdapterRoundTrip, EveryAdapterIsBijectiveOnConsistentRecords) {
  for (const Adapter* adapter : all_adapters()) {
    const auto result = testkit::check_property(
        testkit::failure_records(),
        [adapter](const FailureRecord& r) {
          return adapter->parse_line(adapter->format_line(r)) == r;
        });
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

TEST(AdapterRoundTrip, SurvivesSecondRoundTripByteIdentically) {
  // format -> parse -> format must reproduce the same line: the adapter
  // cannot have two spellings of one record.
  for (const Adapter* adapter : all_adapters()) {
    const auto result = testkit::check_property(
        testkit::failure_records(),
        [adapter](const FailureRecord& r) {
          const std::string line = adapter->format_line(r);
          return adapter->format_line(adapter->parse_line(line)) == line;
        });
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

/// A valid formatted line with `mutations` random single-byte edits
/// (replace, delete, or insert), plus the record it came from.
struct MutatedLine {
  std::string line;
  std::string original;
};

testkit::Gen<MutatedLine> mutated_lines(const Adapter& adapter) {
  testkit::Gen<MutatedLine> gen;
  const testkit::Gen<FailureRecord> records = testkit::failure_records();
  gen.sample = [&adapter, records](Rng& rng) {
    MutatedLine out;
    out.original = adapter.format_line(records.sample(rng));
    out.line = out.original;
    const std::size_t mutations =
        1 + static_cast<std::size_t>(rng.uniform() * 4.0);
    for (std::size_t m = 0; m < mutations && !out.line.empty(); ++m) {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform() * out.line.size());
      const double kind = rng.uniform();
      // Printable and non-printable replacements alike; '\n' excluded so
      // the mutation stays a single line (the framing layer's job).
      // Via unsigned char: a double above 127 does not fit (signed) char.
      char byte = static_cast<char>(
          static_cast<unsigned char>(1 + rng.uniform() * 254.0));
      if (byte == '\n') byte = '?';
      if (kind < 0.6) {
        out.line[at] = byte;
      } else if (kind < 0.8) {
        out.line.erase(at, 1);
      } else {
        out.line.insert(at, 1, byte);
      }
    }
    return out;
  };
  gen.show = [](const MutatedLine& v) {
    return "mutated: \"" + v.line + "\" (from \"" + v.original + "\")";
  };
  return gen;
}

TEST(AdapterFuzz, MutatedLinesRejectOrParseConsistently) {
  testkit::PropertyOptions options;
  options.cases = 2000;
  for (const Adapter* adapter : all_adapters()) {
    const auto result = testkit::check_property(
        mutated_lines(*adapter),
        [adapter](const MutatedLine& v) {
          try {
            const FailureRecord r = adapter->parse_line(v.line);
            // Whatever still parses must be a fully consistent record —
            // the adapter may accept a *different* valid line, never
            // emit garbage.
            return r.is_consistent() && r.system_id >= 1 &&
                   r.node_id >= 0 && r.end >= r.start;
          } catch (const ParseError&) {
            return true;
          } catch (const ValidationError&) {
            return true;
          }
          // Any other exception type (or a crash) fails the property.
        },
        options);
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

/// The edges of the integer types ids and times are parsed into (int,
/// Seconds), and one past each.
constexpr std::array<std::string_view, 6> kBoundaryTokens = {
    "2147483648",          "4294967297",          "-1",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808"};

/// A valid formatted line with one numeric token (a maximal digit run)
/// swapped for a boundary value: the structured counterpart of the byte
/// mutations, which almost never produce an in-format out-of-range id.
testkit::Gen<MutatedLine> boundary_lines(const Adapter& adapter) {
  testkit::Gen<MutatedLine> gen;
  const testkit::Gen<FailureRecord> records = testkit::failure_records();
  gen.sample = [&adapter, records](Rng& rng) {
    MutatedLine out;
    out.original = adapter.format_line(records.sample(rng));
    constexpr std::string_view kDigits = "0123456789";
    const std::string& line = out.original;
    std::vector<std::pair<std::size_t, std::size_t>> runs;  // (pos, len)
    for (std::size_t pos = line.find_first_of(kDigits);
         pos != std::string::npos; pos = line.find_first_of(kDigits, pos)) {
      const std::size_t end =
          std::min(line.find_first_not_of(kDigits, pos), line.size());
      runs.emplace_back(pos, end - pos);
      pos = end;
    }
    const auto [pos, len] = runs[rng.uniform_index(runs.size())];
    const std::string_view token =
        kBoundaryTokens[rng.uniform_index(kBoundaryTokens.size())];
    out.line = line;
    out.line.replace(pos, len, token);
    return out;
  };
  gen.show = [](const MutatedLine& v) {
    return "boundary: \"" + v.line + "\" (from \"" + v.original + "\")";
  };
  return gen;
}

TEST(AdapterFuzz, BoundaryValuesRejectOrRoundTripExactly) {
  // No silent reinterpretation: a line with an out-of-range number is
  // rejected with a typed error, and any line accepted formats back to
  // exactly itself.
  testkit::PropertyOptions options;
  options.cases = 2000;
  std::size_t accepted = 0;
  for (const Adapter* adapter : all_adapters()) {
    const auto result = testkit::check_property(
        boundary_lines(*adapter),
        [adapter, &accepted](const MutatedLine& v) {
          try {
            const FailureRecord r = adapter->parse_line(v.line);
            ++accepted;
            return adapter->format_line(r) == v.line;
          } catch (const ParseError&) {
            return true;
          } catch (const ValidationError&) {
            return true;
          }
        },
        options);
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
  // Some swaps are in range (lu's start takes -1 or 2^32 + 1), so the
  // round-trip half of the property is exercised too.
  EXPECT_GT(accepted, 0u);
}

TEST(AdapterFuzz, StreamingIngestRejectsAndCountsEveryMutatedLine) {
  // The end-to-end reject-and-count guarantee: feed a mix of valid and
  // mutated lines through the adapter-aware LineSource (the serve
  // ingest path) and check accepted + rejected accounts for every line
  // with nothing thrown.
  for (const Adapter* adapter : all_adapters()) {
    Rng rng(mix_seed(0xfeed5eedull, 17, 29));
    LineSource source(adapter);
    const testkit::Gen<MutatedLine> gen = mutated_lines(*adapter);
    std::uint64_t fed = 0;
    for (std::size_t i = 0; i < 500; ++i) {
      const MutatedLine v = gen.sample(rng);
      source.feed(v.original + "\n");
      ++fed;
      if (!v.line.empty()) {
        source.feed(v.line + "\n");
        ++fed;
      }
    }
    source.finish();
    FailureRecord out;
    std::uint64_t accepted = 0;
    while (source.next(out) == SourceStatus::event) ++accepted;
    EXPECT_EQ(accepted, source.counters().accepted) << adapter->name();
    EXPECT_EQ(source.counters().accepted + source.counters().rejected, fed)
        << adapter->name();
    // At least all the unmutated originals made it through.
    EXPECT_GE(source.counters().accepted, 500u) << adapter->name();
  }
}

}  // namespace
}  // namespace hpcfail::trace
