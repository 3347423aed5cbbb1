// Multi-site trace adapters: bijective mappings between FailureRecord and
// the on-disk/wire schemas of other public HPC failure studies (ROADMAP
// item 4). Every adapter formats a record as exactly one line and parses
// one line back; format_line/parse_line are exact inverses, so a native
// record survives a round trip through any foreign schema bit-identically
// (the testkit property battery pins this per adapter).
//
// Error taxonomy: parse_line throws ParseError for malformed lines (wrong
// field count, bad numbers or timestamps, unknown vocabulary tokens) and
// ValidationError for well-formed lines that fail semantic checks (repair
// interval ending before it starts, cause/detail category mismatch,
// redundant fields that disagree). Streaming ingest (LineSource with an
// adapter, `hpcfail serve --format <name>`) flattens both into
// reject-and-count; the strict batch path (read_adapter_file) adds a
// "line N:" prefix and rethrows the same type.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "trace/dataset.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {

/// One foreign trace schema: a named, line-oriented, bijective encoding
/// of FailureRecord. Implementations are stateless immutable singletons
/// (see all_adapters()), safe to share across threads.
class Adapter {
 public:
  virtual ~Adapter() = default;

  /// Registry key ("lu", "mistral", "tan") — also the CLI --format value.
  virtual std::string_view name() const noexcept = 0;

  /// One-line human description with the source study.
  virtual std::string_view description() const noexcept = 0;

  /// Banner/header line written at the top of the format's files and
  /// skipped silently on ingest. Empty when the format has none.
  virtual std::string_view header() const noexcept = 0;

  /// Renders one record as one line (no trailing newline). Total: every
  /// consistent record is representable.
  virtual std::string format_line(const FailureRecord& record) const = 0;

  /// Parses one line (trailing '\r' already stripped by callers is also
  /// tolerated here). Exact inverse of format_line on its image. Throws
  /// ParseError / ValidationError per the taxonomy above.
  virtual FailureRecord parse_line(std::string_view line) const = 0;
};

/// Every registered adapter, ascending by name. Immutable singletons.
std::span<const Adapter* const> all_adapters() noexcept;

/// The registered names joined with ", " (for --help and error messages).
std::string adapter_names();

/// Looks an adapter up by name. Throws ValidationError listing the known
/// names on a miss.
const Adapter& adapter_for(std::string_view name);

/// Semantic checks shared by every adapter's parse path: positive system
/// id, non-negative node id, end >= start, times a native timestamp can
/// spell, detail belonging to the cause's category. Throws
/// ValidationError with a field-specific message.
void validate_adapted(const FailureRecord& record);

/// Strict/lenient batch source over an istream of adapter-format lines —
/// the foreign-schema analogue of CsvSource. Blank lines and lines equal
/// to the adapter's header are skipped silently; next() never returns
/// `idle`. With OnError::throw_, parse failures rethrow their original
/// type (ParseError or ValidationError) prefixed with "line N:"; with
/// OnError::reject they are counted into counters().
class AdapterSource : public Source {
 public:
  enum class OnError { throw_, reject };

  /// `in` and `adapter` must outlive the source.
  AdapterSource(std::istream& in, const Adapter& adapter,
                OnError on_error = OnError::throw_);

  SourceStatus next(FailureRecord& out) override;

 private:
  std::istream& in_;
  const Adapter& adapter_;
  OnError on_error_;
  std::size_t line_number_ = 0;
  std::string line_;
};

/// Writes the dataset in the adapter's format (header line when the
/// format has one, then one line per record).
void write_adapter(std::ostream& out, const FailureDataset& dataset,
                   const Adapter& adapter);

/// Writes to a file; throws IoError when the file cannot be opened.
void write_adapter_file(const std::string& path,
                        const FailureDataset& dataset,
                        const Adapter& adapter);

/// Reads a foreign-format trace file. With `counters == nullptr` the
/// first malformed line throws (ParseError/ValidationError with a "line
/// N:" prefix); otherwise malformed lines are rejected-and-counted into
/// `*counters` and the clean records returned. Throws IoError when the
/// file cannot be opened.
FailureDataset read_adapter_file(const std::string& path,
                                 const Adapter& adapter,
                                 SourceCounters* counters = nullptr);

}  // namespace hpcfail::trace
