// CSV ingest/export of failure datasets in a schema mirroring the public
// LANL release: one row per failure with system, node, start/end
// timestamps, workload, and root cause at both levels.
//
// Header: system,node,start,end,workload,cause,detail
// Timestamps are "YYYY-MM-DD HH:MM:SS" UTC. The reader validates every
// field and reports the line number of the first malformed row.
//
// read_csv is a block reader: it reads the stream kCsvBlockBytes at a
// time, cuts each block after its last row-ending '\n' (quotes
// respected), parses each wave of parallelism() blocks on the shared pool
// into per-block columns and joins them in file order. It returns exactly
// what the row-at-a-time CsvSource path returns, errors included.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "trace/dataset.hpp"

namespace hpcfail::trace {

/// The canonical header row.
extern const char* const kCsvHeader;

/// Bytes read_csv reads per block (more only while one row is longer).
inline constexpr std::size_t kCsvBlockBytes = std::size_t{4} << 20;

/// Writes the dataset (header + one row per record).
void write_csv(std::ostream& out, const FailureDataset& dataset);

/// Writes to a file; throws Error when the file cannot be opened.
void write_csv_file(const std::string& path, const FailureDataset& dataset);

/// Reads a dataset. Requires the canonical header. Throws ParseError on
/// a missing or unexpected header and on the first malformed or
/// inconsistent row in file order ("line N: ...", N the physical line
/// the row starts on).
FailureDataset read_csv(std::istream& in);

/// Reads from a file; throws Error when the file cannot be opened.
FailureDataset read_csv_file(const std::string& path);

}  // namespace hpcfail::trace
