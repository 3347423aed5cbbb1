// Small string utilities shared across the library (trimming, splitting,
// checked numeric parsing). All parsers throw ParseError with the offending
// text so trace-ingestion errors are actionable.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail {

/// Copy of `s` with ASCII whitespace removed from both ends.
std::string trim(std::string_view s);

/// Lower-cased ASCII copy of `s`.
std::string to_lower(std::string_view s);

/// Splits on `sep`; keeps empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Parses a base-10 integer straight into T: the whole string must be
/// consumed and the value must fit T (no sign for unsigned T). Throws
/// ParseError otherwise, so callers parse to the type they store instead
/// of narrowing a wider parse. Instantiated for the standard signed and
/// unsigned integer types from int up.
template <std::integral T>
T parse_int(std::string_view s);

/// Parses a finite double; the whole string must be consumed.
/// Throws ParseError otherwise.
double parse_double(std::string_view s);

/// Formats a double with `prec` significant digits, trimming zeros.
std::string format_double(double value, int prec = 6);

}  // namespace hpcfail
