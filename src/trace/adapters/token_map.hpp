// Internal helpers shared by the concrete adapters: bijective token
// vocabularies over the record enums, and the host-style id splitter.
// Each adapter declares one std::array of tokens per axis, ordered like
// the enum (kAllRootCauses order for causes, declaration order for
// DetailCause and Workload), and converts through token_for and
// index_of_token so format/parse stay exact inverses by construction.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpcfail::trace::adapters {

/// Token for enum index `index`. The tables are adapter-authored and
/// index is derived from a valid enum, so this never fails.
inline std::string_view token_for(std::span<const std::string_view> table,
                                  std::size_t index) noexcept {
  return table[index];
}

/// Enum index of `token`, or ParseError naming the axis on a miss.
/// Linear scan: the largest table has 16 entries.
inline std::size_t index_of_token(std::span<const std::string_view> table,
                                  std::string_view token,
                                  std::string_view axis) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i] == token) return i;
  }
  throw ParseError("unknown " + std::string(axis) + " token '" +
                   std::string(token) + "'");
}

/// Splits "<prefix><system><sep><node>" host-style ids (lu's node path
/// "c20n5", mistral's host "m20n5" and job id "j20-5"). ParseError naming
/// `what` on a malformed id or one that does not fit int.
inline void parse_ids(std::string_view text, char prefix, char sep,
                      std::string_view what, int& system_id, int& node_id) {
  const auto bad = [&]() -> ParseError {
    return ParseError("bad " + std::string(what) + " '" + std::string(text) +
                      "' (want " + prefix + "<system>" + sep + "<node>)");
  };
  if (text.size() < 4 || text.front() != prefix) throw bad();
  const std::size_t at = text.find(sep, 1);
  if (at == std::string_view::npos || at + 1 >= text.size()) throw bad();
  system_id = parse_int<int>(text.substr(1, at - 1));
  node_id = parse_int<int>(text.substr(at + 1));
}

}  // namespace hpcfail::trace::adapters
