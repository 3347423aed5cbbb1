#include "trace/types.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace hpcfail::trace {

RootCause category_of(DetailCause detail) noexcept {
  switch (detail) {
    case DetailCause::memory_dimm:
    case DetailCause::cpu:
    case DetailCause::node_interconnect:
    case DetailCause::power_supply:
    case DetailCause::disk:
    case DetailCause::other_hardware:
      return RootCause::hardware;
    case DetailCause::operating_system:
    case DetailCause::parallel_fs:
    case DetailCause::scheduler:
    case DetailCause::other_software:
      return RootCause::software;
    case DetailCause::network_switch:
    case DetailCause::nic:
      return RootCause::network;
    case DetailCause::power_outage:
    case DetailCause::ac_failure:
      return RootCause::environment;
    case DetailCause::operator_error:
      return RootCause::human;
    case DetailCause::undetermined:
      return RootCause::unknown;
  }
  return RootCause::unknown;
}

std::size_t cause_index(RootCause cause) noexcept {
  switch (cause) {
    case RootCause::hardware: return 0;
    case RootCause::software: return 1;
    case RootCause::network: return 2;
    case RootCause::environment: return 3;
    case RootCause::human: return 4;
    case RootCause::unknown: return 5;
  }
  return 5;
}

namespace {

// Names in enum order (each enum is dense from 0), written once for both
// directions.
constexpr std::array<std::string_view, 6> kRootCauseNames = {
    "hardware", "software", "network", "environment", "human", "unknown",
};

constexpr std::array<std::string_view, 16> kDetailCauseNames = {
    "memory_dimm",      "cpu",            "node_interconnect",
    "power_supply",     "disk",           "other_hardware",
    "operating_system", "parallel_fs",    "scheduler",
    "other_software",   "network_switch", "nic",
    "power_outage",     "ac_failure",     "operator_error",
    "undetermined",
};

/// The three workloads, then two aliases of the last one (frontend).
constexpr std::array<std::string_view, 5> kWorkloadNames = {
    "compute", "graphics", "fe", "frontend", "front-end",
};

constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// ASCII case-insensitive equality against a lower-case name.
constexpr bool equals_folded(std::string_view text,
                             std::string_view lower) noexcept {
  if (text.size() != lower.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char folded =
        c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    if (folded != lower[i]) return false;
  }
  return true;
}

template <typename Enum>
std::string name_of(std::span<const std::string_view> names, Enum value,
                    const char* type) {
  const auto i = static_cast<std::size_t>(value);
  if (i >= names.size()) {
    throw InvalidArgument(std::string("invalid ") + type + " value");
  }
  return std::string(names[i]);
}

/// Index of the trimmed, case-folded `text` in `names`; ParseError if
/// it is none of them.
std::size_t decode(std::span<const std::string_view> names,
                   std::string_view text, const char* what) {
  std::string_view t = text;
  while (!t.empty() && is_space(t.front())) t.remove_prefix(1);
  while (!t.empty() && is_space(t.back())) t.remove_suffix(1);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (equals_folded(t, names[i])) return i;
  }
  throw ParseError(std::string("unknown ") + what + ": '" +
                   std::string(text) + "'");
}

}  // namespace

std::string to_string(RootCause cause) {
  return name_of(kRootCauseNames, cause, "RootCause");
}

std::string to_string(DetailCause detail) {
  return name_of(kDetailCauseNames, detail, "DetailCause");
}

std::string to_string(Workload workload) {
  return name_of(std::span(kWorkloadNames).first(3), workload, "Workload");
}

RootCause root_cause_from_string(std::string_view text) {
  return static_cast<RootCause>(decode(kRootCauseNames, text, "root cause"));
}

DetailCause detail_cause_from_string(std::string_view text) {
  return static_cast<DetailCause>(
      decode(kDetailCauseNames, text, "detail cause"));
}

Workload workload_from_string(std::string_view text) {
  const std::size_t i = decode(kWorkloadNames, text, "workload");
  return static_cast<Workload>(
      std::min(i, static_cast<std::size_t>(Workload::frontend)));
}

}  // namespace hpcfail::trace
