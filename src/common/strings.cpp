#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"

namespace hpcfail {

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& ch : out) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

template <std::integral T>
T parse_int(std::string_view s) {
  T value{};
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) {
    throw ParseError("not an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) +
                     "]: '" + std::string(s) + "'");
  }
  return value;
}

template int parse_int<int>(std::string_view);
template unsigned parse_int<unsigned>(std::string_view);
template long parse_int<long>(std::string_view);
template unsigned long parse_int<unsigned long>(std::string_view);
template long long parse_int<long long>(std::string_view);
template unsigned long long parse_int<unsigned long long>(std::string_view);

double parse_double(std::string_view s) {
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty() || !std::isfinite(value)) {
    throw ParseError("not a finite number: '" + std::string(s) + "'");
  }
  return value;
}

std::string format_double(double value, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", prec, value);
  return buf;
}

}  // namespace hpcfail
