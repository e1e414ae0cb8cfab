#pragma once
/// \file parse.hpp
/// \brief Strict numeric parsing for user-facing front ends (the CLI).
/// Unlike std::atoll/atof — which silently return 0 for garbage
/// and wrap on overflow — these helpers accept a string only when it parses
/// COMPLETELY and fits the target type, returning nullopt otherwise, so a
/// typo like `--rank abc` or `--dims 10x-3x7` becomes a usage error instead
/// of an uncaught exception (or a silently wrong run) later.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace dmtk {

namespace detail {
/// strtoll/strtod silently skip leading whitespace; for argv-style values
/// that tolerance only hides typos, so the parsers reject it.
inline bool leading_space(std::string_view s) {
  return !s.empty() && std::isspace(static_cast<unsigned char>(s.front()));
}
}  // namespace detail

/// Parse a complete signed integer; nullopt on empty input, leading
/// whitespace, trailing garbage, or overflow.
inline std::optional<long long> parse_ll(std::string_view s) {
  if (s.empty() || detail::leading_space(s)) return std::nullopt;
  const std::string buf(s);  // strtoll needs a NUL terminator
  char* endp = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &endp, 10);
  if (errno == ERANGE || endp != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

/// Parse a complete FINITE double; nullopt on empty input, leading
/// whitespace, trailing garbage, overflow, or the "nan"/"inf" literals
/// (every numeric CLI flag feeds a range check that NaN would sail
/// through, so non-finite values are rejected at the parse). Underflow is
/// NOT an error: strtod also sets ERANGE for subnormal results (e.g.
/// "1e-310"), which are perfectly representable values a user may
/// legitimately pass.
inline std::optional<double> parse_f64(std::string_view s) {
  if (s.empty() || detail::leading_space(s)) return std::nullopt;
  const std::string buf(s);
  char* endp = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &endp);
  if (endp != buf.c_str() + buf.size()) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

/// Parse an "AxBxC" extent list where every extent must be a positive
/// integer; nullopt on any malformed or nonpositive field ("10x-3x7",
/// "10xx7", "abc", "").
inline std::optional<std::vector<index_t>> parse_extents(std::string_view s) {
  std::vector<index_t> dims;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t x = s.find('x', pos);
    if (x == std::string_view::npos) x = s.size();
    const auto v = parse_ll(s.substr(pos, x - pos));
    if (!v || *v < 1) return std::nullopt;
    dims.push_back(static_cast<index_t>(*v));
    pos = x + 1;
    if (x == s.size()) break;
  }
  if (dims.empty()) return std::nullopt;
  return dims;
}

}  // namespace dmtk
