#pragma once

// Strict numeric parsing for environment variables and CLI arguments.
//
// std::atoi/std::atof silently return 0 on garbage, so `VEDR_CASES=ten` or
// `--scale 0.x5` would quietly run something other than what was asked.
// These helpers parse the *entire* string or fail: the optional-returning
// forms let callers decide, and the `_or_die` forms print a diagnostic and
// exit(2) — the right behavior for tools and bench harnesses where a typo
// must not masquerade as a valid configuration.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace vedr::common {

/// Parses a base-10 integer; the whole string must be consumed (leading and
/// trailing whitespace rejected) and the value must fit in int64.
inline std::optional<std::int64_t> parse_i64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  // strtoll skips leading whitespace; "the whole string" means no whitespace.
  if (s.front() == ' ' || s.front() == '\t' || s.front() == '\n' || s.front() == '\r')
    return std::nullopt;
  const std::string buf(s);  // NUL-terminate for strtoll
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return std::nullopt;
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

/// Parses a decimal floating-point number; the whole string must be
/// consumed. Rejects inf/nan spellings (never a valid knob value here).
inline std::optional<double> parse_f64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  for (const char c : s)
    if ((c < '0' || c > '9') && c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E')
      return std::nullopt;
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return std::nullopt;
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

/// Parses an int in [lo, hi]; anything else (not an integer, out of range,
/// past int) prints a diagnostic naming `what` — the flag or env var, e.g.
/// "--case" or "VEDR_CASES" — and the range, and exits 2.
inline int parse_int_or_die(std::string_view what, std::string_view value, int lo, int hi) {
  const auto v = parse_i64(value);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr, "error: %.*s: not an integer in [%d, %d]: \"%.*s\"\n",
                 static_cast<int>(what.size()), what.data(), lo, hi,
                 static_cast<int>(value.size()), value.data());
    std::exit(2);
  }
  return static_cast<int>(*v);
}

inline double parse_f64_or_die(std::string_view what, std::string_view value) {
  const auto v = parse_f64(value);
  if (!v) {
    std::fprintf(stderr, "error: %.*s: not a number: \"%.*s\"\n",
                 static_cast<int>(what.size()), what.data(),
                 static_cast<int>(value.size()), value.data());
    std::exit(2);
  }
  return *v;
}

/// getenv as optional<string>; unset and empty both mean "not configured".
inline std::optional<std::string> env_str(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup; nothing in
  // this process calls setenv/putenv after startup.
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

}  // namespace vedr::common
