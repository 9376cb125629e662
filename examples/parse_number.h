// Whole-string numeric argument parsing shared by the command-line tools
// (cdc_run, cdc_served, cdc_client, record_inspector) and the examples.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cdc::cli {

/// Parses all of `text` as an unsigned decimal in [lo, hi]. strtoull
/// alone would accept a prefix ("12x"), wrap a sign ("-1") and saturate,
/// so the leading digit, full-string and range checks are all needed.
inline bool parse_number(const char* text, unsigned long long lo,
                         unsigned long long hi, unsigned long long* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value < lo || value > hi)
    return false;
  *out = value;
  return true;
}

/// Parses the optional positional argument argv[index] as parse_number
/// does into *out, which keeps its default when the argument is absent.
/// On a bad value prints "<program>: bad <name> value '<text>'".
inline bool parse_positional(int argc, char** argv, int index,
                             const char* program, const char* name,
                             unsigned long long lo, unsigned long long hi,
                             int* out) {
  if (index >= argc) return true;
  unsigned long long value = 0;
  if (!parse_number(argv[index], lo, hi, &value)) {
    std::fprintf(stderr, "%s: bad %s value '%s'\n", program, name,
                 argv[index]);
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace cdc::cli
