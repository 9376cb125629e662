// Whole-string numeric flag parsing shared by the command-line tools
// (cdc_run, cdc_served, cdc_client, record_inspector).
#pragma once

#include <cerrno>
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

}  // namespace cdc::cli
