// Whole-file reads: one sized read, where an istreambuf_iterator walk
// pays per byte.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace cdc::support {

/// Every byte of the regular file at `path`, in one sized read; nullopt
/// when it cannot be opened or is not a regular file.
[[nodiscard]] inline std::optional<std::vector<std::uint8_t>> read_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!in.good() || ec) return std::nullopt;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace cdc::support
