#include "support/file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace cdc::support {
namespace {

std::string scratch_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("cdc_file_test_" + std::string(tag) + "_" +
           std::to_string(::getpid())))
      .string();
}

TEST(ReadFile, MissingFileIsNullopt) {
  EXPECT_FALSE(read_file(scratch_path("missing")).has_value());
}

TEST(ReadFile, EmptyFileIsEmpty) {
  const std::string path = scratch_path("empty");
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  const auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(bytes->empty());
  std::filesystem::remove(path);
}

TEST(ReadFile, ReturnsEveryByte) {
  const std::string path = scratch_path("content");
  std::vector<std::uint8_t> written(70'000);
  for (std::size_t i = 0; i < written.size(); ++i)
    written[i] = static_cast<std::uint8_t>(i * 7 + (i >> 8));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(written.data()),
              static_cast<std::streamsize>(written.size()));
  }
  EXPECT_EQ(read_file(path), written);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cdc::support
