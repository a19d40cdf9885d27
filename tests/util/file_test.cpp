#include "util/file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "test_support.hpp"

namespace wormsim::util {
namespace {

namespace fs = std::filesystem;

TEST(File, AtomicWriteCreatesParentsAndReplacesWhole) {
  const std::string dir = test::temp_dir("wormsim_file_atomic");
  const std::string path = dir + "/deep/nested/file.json";
  ASSERT_TRUE(write_file_atomic(path, "first\n"));
  EXPECT_EQ(read_file(path), "first\n");
  ASSERT_TRUE(write_file_atomic(path, "second\n"));
  EXPECT_EQ(read_file(path), "second\n");
  // No temp litter left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/deep/nested")) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_FALSE(read_file(dir + "/missing").has_value());
}

}  // namespace
}  // namespace wormsim::util
