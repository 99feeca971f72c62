#include "parallel/numa.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gdelt {
namespace {

TEST(NumaTest, WarmPagesDoesNotModify) {
  std::vector<unsigned char> buf(4096 * 4 + 7);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 31);
  }
  const auto copy = buf;
  WarmPagesParallel(buf.data(), buf.size());
  EXPECT_EQ(buf, copy);
}

TEST(NumaTest, WarmEmptyBufferIsSafe) { WarmPagesParallel(nullptr, 0); }

}  // namespace
}  // namespace gdelt
