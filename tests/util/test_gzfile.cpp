#include "util/gzfile.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace adr::util {
namespace {

class GzFileTest : public ::testing::Test {
 protected:
  // Per-process: ctest -j runs each test in its own process, and one
  // test's TearDown must not remove another's file.
  std::string path_ = ::testing::TempDir() + "/adr_gz_test_" +
                      std::to_string(::getpid()) + ".txt.gz";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST(GzSuffix, Detection) {
  EXPECT_TRUE(has_gz_suffix("snapshot.csv.gz"));
  EXPECT_TRUE(has_gz_suffix(".gz"));
  EXPECT_FALSE(has_gz_suffix("snapshot.csv"));
  EXPECT_FALSE(has_gz_suffix("gz"));
  EXPECT_FALSE(has_gz_suffix(""));
}

TEST_F(GzFileTest, RoundTripLines) {
  {
    GzWriter w(path_);
    w.write_line("first");
    w.write_line("second,with,commas");
    w.write_line("");
    w.close();
  }
  GzReader r(path_);
  EXPECT_EQ(r.next_line(), "first");
  EXPECT_EQ(r.next_line(), "second,with,commas");
  EXPECT_EQ(r.next_line(), "");
  EXPECT_FALSE(r.next_line());
}

TEST_F(GzFileTest, OutputIsActuallyCompressed) {
  {
    GzWriter w(path_);
    // Highly repetitive content compresses well below its raw size.
    for (int i = 0; i < 1000; ++i) {
      w.write_line("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
    }
    w.close();
  }
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in);
  EXPECT_LT(in.tellg(), 5000);  // raw would be ~51000 bytes
  // And starts with the gzip magic bytes.
  in.seekg(0);
  unsigned char magic[2] = {0, 0};
  in.read(reinterpret_cast<char*>(magic), 2);
  EXPECT_EQ(magic[0], 0x1f);
  EXPECT_EQ(magic[1], 0x8b);
}

TEST_F(GzFileTest, LongLinesSpanBuffers) {
  const std::string long_line(10000, 'x');
  {
    GzWriter w(path_);
    w.write_line(long_line);
    w.write_line("tail");
    w.close();
  }
  GzReader r(path_);
  EXPECT_EQ(r.next_line(), long_line);
  EXPECT_EQ(r.next_line(), "tail");
}

TEST_F(GzFileTest, ReaderAcceptsPlainText) {
  // zlib's gzopen transparently reads uncompressed files.
  {
    std::ofstream out(path_);
    out << "plain\ntext\n";
  }
  GzReader r(path_);
  EXPECT_EQ(r.next_line(), "plain");
  EXPECT_EQ(r.next_line(), "text");
  EXPECT_FALSE(r.next_line());
}

TEST(GzFile, MissingFileThrows) {
  EXPECT_THROW(GzReader("/nonexistent/nope.gz"), std::runtime_error);
  EXPECT_THROW(GzWriter("/nonexistent/dir/nope.gz"), std::runtime_error);
}

TEST_F(GzFileTest, WriteAfterCloseThrows) {
  GzWriter w(path_);
  w.write_line("x");
  w.close();
  EXPECT_THROW(w.write_line("y"), std::runtime_error);
}

}  // namespace
}  // namespace adr::util
