#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>

#include "util/fault.hpp"
#include "util/io.hpp"

namespace adr::util {
namespace {

TEST(CsvSplit, Plain) {
  const auto f = csv_split("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(CsvSplit, EmptyFields) {
  const auto f = csv_split(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& s : f) EXPECT_TRUE(s.empty());
}

TEST(CsvSplit, QuotedWithSeparator) {
  const auto f = csv_split("\"a,b\",c");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "c");
}

TEST(CsvSplit, EscapedQuotes) {
  const auto f = csv_split("\"he said \"\"hi\"\"\",x");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "he said \"hi\"");
}

TEST(CsvSplit, ToleratesTrailingCarriageReturn) {
  const auto f = csv_split("a,b\r");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1], "b");
}

TEST(CsvJoin, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_join({"a", "b"}), "a,b");
  EXPECT_EQ(csv_join({"a,b", "c"}), "\"a,b\",c");
  EXPECT_EQ(csv_join({"say \"hi\""}), "\"say \"\"hi\"\"\"");
}

TEST(CsvRoundTrip, SplitInvertsJoin) {
  const std::vector<std::string> fields{"plain", "with,comma", "with\"quote",
                                        "", "path/with/slashes"};
  EXPECT_EQ(csv_split(csv_join(fields)), fields);
}

TEST(CsvReader, HeaderAndRows) {
  std::istringstream in("user,name\n0,alice\n1,bob\n");
  CsvReader r(in);
  ASSERT_TRUE(r.read_header());
  EXPECT_EQ(r.column("user"), 0u);
  EXPECT_EQ(r.column("name"), 1u);
  EXPECT_EQ(r.column("missing"), CsvReader::npos);
  auto row = r.next();
  ASSERT_TRUE(row);
  EXPECT_EQ((*row)[1], "alice");
  row = r.next();
  ASSERT_TRUE(row);
  EXPECT_EQ((*row)[1], "bob");
  EXPECT_FALSE(r.next());
}

TEST(CsvReader, SkipsBlankLines) {
  std::istringstream in("a\n\n\nb\n");
  CsvReader r(in);
  EXPECT_EQ((*r.next())[0], "a");
  EXPECT_EQ((*r.next())[0], "b");
  EXPECT_FALSE(r.next());
}

TEST(CsvReader, EmptyInput) {
  std::istringstream in("");
  CsvReader r(in);
  EXPECT_FALSE(r.read_header());
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row({"x", "y"});
  w.write_row({"1", "hello,world"});
  EXPECT_EQ(out.str(), "x,y\n1,\"hello,world\"\n");
}

TEST(Csv, CustomSeparator) {
  const auto f = csv_split("a|b|c", '|');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(csv_join({"a", "b"}, '|'), "a|b");
}

std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string typed_cell(double v) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row(v);
  std::string cell = out.str();
  cell.pop_back();  // '\n'
  return cell;
}

TEST(CsvWriter, TypedRowsMatchStringRows) {
  std::ostringstream typed;
  std::ostringstream strings;
  CsvWriter t(typed);
  CsvWriter s(strings);
  const std::string quoted = "/scratch/a,b/\"q\".dat";
  t.row("path", "owner", "size", "impact");
  s.write_row({"path", "owner", "size", "impact"});
  t.row(quoted, std::uint32_t{7}, std::uint64_t{18446744073709551615u}, 0.1);
  s.write_row({quoted, std::to_string(7u),
               std::to_string(std::uint64_t{18446744073709551615u}),
               printf_17g(0.1)});
  t.row(std::string(), std::int64_t{-1600000000}, std::size_t{3}, -0.0);
  s.write_row({"", std::to_string(std::int64_t{-1600000000}),
               std::to_string(std::size_t{3}), printf_17g(-0.0)});
  EXPECT_EQ(typed.str(), strings.str());
  EXPECT_NE(typed.str().find("\"/scratch/a,b/\"\"q\"\".dat\""),
            std::string::npos);
  EXPECT_NE(typed.str().find("\n,-1600000000,3,-0\n"), std::string::npos);
}

TEST(CsvWriter, DoublesPrintAsPercent17g) {
  const double cases[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          1e-300,
                          1e300,
                          -2.5,
                          123456789012345678.0,
                          1e16,
                          1e17,
                          1e-5,
                          1e-4,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max()};
  for (const double v : cases) EXPECT_EQ(typed_cell(v), printf_17g(v)) << v;
}

TEST(CsvWriter, DoublesMatchPercent17gOnRandomBitPatterns) {
  std::mt19937_64 rng(20211114);
  std::ostringstream out;
  CsvWriter w(out);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  char buf[64];
  while (checked < 1'000'000) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    ++checked;
    out.str("");
    w.row(v);
    const int n = std::snprintf(buf, sizeof(buf), "%.17g\n", v);
    if (out.view() != std::string_view(buf, static_cast<std::size_t>(n)) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << bits << ": to_chars " << out.str()
                    << " vs %.17g " << buf;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CsvWriter, CrashPointFiresPerRowHeaderIncluded) {
  FaultInjector::global().configure("csv.row:crash@3");
  std::ostringstream out;
  CsvWriter w(out);
  w.row("a", "b");                  // row 1: the header
  w.write_row({"1", "2"});          // row 2
  EXPECT_THROW(w.row(3, 4), CrashInjected);  // row 3
  FaultInjector::global().clear();
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(CsvWriter, CrashLeavesOnlyWholeDrainedChunksInTheTemp) {
  namespace fsys = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/adr_csv_test_" +
                          std::to_string(::getpid());
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  const std::string path = dir + "/rows.csv";
  std::ostringstream reference;
  CsvWriter ref(reference);
  const int rows = 20000;  // several put-area chunks
  for (int i = 0; i < rows; ++i) ref.row(i, i * 0.5, "/scratch/f");
  FaultInjector::global().configure("csv.row:crash@" +
                                    std::to_string(rows - 10));
  try {
    io::AtomicWriter writer(path);
    CsvWriter w(writer.stream());
    for (int i = 0; i < rows; ++i) w.row(i, i * 0.5, "/scratch/f");
    writer.commit();
    FAIL() << "expected CrashInjected";
  } catch (const CrashInjected&) {
  }
  FaultInjector::global().clear();
  std::ifstream in(path + ".tmp", std::ios::binary);
  const std::string torn{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  // The temp is shorter than the rows written before the crash, holds
  // whole chunks only, and is a prefix of the full payload.
  EXPECT_GT(torn.size(), 0u);
  EXPECT_EQ(torn.size() % io::kIoChunkBytes, 0u);
  EXPECT_EQ(reference.str().compare(0, torn.size(), torn), 0);
  EXPECT_FALSE(fsys::exists(path));
  fsys::remove_all(dir);
}

}  // namespace
}  // namespace adr::util
