#include "util/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>

#include "util/fault.hpp"
#include "util/gzfile.hpp"

namespace adr::util::io {
namespace {

namespace fsys = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class AtomicIoTest : public ::testing::Test {
 protected:
  // Per-process: ctest -j runs each discovered test in its own process, and
  // concurrent processes must not race on one scratch directory.
  std::string dir_ = ::testing::TempDir() + "/adr_io_test_" +
                     std::to_string(::getpid());
  std::string path_ = dir_ + "/artifact.csv";
  void SetUp() override {
    FaultInjector::global().clear();
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::global().clear();
    fsys::remove_all(dir_);
  }
};

TEST_F(AtomicIoTest, CommitWritesFooterAndRoundTrips) {
  {
    AtomicWriter writer(path_);
    writer.write_line("a,b,c");
    writer.write_line("1,2,3");
    writer.commit();
  }
  const std::string raw = slurp(path_);
  EXPECT_NE(raw.find(kFooterPrefix), std::string::npos);

  const Artifact artifact = read_artifact(path_);
  EXPECT_EQ(artifact.state, ArtifactState::kVerified);
  EXPECT_EQ(artifact.content, "a,b,c\n1,2,3\n");  // footer stripped
  EXPECT_EQ(load_verified(path_), "a,b,c\n1,2,3\n");
}

TEST_F(AtomicIoTest, UncommittedWriterLeavesNoTrace) {
  {
    AtomicWriter writer(path_);
    writer.write_line("doomed");
  }
  EXPECT_FALSE(fsys::exists(path_));
  EXPECT_FALSE(fsys::exists(path_ + ".tmp"));
}

TEST_F(AtomicIoTest, CommitReplacesExistingAtomically) {
  {
    AtomicWriter writer(path_);
    writer.write_line("v1");
    writer.commit();
  }
  {
    AtomicWriter writer(path_);
    writer.write_line("v2");
    writer.commit();
  }
  EXPECT_EQ(load_verified(path_), "v2\n");
}

TEST_F(AtomicIoTest, LegacyFileWithoutFooterLoads) {
  {
    std::ofstream out(path_);
    out << "hand,written\nfixture,row\n";
  }
  const Artifact artifact = read_artifact(path_);
  EXPECT_EQ(artifact.state, ArtifactState::kLegacy);
  EXPECT_EQ(artifact.content, "hand,written\nfixture,row\n");
  EXPECT_NO_THROW(load_verified(path_));

  ReadOptions strict;
  strict.require_footer = true;
  EXPECT_EQ(read_artifact(path_, strict).state, ArtifactState::kCorrupt);
}

TEST_F(AtomicIoTest, FlippedByteFailsCrcAndQuarantines) {
  {
    AtomicWriter writer(path_);
    writer.write_line("payload,line,one");
    writer.commit();
  }
  std::string raw = slurp(path_);
  raw[2] ^= 0x01;  // bit rot inside the payload
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << raw;
  }
  EXPECT_EQ(read_artifact(path_).state, ArtifactState::kCorrupt);
  EXPECT_THROW(load_verified(path_), ArtifactCorrupt);
  EXPECT_FALSE(fsys::exists(path_));  // moved aside, not acted on
  EXPECT_TRUE(fsys::exists(path_ + ".corrupt"));
}

TEST_F(AtomicIoTest, TruncatedFileFailsVerification) {
  {
    AtomicWriter writer(path_);
    for (int i = 0; i < 100; ++i) writer.write_line("row," + std::to_string(i));
    writer.commit();
  }
  const std::string raw = slurp(path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << raw.substr(0, raw.size() / 2);  // torn mid-file
  }
  // Torn halfway: the footer is gone too, so it parses as legacy — but a
  // tear that keeps the footer (drops payload) must be caught by `bytes=`.
  {
    AtomicWriter writer(path_);
    writer.write_line("abcdefgh");
    writer.write_line("ijklmnop");
    writer.commit();
  }
  const std::string full = slurp(path_);
  const std::size_t footer_at = full.rfind(kFooterPrefix);
  const std::string torn =
      full.substr(0, 9) + full.substr(footer_at);  // one payload line missing
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << torn;
  }
  EXPECT_EQ(read_artifact(path_).state, ArtifactState::kCorrupt);
}

TEST_F(AtomicIoTest, QuarantinePicksFreeSuffix) {
  const auto write_corrupt = [&] {
    AtomicWriter writer(path_);
    writer.write_line("x");
    writer.commit();
    std::string raw = slurp(path_);
    raw[0] ^= 0x01;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << raw;
  };
  write_corrupt();
  EXPECT_THROW(load_verified(path_), ArtifactCorrupt);
  write_corrupt();
  EXPECT_THROW(load_verified(path_), ArtifactCorrupt);
  EXPECT_TRUE(fsys::exists(path_ + ".corrupt"));
  EXPECT_TRUE(fsys::exists(path_ + ".corrupt.1"));
}

TEST_F(AtomicIoTest, GzArtifactCarriesFooterInsideStream) {
  const std::string gz = dir_ + "/artifact.csv.gz";
  const std::string tmp = gz + ".tmp";
  Crc32 crc;
  std::uint64_t bytes = 0;
  {
    GzWriter out(tmp);
    const std::string line = "a,b\n";
    crc.update(line);
    bytes += line.size();
    out.write_line("a,b");
    out.write_line(make_footer(crc.value(), bytes));
    out.close();
  }
  commit_tmp(tmp, gz, false);
  const Artifact artifact = read_artifact(gz);
  EXPECT_EQ(artifact.state, ArtifactState::kVerified);
  EXPECT_EQ(artifact.content, "a,b\n");
}

TEST_F(AtomicIoTest, FooterParsesItsOwnOutput) {
  Crc32 crc;
  crc.update("hello");
  const std::string footer = make_footer(crc.value(), 5);
  std::uint32_t parsed_crc = 0;
  std::uint64_t parsed_bytes = 0;
  ASSERT_TRUE(parse_footer(footer, parsed_crc, parsed_bytes));
  EXPECT_EQ(parsed_crc, crc.value());
  EXPECT_EQ(parsed_bytes, 5u);
  EXPECT_FALSE(parse_footer("#ADRCRC vX nonsense", parsed_crc, parsed_bytes));
  EXPECT_FALSE(parse_footer("1,2,3", parsed_crc, parsed_bytes));
}

// ---- fault injection through the writer ------------------------------------

TEST_F(AtomicIoTest, InjectedOpenFailureThrows) {
  FaultInjector::global().configure("io.atomic.open:fail");
  EXPECT_THROW(AtomicWriter writer(path_), std::runtime_error);
  EXPECT_FALSE(fsys::exists(path_ + ".tmp"));
}

TEST_F(AtomicIoTest, InjectedEnospcFailsCommitAndPreservesTarget) {
  {
    AtomicWriter writer(path_);
    writer.write_line("old,intact");
    writer.commit();
  }
  FaultInjector::global().configure("io.atomic.write:enospc@6");
  {
    EXPECT_THROW(
        [&] {
          AtomicWriter writer(path_);
          writer.write_line("new,version,that,will,not,fit");
          writer.commit();
        }(),
        std::runtime_error);
  }
  FaultInjector::global().clear();
  EXPECT_EQ(load_verified(path_), "old,intact\n");  // target untouched
}

TEST_F(AtomicIoTest, InjectedCrashLeavesTmpBehind) {
  FaultInjector::global().configure("io.atomic.pre_rename:crash");
  try {
    AtomicWriter writer(path_);
    writer.write_line("half,done");
    writer.commit();
    FAIL() << "expected CrashInjected";
  } catch (const CrashInjected&) {
  }
  // A real crash leaves the temp file; the writer must not tidy it away.
  EXPECT_TRUE(fsys::exists(path_ + ".tmp"));
  EXPECT_FALSE(fsys::exists(path_));
}

TEST_F(AtomicIoTest, PostRenameCrashStillCommits) {
  FaultInjector::global().configure("io.atomic.post_rename:crash");
  try {
    AtomicWriter writer(path_);
    writer.write_line("made,it");
    writer.commit();
    FAIL() << "expected CrashInjected";
  } catch (const CrashInjected&) {
  }
  FaultInjector::global().clear();
  EXPECT_EQ(load_verified(path_), "made,it\n");  // rename happened first
}

// ---- the buffered payload stream -------------------------------------------

/// A payload spanning more than three put-area chunks, with a recognisable
/// byte at every offset.
std::string multi_chunk_payload() {
  std::string payload;
  payload.reserve(3 * kIoChunkBytes + 1000);
  for (std::size_t i = 0; payload.size() < 3 * kIoChunkBytes + 1000; ++i) {
    payload += "row," + std::to_string(i) + "\n";
  }
  return payload;
}

TEST_F(AtomicIoTest, WriteFaultsKeepExactOffsetsAcrossChunkBoundaries) {
  const std::string payload = multi_chunk_payload();
  {
    AtomicWriter writer(path_);
    writer.write_line("old,intact");
    writer.commit();
  }
  const std::uint64_t boundary = 2 * kIoChunkBytes;
  for (const char* action : {"short", "enospc"}) {
    for (const std::uint64_t n :
         {boundary - 1, boundary, boundary + 1, std::uint64_t{1}}) {
      const std::string spec = std::string("io.atomic.write:") + action +
                               "@" + std::to_string(n);
      SCOPED_TRACE(spec);
      FaultInjector::global().configure(spec);
      {
        AtomicWriter writer(path_);
        // Many small writes, as a CSV writer makes them.
        for (std::size_t off = 0; off < payload.size(); off += 1000) {
          writer.write(payload.substr(off, 1000));
        }
        EXPECT_THROW(writer.commit(), std::runtime_error);
        // Exactly N payload bytes reached the temp file before the fault.
        EXPECT_EQ(writer.payload_bytes(), n);
      }
      EXPECT_GE(FaultInjector::global().fired_count(), 1u);
      FaultInjector::global().clear();
      EXPECT_FALSE(fsys::exists(path_ + ".tmp"));
      EXPECT_EQ(load_verified(path_), "old,intact\n");  // target untouched
    }
  }
}

TEST_F(AtomicIoTest, PayloadCountersIncludeBufferedBytes) {
  const std::string payload = multi_chunk_payload();
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  {
    AtomicWriter writer(path_);
    writer.stream() << payload;
    writer.write_line("tail");  // leaves a partly filled put area
    bytes = writer.payload_bytes();
    crc = writer.payload_crc();
    writer.commit();
  }
  const std::string raw = slurp(path_);
  const std::size_t footer_at = raw.rfind(kFooterPrefix);
  ASSERT_NE(footer_at, std::string::npos);
  std::uint32_t footer_crc = 0;
  std::uint64_t footer_bytes = 0;
  ASSERT_TRUE(parse_footer(raw.substr(footer_at, raw.size() - footer_at - 1),
                           footer_crc, footer_bytes));
  EXPECT_EQ(bytes, payload.size() + 5);
  EXPECT_EQ(bytes, footer_bytes);
  EXPECT_EQ(crc, footer_crc);
  Crc32 expect;
  expect.update(payload + "tail\n");
  EXPECT_EQ(crc, expect.value());
}

TEST_F(AtomicIoTest, PreCommitCrashLeavesDrainedPayloadWithoutFooter) {
  const std::string payload = multi_chunk_payload();
  FaultInjector::global().configure("io.atomic.pre_commit:crash");
  try {
    AtomicWriter writer(path_);
    writer.write(payload);
    writer.commit();
    FAIL() << "expected CrashInjected";
  } catch (const CrashInjected&) {
  }
  // commit() drained everything before its crash point: the torn temp holds
  // the whole payload and no footer.
  EXPECT_EQ(slurp(path_ + ".tmp"), payload);
  EXPECT_FALSE(fsys::exists(path_));
}

// ---- the streaming verifier ------------------------------------------------

TEST_F(AtomicIoTest, DigestMatchesReadAcrossChunks) {
  const std::string payload = multi_chunk_payload();
  {
    AtomicWriter writer(path_);
    writer.write(payload);
    writer.commit();
  }
  const Artifact read = read_artifact(path_);
  const Artifact digest = digest_artifact(path_);
  EXPECT_EQ(read.state, ArtifactState::kVerified);
  EXPECT_EQ(read.content, payload);
  EXPECT_EQ(digest.state, ArtifactState::kVerified);
  EXPECT_TRUE(digest.content.empty());
  Crc32 crc;
  crc.update(payload);
  EXPECT_EQ(read.crc32, crc.value());
  EXPECT_EQ(digest.crc32, crc.value());
  EXPECT_EQ(digest.bytes, payload.size());

  // Flip one byte in the last chunk: one CRC pass still catches it.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(payload.size() - 3));
    f.put('X');
  }
  const Artifact flipped = digest_artifact(path_);
  EXPECT_EQ(flipped.state, ArtifactState::kCorrupt);
  EXPECT_NE(flipped.error.find("crc32"), std::string::npos);
  EXPECT_EQ(read_artifact(path_).error, flipped.error);
  EXPECT_TRUE(read_artifact(path_).content.empty());
}

TEST_F(AtomicIoTest, LegacyFileWithLongLastLineDigestsWhole) {
  // No footer, and a last line longer than one read chunk: the tail scan
  // walks back across chunk reads and classifies the file as legacy.
  std::string content = "header\n" + std::string(kIoChunkBytes + 17, 'x');
  content += "\n\n";
  {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }
  const Artifact digest = digest_artifact(path_);
  EXPECT_EQ(digest.state, ArtifactState::kLegacy);
  EXPECT_EQ(digest.bytes, content.size());
  Crc32 crc;
  crc.update(content);
  EXPECT_EQ(digest.crc32, crc.value());
  EXPECT_EQ(read_artifact(path_).content, content);
  EXPECT_EQ(digest_artifact(path_, {.require_footer = true}).state,
            ArtifactState::kCorrupt);
}

TEST_F(AtomicIoTest, FooterFollowedByBlankLinesStillVerifies) {
  {
    AtomicWriter writer(path_);
    writer.write_line("a,b");
    writer.commit();
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "\n\n";
  }
  EXPECT_EQ(read_artifact(path_).state, ArtifactState::kVerified);
  EXPECT_EQ(read_artifact(path_).content, "a,b\n");
  EXPECT_EQ(digest_artifact(path_).bytes, 4u);
}

TEST_F(AtomicIoTest, GzDigestMatchesRead) {
  const std::string gz = dir_ + "/snap.csv.gz";
  const std::string payload =
      "path,owner\n#ADRCRC looks like a footer but is not last\n\n/a,1\n";
  {
    GzWriter out(gz);
    out.write_line("path,owner");
    out.write_line("#ADRCRC looks like a footer but is not last");
    out.write_line("");
    out.write_line("/a,1");
    Crc32 crc;
    crc.update(payload);
    out.write_line(make_footer(crc.value(), payload.size()));
    out.write_line("");
    out.close();
  }
  const Artifact read = read_artifact(gz);
  ASSERT_EQ(read.state, ArtifactState::kVerified) << read.error;
  EXPECT_EQ(read.content, payload);
  const Artifact digest = digest_artifact(gz);
  EXPECT_EQ(digest.state, ArtifactState::kVerified);
  EXPECT_EQ(digest.bytes, read.content.size());
  EXPECT_EQ(digest.crc32, read.crc32);
}

}  // namespace
}  // namespace adr::util::io
