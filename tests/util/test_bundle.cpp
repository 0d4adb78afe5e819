#include "util/bundle.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/fault.hpp"
#include "util/io.hpp"

namespace adr::util::io {
namespace {

namespace fsys = std::filesystem;

class BundleTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/adr_bundle_test_" +
                     std::to_string(::getpid());
  void SetUp() override {
    FaultInjector::global().clear();
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::global().clear();
    fsys::remove_all(dir_);
  }

  void write_member(const std::string& name, const std::string& content) {
    AtomicWriter writer(dir_ + "/" + name);
    writer.write(content);
    writer.commit();
  }
};

TEST_F(BundleTest, CommitThenVerifyIsValid) {
  write_member("a.csv", "x,y\n1,2\n");
  write_member("b.csv", "hello\n");
  commit_bundle(dir_, {"a.csv", "b.csv"});

  const BundleCheck check = verify_bundle(dir_);
  ASSERT_TRUE(check.valid()) << check.error;
  ASSERT_EQ(check.members.size(), 2u);
  EXPECT_EQ(check.members[0].name, "a.csv");
  EXPECT_EQ(check.members[0].bytes, 8u);  // payload bytes, footer stripped
  EXPECT_EQ(check.members[1].name, "b.csv");
}

TEST_F(BundleTest, NoManifestIsUnsealed) {
  write_member("a.csv", "x\n");
  const BundleCheck check = verify_bundle(dir_);
  EXPECT_EQ(check.state, BundleState::kUnsealed);
  EXPECT_TRUE(check.members.empty());
}

TEST_F(BundleTest, MissingMemberFailsCommit) {
  write_member("a.csv", "x\n");
  EXPECT_THROW(commit_bundle(dir_, {"a.csv", "ghost.csv"}),
               std::runtime_error);
  // The failed commit already dropped any manifest: visibly unsealed.
  EXPECT_EQ(verify_bundle(dir_).state, BundleState::kUnsealed);
}

TEST_F(BundleTest, RewrittenMemberInvalidatesBundle) {
  write_member("a.csv", "x,y\n1,2\n");
  commit_bundle(dir_, {"a.csv"});
  ASSERT_TRUE(verify_bundle(dir_).valid());

  write_member("a.csv", "x,y\n9,9\n");  // verifies alone, mismatches manifest
  const BundleCheck check = verify_bundle(dir_);
  EXPECT_EQ(check.state, BundleState::kInvalid);
  EXPECT_NE(check.error.find("a.csv"), std::string::npos);
}

TEST_F(BundleTest, DeletedMemberInvalidatesBundle) {
  write_member("a.csv", "x\n");
  write_member("b.csv", "y\n");
  commit_bundle(dir_, {"a.csv", "b.csv"});
  fsys::remove(dir_ + "/b.csv");
  const BundleCheck check = verify_bundle(dir_);
  EXPECT_EQ(check.state, BundleState::kInvalid);
  EXPECT_NE(check.error.find("b.csv"), std::string::npos);
}

TEST_F(BundleTest, TruncatedManifestInvalidatesBundle) {
  write_member("a.csv", "x\n");
  commit_bundle(dir_, {"a.csv"});
  // Tear the manifest's tail (footer gone -> fails require_footer).
  const std::string manifest = dir_ + "/" + kBundleManifestName;
  fsys::resize_file(manifest, fsys::file_size(manifest) / 2);
  EXPECT_EQ(verify_bundle(dir_).state, BundleState::kInvalid);
}

TEST_F(BundleTest, TrailingJunkInManifestFieldsIsInvalid) {
  write_member("a.csv", "abcdef\n");  // 7 payload bytes
  const std::vector<BundleMember> members = commit_bundle(dir_, {"a.csv"});
  ASSERT_EQ(members.size(), 1u);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", members[0].crc32);
  const auto reseal = [&](const std::string& row) {
    AtomicWriter writer(dir_ + "/" + kBundleManifestName);
    writer.write("member,crc32,bytes\n" + row + "\n");
    writer.commit();
  };
  reseal(std::string("a.csv,") + crc + ",7");  // control: the exact fields
  ASSERT_TRUE(verify_bundle(dir_).valid());

  // Re-footered manifests whose fields only *start* with the right numbers:
  // a lenient parse would read crc/bytes from the prefixes and say kValid.
  const std::string rows[] = {
      std::string("a.csv,") + crc + "zz,7.9junk",
      std::string("a.csv,") + crc + "zz,7",
      std::string("a.csv,") + crc + ",7.9junk",
      std::string("a.csv,") + crc + ", 7",
      std::string("a.csv,") + crc + ",",
  };
  for (const std::string& row : rows) {
    SCOPED_TRACE(row);
    reseal(row);
    const BundleCheck check = verify_bundle(dir_);
    EXPECT_EQ(check.state, BundleState::kInvalid);
    EXPECT_NE(check.error.find("malformed"), std::string::npos) << check.error;
  }
}

TEST_F(BundleTest, ResealAfterMemberChangeRestoresValidity) {
  write_member("a.csv", "v1\n");
  commit_bundle(dir_, {"a.csv"});
  write_member("a.csv", "v2\n");
  EXPECT_EQ(verify_bundle(dir_).state, BundleState::kInvalid);
  commit_bundle(dir_, {"a.csv"});
  EXPECT_TRUE(verify_bundle(dir_).valid());
}

// Old-or-new, never half: crash the commit at every registered point and
// assert the bundle is either still sealed at the OLD contents or visibly
// not-valid — a reader can never be handed a silent mix.
TEST_F(BundleTest, CrashMidCommitLeavesOldOrUnsealed) {
  const char* specs[] = {
      "bundle.member:crash@1",   "bundle.member:crash@2",
      "bundle.pre_manifest:crash@1", "io.atomic.pre_commit:crash@1",
      "io.atomic.pre_rename:crash@1",
  };
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    SetUp();  // fresh dir per spec
    write_member("a.csv", "old-a\n");
    write_member("b.csv", "old-b\n");
    commit_bundle(dir_, {"a.csv", "b.csv"});
    ASSERT_TRUE(verify_bundle(dir_).valid());

    // "New generation": rewrite members, re-seal — crash somewhere inside.
    write_member("a.csv", "new-a\n");
    write_member("b.csv", "new-b\n");
    FaultInjector::global().configure(spec);
    EXPECT_THROW(commit_bundle(dir_, {"a.csv", "b.csv"}), CrashInjected);
    EXPECT_GE(FaultInjector::global().fired_count(), 1u);
    FaultInjector::global().clear();

    // The old manifest was dropped before any member was hashed, so the
    // crash can only leave kUnsealed (or kInvalid if a torn manifest temp
    // got renamed — not possible under the §10 protocol).
    const BundleCheck check = verify_bundle(dir_);
    EXPECT_NE(check.state, BundleState::kValid);

    // And recovery is one re-commit away.
    commit_bundle(dir_, {"a.csv", "b.csv"});
    EXPECT_TRUE(verify_bundle(dir_).valid());
  }
}

// A crash after the manifest rename is a *completed* commit.
TEST_F(BundleTest, CrashAfterRenameIsCommitted) {
  write_member("a.csv", "a\n");
  FaultInjector::global().configure("io.atomic.post_rename:crash@1");
  EXPECT_THROW(commit_bundle(dir_, {"a.csv"}), CrashInjected);
  FaultInjector::global().clear();
  EXPECT_TRUE(verify_bundle(dir_).valid());
}

}  // namespace
}  // namespace adr::util::io
