#include "util/bundle.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::util::io {

namespace {

namespace fsys = std::filesystem;

std::string hex8(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Strict field parse: the whole field must be one unsigned number in
/// `base` (no sign, no whitespace, no trailing junk, no overflow).
template <typename T>
bool parse_field(const std::string& field, T& out, int base = 10) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out, base);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::vector<BundleMember> commit_bundle(
    const std::string& dir, const std::vector<std::string>& member_names) {
  const std::string manifest_path =
      dir + "/" + kBundleManifestName;
  // Drop any stale manifest *before* touching members: from here until the
  // final commit the bundle is visibly unsealed, so a crash can never leave
  // an old manifest vouching for new members.
  std::error_code ec;
  fsys::remove(manifest_path, ec);

  std::vector<BundleMember> members;
  members.reserve(member_names.size());
  for (const auto& name : member_names) {
    FaultInjector::global().crash_point("bundle.member");
    // Re-read from disk: the read-back, not the writer's running CRC, is
    // what vouches for the member.
    const Artifact artifact = digest_artifact(dir + "/" + name);
    if (artifact.state == ArtifactState::kCorrupt) {
      throw std::runtime_error("commit_bundle: member " + name +
                               " failed verification: " + artifact.error);
    }
    members.push_back({name, artifact.crc32, artifact.bytes});
  }

  FaultInjector::global().crash_point("bundle.pre_manifest");
  AtomicWriter writer(manifest_path, {.fsync = default_fsync()});
  CsvWriter w(writer.stream());
  w.row("member", "crc32", "bytes");
  for (const auto& m : members) w.row(m.name, hex8(m.crc32), m.bytes);
  writer.commit();
  obs::MetricsRegistry::global().counter("bundle.commits").add();
  return members;
}

BundleCheck verify_bundle(const std::string& dir) {
  BundleCheck check;
  const std::string manifest_path =
      dir + "/" + kBundleManifestName;
  if (!fsys::exists(manifest_path)) {
    check.state = BundleState::kUnsealed;
    return check;
  }

  const auto invalid = [&check](std::string error) {
    check.state = BundleState::kInvalid;
    check.error = std::move(error);
    obs::MetricsRegistry::global().counter("bundle.invalid").add();
    return check;
  };

  Artifact manifest;
  try {
    manifest = read_artifact(manifest_path, {.require_footer = true});
  } catch (const std::exception& e) {
    return invalid(std::string("manifest unreadable: ") + e.what());
  }
  if (manifest.state != ArtifactState::kVerified) {
    return invalid("manifest failed verification: " + manifest.error);
  }

  std::istringstream in(manifest.content);
  CsvReader reader(in);
  if (!reader.read_header() || reader.column("member") == CsvReader::npos ||
      reader.column("crc32") == CsvReader::npos ||
      reader.column("bytes") == CsvReader::npos) {
    return invalid("manifest has no member/crc32/bytes header");
  }
  while (auto row = reader.next()) {
    if (row->size() != 3) {
      return invalid("manifest row " + std::to_string(reader.line()) +
                     " malformed");
    }
    BundleMember m;
    m.name = (*row)[0];
    if (!parse_field((*row)[1], m.crc32, 16) ||
        !parse_field((*row)[2], m.bytes)) {
      return invalid("manifest row " + std::to_string(reader.line()) +
                     " malformed");
    }
    check.members.push_back(std::move(m));
  }

  for (const auto& m : check.members) {
    const std::string path = dir + "/" + m.name;
    if (!fsys::exists(path)) {
      return invalid("member " + m.name + " missing");
    }
    Artifact artifact;
    try {
      artifact = digest_artifact(path);
    } catch (const std::exception& e) {
      return invalid("member " + m.name + " unreadable: " + e.what());
    }
    if (artifact.state == ArtifactState::kCorrupt) {
      return invalid("member " + m.name +
                     " failed verification: " + artifact.error);
    }
    if (artifact.bytes != m.bytes) {
      return invalid("member " + m.name + " is " +
                     std::to_string(artifact.bytes) +
                     " payload bytes, manifest says " +
                     std::to_string(m.bytes));
    }
    if (artifact.crc32 != m.crc32) {
      return invalid("member " + m.name + " payload crc " +
                     hex8(artifact.crc32) + " != manifest " + hex8(m.crc32));
    }
  }
  check.state = BundleState::kValid;
  return check;
}

}  // namespace adr::util::io
