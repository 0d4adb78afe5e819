#pragma once
// Whole-bundle atomic commit (DESIGN.md §10.5).
//
// The §10 AtomicWriter protocol makes every *single* artifact old-or-new,
// but multi-file bundles (a `synth` trace directory, a daemon checkpoint)
// can still be torn *as a set*: a crash between member writes leaves some
// members new and some old, each individually verifying. The bundle
// manifest closes that hole: after every member is durably in place, a
// MANIFEST file recording each member's payload CRC32 and byte count is
// committed last (itself through AtomicWriter). A bundle is *valid* only
// when the manifest verifies and every member's payload matches its
// manifest row — so a crash at any instant leaves either a bundle with no
// (or a mismatching) manifest, which consumers refuse or treat as legacy,
// or a fully consistent one. Never a silently half-written set.
//
// Manifest format (CSV, CRC-footered like any §10 artifact):
//
//   member,crc32,bytes
//   users.csv,1a2b3c4d,10423
//   ...
//
// CRCs cover each member's *payload* (its own §10 footer stripped; gzip
// members are hashed decompressed), so the manifest survives a member
// being rewritten byte-identically and catches any content change.
//
// Fault points: bundle.member (crash before verifying the Nth member),
// bundle.pre_manifest (members verified, manifest not yet written); the
// manifest write itself passes through every io.atomic.* point.

#include <cstdint>
#include <string>
#include <vector>

namespace adr::util::io {

inline constexpr char kBundleManifestName[] = "MANIFEST";

/// One manifest row.
struct BundleMember {
  std::string name;        // file name relative to the bundle directory
  std::uint32_t crc32 = 0; // CRC of the member's payload (footer-stripped)
  std::uint64_t bytes = 0; // payload byte count
};

/// Seal `dir` as a bundle over exactly `member_names`: any stale manifest
/// is removed first (a crash can then never pair an old manifest with new
/// members), each member is read back and its payload CRC recorded, and
/// the manifest is committed last. Throws std::runtime_error if a member
/// is missing or fails its own footer verification. Returns the manifest
/// rows as committed.
std::vector<BundleMember> commit_bundle(
    const std::string& dir, const std::vector<std::string>& member_names);

enum class BundleState {
  kValid,      ///< manifest verifies and every member matches it
  kUnsealed,   ///< no manifest (legacy / hand-assembled bundle)
  kInvalid,    ///< manifest present but torn, or a member missing/mismatched
};

struct BundleCheck {
  BundleState state = BundleState::kUnsealed;
  std::vector<BundleMember> members;  // manifest rows (empty when unsealed)
  std::string error;                  // first mismatch (kInvalid only)

  bool valid() const { return state == BundleState::kValid; }
};

/// Check `dir` against its manifest. Never throws on damage — an invalid
/// bundle is a *result* the caller degrades on (recover from the previous
/// checkpoint, refuse the trace directory), not an exception.
BundleCheck verify_bundle(const std::string& dir);

}  // namespace adr::util::io
