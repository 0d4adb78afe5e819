#pragma once
// Crash-consistent artifact IO (DESIGN.md §10).
//
// Every durable artifact in the system (rank stores, snapshots, trace
// bundles) is written through AtomicWriter: payload goes to `<path>.tmp`,
// a versioned CRC32 footer is appended, the temp is optionally fsynced, and
// only then is it renamed over the target. A crash at any instant therefore
// leaves the target either fully old or fully new — never torn — and bit rot
// is caught by the footer checksum on the next load.
//
// Loads go through read_artifact()/load_verified(): the footer (when
// present) is stripped and verified; a mismatch quarantines the file
// (`.corrupt` rename + obs counter) so the caller can degrade gracefully
// instead of acting on silently wrong bytes. Files without a footer are
// accepted as legacy input (hand-written fixtures, pre-§10 artifacts) —
// callers that refuse unverified input set ReadOptions::require_footer.
//
// Footer format, always the last line of the artifact (compressed artifacts
// carry it inside the gzip stream):
//
//   #ADRCRC v1 crc32=<8 hex digits> bytes=<payload length>
//
// The checksum covers every payload byte above the footer line.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace adr::util::io {

/// Incremental CRC-32 (zlib polynomial).
class Crc32 {
 public:
  void update(const char* data, std::size_t n);
  void update(const std::string& s) { update(s.data(), s.size()); }
  std::uint32_t value() const { return crc_; }
  void reset() { crc_ = 0; }

 private:
  std::uint32_t crc_ = 0;
};

inline constexpr char kFooterPrefix[] = "#ADRCRC";
/// Chunk size of artifact IO: AtomicWriter's put area and the verifier's
/// read size (DESIGN.md §10.1, §10.5).
inline constexpr std::size_t kIoChunkBytes = 64 * 1024;
inline constexpr int kFooterVersion = 1;

std::string make_footer(std::uint32_t crc, std::uint64_t payload_bytes);
/// Parses a footer line; false if `line` is not a well-formed footer.
bool parse_footer(const std::string& line, std::uint32_t& crc,
                  std::uint64_t& payload_bytes);

/// Thrown by load_verified() after the offending file has been quarantined.
class ArtifactCorrupt : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  bool fsync = false;   // fsync temp (and its directory) before/after rename
  bool footer = true;   // append the CRC footer on commit
};

/// Process-wide default for Options::fsync (the CLI's --fsync flag).
void set_default_fsync(bool on);
bool default_fsync();

/// All-or-nothing file writer. Stream payload through stream() (or
/// write()/write_line()), then commit(); the target file is replaced only
/// inside commit(), via rename. If the writer is destroyed uncommitted the
/// temp file is removed — unless a fault-injected crash is in flight, in
/// which case it is left behind exactly as a real crash would leave it
/// (holding the payload drained so far: the stream buffers kIoChunkBytes,
/// and CRC, length and io.atomic.write faults apply per drained chunk at
/// exact byte offsets).
///
/// Fault points: io.atomic.open, io.atomic.write, io.atomic.pre_commit,
/// io.atomic.pre_rename, io.atomic.post_rename.
class AtomicWriter {
 public:
  explicit AtomicWriter(std::string path, Options opts = {});
  ~AtomicWriter();
  AtomicWriter(const AtomicWriter&) = delete;
  AtomicWriter& operator=(const AtomicWriter&) = delete;

  /// CRC-tracked payload stream (fault-injection aware).
  std::ostream& stream();
  void write(const std::string& text);
  void write_line(const std::string& line);  // appends '\n'

  /// Append the footer, flush (+fsync), and rename over the target. Throws
  /// std::runtime_error on any IO failure (the target is left untouched).
  void commit();
  /// Drop the temp file without touching the target.
  void abort();

  const std::string& path() const { return path_; }
  const std::string& tmp_path() const { return tmp_path_; }
  /// Payload length and CRC so far, buffered bytes included.
  std::uint64_t payload_bytes() const;
  std::uint32_t payload_crc() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string path_;
  std::string tmp_path_;
};

/// Durably move `tmp` over `path` (shared by AtomicWriter and the gzip
/// snapshot writer): optional fsync of tmp, crash points around rename,
/// optional fsync of the parent directory.
void commit_tmp(const std::string& tmp, const std::string& path, bool fsync);

enum class ArtifactState {
  kVerified,  // footer present, checksum matches
  kLegacy,    // no footer (accepted for migration / hand-written input)
  kCorrupt,   // footer present but torn or checksum mismatch
};

struct Artifact {
  ArtifactState state = ArtifactState::kLegacy;
  std::string content;     // payload with the footer line stripped
  std::string error;       // set when state == kCorrupt
  std::uint32_t crc32 = 0; // CRC of the payload (gzip: decompressed)
  std::uint64_t bytes = 0; // payload length
};

struct ReadOptions {
  bool require_footer = false;  // treat kLegacy as kCorrupt
};

/// Read a whole artifact (gzip-transparent by ".gz" suffix) and verify its
/// footer if present: the footer is found at the tail, then one CRC pass
/// reads the payload. Throws std::runtime_error only when the file cannot
/// be opened; corruption is reported in the return value.
Artifact read_artifact(const std::string& path, ReadOptions opts = {});

/// read_artifact without keeping the payload (content stays empty): the
/// same verdict, CRC and length from one streamed pass in kIoChunkBytes
/// reads, so memory stays bounded whatever the file size.
Artifact digest_artifact(const std::string& path, ReadOptions opts = {});

/// Rename `path` to the first free `<path>.corrupt[.N]`, log a warning, and
/// bump the io.quarantined counter. Returns the quarantine path ("" if the
/// rename itself failed).
std::string quarantine(const std::string& path, const std::string& reason);

/// read_artifact + quarantine-on-corrupt: returns the verified payload or
/// throws ArtifactCorrupt (after quarantining) / std::runtime_error (missing
/// file).
std::string load_verified(const std::string& path, ReadOptions opts = {});

}  // namespace adr::util::io
