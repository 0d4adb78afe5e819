#pragma once
// Metadata snapshots: the weekly Lustre metadata dumps the paper replays.
// A snapshot is a flat list of SnapshotEntry persisted as CSV; the Vfs can
// import/export one (fs/vfs.hpp), which is how emulation runs are seeded.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/types.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::trace {

class Snapshot {
 public:
  void add(SnapshotEntry entry);
  void reserve(std::size_t n) { entries_.reserve(n); }

  const std::vector<SnapshotEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sum of all synthesized file sizes.
  std::uint64_t total_bytes() const;

  /// CSV persistence (header: path,owner,stripes,size,atime). Paths ending
  /// in ".gz" are written/read gzip-compressed, like the Spider snapshots.
  void save_csv(const std::string& path) const;
  static Snapshot load_csv(const std::string& path,
                           const util::ParseOptions& opts = {});

 private:
  std::vector<SnapshotEntry> entries_;
};

/// Streams a plain (non-gzip) snapshot CSV in the save_csv format, one entry
/// at a time, through an AtomicWriter — for callers that never materialize
/// a Snapshot (the checkpoint streams the Vfs straight into one).
class SnapshotCsvWriter {
 public:
  explicit SnapshotCsvWriter(const std::string& path);
  void add(std::string_view path, UserId owner, std::int32_t stripe_count,
           std::uint64_t size_bytes, util::TimePoint atime);
  void commit() { writer_.commit(); }

 private:
  util::io::AtomicWriter writer_;
  util::CsvWriter csv_;
};

/// Sharded snapshots: the paper's metadata dumps are a *series* of gzipped
/// text files, each scanned by one MPI rank (Fig. 12c/d). save_sharded
/// splits a snapshot into `shards` files named snapshot_NNN.csv[.gz] under
/// `dir`; load_sharded reassembles every such file.
std::vector<std::string> save_sharded_snapshot(const Snapshot& snapshot,
                                               const std::string& dir,
                                               std::size_t shards,
                                               bool gzip = true);
Snapshot load_sharded_snapshot(const std::string& dir);

/// The shard files under `dir`, in shard order (for per-shard scans).
std::vector<std::string> sharded_snapshot_files(const std::string& dir);

}  // namespace adr::trace
