#include "trace/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/csv.hpp"
#include "util/gzfile.hpp"
#include "util/io.hpp"

namespace adr::trace {

namespace {

const std::vector<std::string> kHeader = {"path", "owner", "stripes", "size",
                                          "atime"};

std::vector<std::string> entry_row(const SnapshotEntry& e) {
  return {e.path, std::to_string(e.owner), std::to_string(e.stripe_count),
          std::to_string(e.size_bytes), std::to_string(e.atime)};
}

SnapshotEntry parse_row(const std::vector<std::string>& row,
                        const util::RowContext& ctx) {
  if (row.size() != 5) {
    throw util::ParseError(ctx.describe("row") + ": expected 5 columns, got " +
                           std::to_string(row.size()));
  }
  SnapshotEntry e;
  e.path = row[0];
  e.owner = static_cast<UserId>(util::parse_u32(row[1], ctx, "owner"));
  e.stripe_count = util::parse_i32(row[2], ctx, "stripes");
  e.size_bytes = util::parse_u64(row[3], ctx, "size");
  e.atime = util::parse_i64(row[4], ctx, "atime");
  return e;
}

}  // namespace

void Snapshot::add(SnapshotEntry entry) { entries_.push_back(std::move(entry)); }

std::uint64_t Snapshot::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& e : entries_) sum += e.size_bytes;
  return sum;
}

void Snapshot::save_csv(const std::string& path) const {
  if (util::has_gz_suffix(path)) {
    // Gzip artifacts cannot stream through AtomicWriter (the CRC must cover
    // the *uncompressed* payload, and the footer lives inside the gzip
    // stream), so the atomic protocol is inlined: write `<path>.tmp`,
    // accumulate the payload CRC at the call site, append the footer as the
    // final compressed line, then rename via io::commit_tmp.
    const std::string tmp = path + ".tmp";
    util::io::Crc32 crc;
    std::uint64_t bytes = 0;
    {
      util::GzWriter out(tmp);
      const auto put = [&](const std::string& line) {
        crc.update(line);
        crc.update("\n", 1);
        bytes += line.size() + 1;
        out.write_line(line);
      };
      put(util::csv_join(kHeader));
      for (const auto& e : entries_) put(util::csv_join(entry_row(e)));
      out.write_line(util::io::make_footer(crc.value(), bytes));
      out.close();
    }
    util::io::commit_tmp(tmp, path, util::io::default_fsync());
    return;
  }
  SnapshotCsvWriter writer(path);
  for (const auto& e : entries_) {
    writer.add(e.path, e.owner, e.stripe_count, e.size_bytes, e.atime);
  }
  writer.commit();
}

SnapshotCsvWriter::SnapshotCsvWriter(const std::string& path)
    : writer_(path, {.fsync = util::io::default_fsync()}),
      csv_(writer_.stream()) {
  csv_.write_row(kHeader);
}

void SnapshotCsvWriter::add(std::string_view path, UserId owner,
                            std::int32_t stripe_count,
                            std::uint64_t size_bytes, util::TimePoint atime) {
  csv_.row(path, owner, stripe_count, size_bytes, atime);
}

Snapshot Snapshot::load_csv(const std::string& path,
                            const util::ParseOptions& opts) {
  // load_verified is gzip-transparent, so plain and .gz snapshots share one
  // verified-read path.
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("Snapshot: empty file " + path);
  Snapshot snap;
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  std::unordered_set<std::string> seen_paths;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      SnapshotEntry e = parse_row(*row, ctx);
      if (permissive && !seen_paths.insert(e.path).second) {
        quarantine.add(reader.line(), util::RowQuarantine::kDuplicate,
                       "path '" + e.path + "' already seen", reader.raw());
        continue;
      }
      snap.add(std::move(e));
      if (opts.stats) ++opts.stats->rows_ok;
    } catch (const util::ParseError& e) {
      if (!permissive) throw;
      quarantine.add(reader.line(), util::RowQuarantine::kMalformed, e.what(),
                     reader.raw());
    }
  }
  quarantine.finish(opts.stats);
  return snap;
}

std::vector<std::string> save_sharded_snapshot(const Snapshot& snapshot,
                                               const std::string& dir,
                                               std::size_t shards,
                                               bool gzip) {
  if (shards == 0) throw std::invalid_argument("save_sharded_snapshot: 0 shards");
  std::filesystem::create_directories(dir);
  std::vector<std::string> files;
  const std::size_t n = snapshot.size();
  for (std::size_t s = 0; s < shards; ++s) {
    char name[48];
    std::snprintf(name, sizeof(name), "/snapshot_%03zu.csv%s", s,
                  gzip ? ".gz" : "");
    const std::string path = dir + name;
    // Contiguous slice per shard (files stay grouped by user directory).
    const std::size_t lo = n * s / shards;
    const std::size_t hi = n * (s + 1) / shards;
    Snapshot shard;
    shard.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      shard.add(snapshot.entries()[i]);
    }
    shard.save_csv(path);
    files.push_back(path);
  }
  return files;
}

std::vector<std::string> sharded_snapshot_files(const std::string& dir) {
  std::vector<std::string> files;
  if (!std::filesystem::is_directory(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot_", 0) == 0 &&
        name.find(".csv") != std::string::npos &&
        name.find(".tmp") == std::string::npos &&
        name.find(".corrupt") == std::string::npos) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Snapshot load_sharded_snapshot(const std::string& dir) {
  Snapshot merged;
  for (const auto& file : sharded_snapshot_files(dir)) {
    const Snapshot shard = Snapshot::load_csv(file);
    merged.reserve(merged.size() + shard.size());
    for (const auto& e : shard.entries()) merged.add(e);
  }
  return merged;
}

}  // namespace adr::trace
