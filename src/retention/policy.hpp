#pragma once
// Shared retention-policy vocabulary.
//
// A policy run purges files from a Vfs at a trigger time, optionally until a
// purge target is met. Targets follow the paper's convention: the
// administrator states the space utilization the scratch space should reach
// (e.g. 50% of capacity); the byte deficit between current usage and that
// target is what a run must free.

#include <cstdint>

#include "fs/vfs.hpp"
#include "retention/report.hpp"

namespace adr::retention {

/// How ActiveDR finds expired files. FLT always reads the purge index.
enum class ScanMode {
  /// Range queries against the Vfs's atime-ordered purge index; ActiveDR's
  /// retrospective passes become cursor advances over candidates
  /// materialized once per group (scan-once). The production path.
  kIndexed,
  /// Trie walk per pass: the reference the indexed scan is checked against
  /// (tests, bench_fig12, the benchmark's reference digests). It sees only
  /// resident files, so it refuses to run on a Vfs with evicted users.
  kWalk,
};

/// Bytes a purge run must free so that used space drops to
/// `target_utilization` x capacity. Zero when already below target.
std::uint64_t purge_target_bytes(const fs::Vfs& vfs, double target_utilization);

/// Bytes a purge run must free to retain the fraction `retain` of current
/// usage — the `purge --target` and daemon `retain =` arithmetic. Zero when
/// `retain` <= 0 (no byte target).
std::uint64_t retain_target_bytes(const fs::Vfs& vfs, double retain);

/// Count users holding >= 1 file per report group (the "Users" denominator
/// of Fig. 11), written into `report.by_group[*].users_total`.
void fill_users_total(PurgeReport& report, const fs::Vfs& vfs,
                      const GroupOf& group_of);

/// Populate retained bytes/files per group from post-purge Vfs accounting.
void fill_retained_stats(PurgeReport& report, const fs::Vfs& vfs,
                         const GroupOf& group_of);

}  // namespace adr::retention
