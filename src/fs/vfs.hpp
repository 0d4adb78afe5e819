#pragma once
// Virtual file system: the emulation substrate standing in for Spider II.
//
// A Vfs is a path-trie index plus full accounting: total bytes, per-user
// bytes/files, and a nominal capacity (purge targets are expressed as a
// fraction of it). The emulator replays application logs against it; the
// retention policies scan and purge it.
//
// Scale tier (DESIGN.md §15): per-user usage lives in a dense vector indexed
// by the (already dense) 32-bit UserId, and an optional byte-budgeted
// *residency layer* keeps the heavyweight trie bounded at 10⁷–10⁸ files.
// When the estimated resident trie footprint exceeds the budget, the coldest
// users' subtrees are evicted: their trie nodes are dropped and each file
// shrinks to a ~24 B spill record (the purge index keeps atime/size/owner and
// the interned path, so victim selection never faults). An access, create, or
// remove naming an evicted owner faults that user's subtree back from the
// index + spill records. Walk-mode scans (for_each*) see only resident files
// — policies must run in indexed scan mode when a budget is set.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fs/path_trie.hpp"
#include "fs/purge_index.hpp"
#include "trace/snapshot.hpp"

namespace adr::fs {

/// Per-user usage accounting.
struct UserUsage {
  std::uint64_t bytes = 0;
  std::uint64_t files = 0;
};

/// Map-shaped read-only view over the dense per-user usage table. Iteration
/// yields (UserId, UserUsage) for users currently holding files — the same
/// contract as the unordered_map this replaced — while the storage underneath
/// is a flat vector with O(1) lookup and zero hashing.
class UserUsageView {
 public:
  UserUsageView(const std::vector<UserUsage>& table, std::size_t non_empty)
      : table_(&table), non_empty_(non_empty) {}

  class const_iterator {
   public:
    const_iterator(const std::vector<UserUsage>* table, std::size_t pos)
        : table_(table), pos_(pos) {
      skip_empty();
    }
    std::pair<trace::UserId, UserUsage> operator*() const {
      return {static_cast<trace::UserId>(pos_), (*table_)[pos_]};
    }
    const_iterator& operator++() {
      ++pos_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void skip_empty() {
      while (pos_ < table_->size() && (*table_)[pos_].files == 0) ++pos_;
    }
    const std::vector<UserUsage>* table_;
    std::size_t pos_;
  };

  const_iterator begin() const { return {table_, 0}; }
  const_iterator end() const { return {table_, table_->size()}; }

  /// Users currently holding at least one file (O(1), maintained by the Vfs).
  std::size_t size() const { return non_empty_; }
  bool empty() const { return non_empty_ == 0; }

  /// 1 when `user` holds files, else 0 (unordered_map::count shape).
  std::size_t count(trace::UserId user) const {
    return user != trace::kInvalidUser &&
                   static_cast<std::size_t>(user) < table_->size() &&
                   (*table_)[user].files != 0
               ? 1
               : 0;
  }

 private:
  const std::vector<UserUsage>* table_;
  std::size_t non_empty_;
};

class Vfs {
 public:
  Vfs() = default;

  /// Create (or overwrite) a file. Accounting is updated for both the old
  /// and new metadata; overwriting routes the *displaced* version through
  /// the removal sink so the archive tier never silently loses it. Returns
  /// true if the file is new. Under a memory budget, the creating owner is
  /// faulted resident first (overwrites of one's own evicted files re-key
  /// correctly); overwriting *another* user's evicted file is outside the
  /// residency contract — see DESIGN.md §15.
  bool create(std::string_view path, const FileMeta& meta);

  /// Record an access at time `t`: bumps atime monotonically. Returns false
  /// (a *file miss*) if the path does not exist. `owner_hint`, when valid,
  /// lets the residency layer fault an evicted owner back before declaring
  /// a miss — call sites replaying app logs always know the acting user.
  bool access(std::string_view path, util::TimePoint t,
              trace::UserId owner_hint = trace::kInvalidUser);

  /// Remove a file; returns false if absent. The removal sink (if any)
  /// observes the file before it disappears. `owner_hint` as in access():
  /// purge policies know each victim's owner, so removing an evicted cold
  /// user's files faults the subtree back once and then drains it.
  bool remove(std::string_view path,
              trace::UserId owner_hint = trace::kInvalidUser);

  /// Observer invoked for every file that leaves the tier — removals and
  /// the displaced old version on an overwriting create(). This is how the
  /// emulator routes purged/displaced files into the archive tier.
  using RemovalSink = std::function<void(const std::string&, const FileMeta&)>;
  void set_removal_sink(RemovalSink sink) { removal_sink_ = std::move(sink); }

  /// Resident-view lookups: an evicted file stats as absent (const methods
  /// cannot fault). Use access/remove with an owner hint on hot paths.
  const FileMeta* stat(std::string_view path) const { return trie_.find(path); }
  bool exists(std::string_view path) const { return trie_.contains(path); }

  std::uint64_t total_bytes() const { return total_bytes_; }
  /// All files, resident or spilled.
  std::size_t file_count() const { return trie_.file_count() + spilled_files_; }

  /// Usage of one user (zeros if unknown).
  UserUsage usage(trace::UserId user) const;
  UserUsageView usage_by_user() const { return {usage_, users_with_files_}; }

  /// Nominal capacity. Defaults to the high-water total after the last
  /// import/create burst unless set explicitly.
  void set_capacity_bytes(std::uint64_t capacity) { capacity_bytes_ = capacity; }
  std::uint64_t capacity_bytes() const {
    return capacity_bytes_ ? capacity_bytes_ : total_bytes_;
  }

  // -- residency / memory budget --------------------------------------------

  /// Cap the estimated resident trie footprint; 0 (default) disables
  /// eviction. When a mutation pushes the estimate over the cap, the
  /// coldest users are evicted down to a low watermark (7/8 of the budget).
  void set_memory_budget_bytes(std::uint64_t budget);
  std::uint64_t memory_budget_bytes() const { return budget_bytes_; }

  /// True when `user`'s subtree is materialized in the trie (users with no
  /// files are trivially resident).
  bool user_resident(trace::UserId user) const;
  std::size_t evicted_user_count() const { return evicted_users_; }
  std::size_t spilled_file_count() const { return spilled_files_; }
  /// Estimated bytes of trie structure for resident files (path bytes plus
  /// a per-file node constant — see DESIGN.md §15 for the budget model).
  std::uint64_t resident_bytes_estimate() const { return resident_cost_; }
  /// Bytes held in spill records for evicted files.
  std::uint64_t spilled_bytes() const { return spilled_bytes_; }

  /// Force one user out / back in (tests and the scale bench's cold-start
  /// probes; normal operation goes through the budget).
  void evict_user(trace::UserId user);
  void fault_user(trace::UserId user);

  /// Visit all files under a path prefix (policy scan entry point).
  /// Resident view only: evicted files are not walked (indexed scan mode is
  /// the contract under a memory budget).
  void for_each_under(
      std::string_view prefix,
      const std::function<void(const std::string&, const FileMeta&)>& fn) const {
    trie_.for_each_under(prefix, fn);
  }
  void for_each(
      const std::function<void(const std::string&, const FileMeta&)>& fn) const {
    trie_.for_each(fn);
  }

  /// Underlying index (read-only), exposed for memory probes.
  const PathTrie& index() const { return trie_; }

  /// Atime-ordered purge index, maintained incrementally by every
  /// create/access/remove — the policies' fast scan path. Entries stay
  /// indexed while their owner is evicted (victim selection never faults).
  const PurgeIndex& purge_index() const { return purge_index_; }

  /// Opt-in consistency check: cross-verify the purge index against a full
  /// trie walk plus the spill records of evicted users (every file indexed
  /// with matching owner/atime/size/path, and nothing extra). Returns true
  /// when consistent; otherwise describes the first mismatch in *error (if
  /// non-null). O(files) — meant for tests, audits
  /// (sim::ExperimentConfig::audit_purge_index), and `purge --check-index`.
  bool verify_purge_index(std::string* error = nullptr) const;

  /// Visit every file, resident or evicted: the resident trie in
  /// for_each() order first, then evicted users in id order, each in its
  /// spill-record order. Evicted files are rebuilt from the purge index +
  /// spill records, so nothing faults. This is export_snapshot()'s order;
  /// checkpoints stream snapshot.csv straight from it.
  void visit_snapshot(
      const std::function<void(const std::string&, const FileMeta&)>& fn) const;

  /// Seed from / export to a metadata snapshot. Export covers evicted files
  /// too (built on visit_snapshot()).
  void import_snapshot(const trace::Snapshot& snapshot);
  trace::Snapshot export_snapshot() const;

  void clear();

 private:
  /// Compact per-file record for an evicted file: everything the purge
  /// index does *not* already hold. Stored in the owner's entries() order.
  struct SpillRecord {
    PathId id = kInvalidPathId;
    std::int32_t stripe_count = 1;
    util::TimePoint ctime = 0;
    std::uint32_t access_count = 0;
  };

  /// Residency bookkeeping, dense by user id (parallel to usage_).
  struct UserResidency {
    std::uint64_t resident_cost = 0;  // estimate; 0 while evicted
    std::uint64_t last_touch = 0;     // monotonic op tick (cold = small)
    bool evicted = false;
    std::vector<SpillRecord> spill;   // only while evicted
  };

  void account_add(const FileMeta& meta);
  void account_remove(const FileMeta& meta);
  UserResidency& residency(trace::UserId user);
  void touch_user(trace::UserId user);
  /// Fault `owner_hint` if it names an evicted user; true when a fault ran.
  bool maybe_fault(trace::UserId owner_hint);
  /// Evict coldest users until the estimate is back under the watermark.
  void enforce_budget();

  PathTrie trie_;
  PurgeIndex purge_index_;
  RemovalSink removal_sink_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t capacity_bytes_ = 0;
  std::vector<UserUsage> usage_;  // dense by user id
  std::size_t users_with_files_ = 0;
  std::vector<UserResidency> residency_;  // dense by user id
  std::uint64_t budget_bytes_ = 0;
  std::uint64_t resident_cost_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::size_t spilled_files_ = 0;
  std::size_t evicted_users_ = 0;
  std::uint64_t touch_tick_ = 0;
};

}  // namespace adr::fs
