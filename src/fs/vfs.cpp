#include "fs/vfs.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace adr::fs {

namespace {

// Estimated trie bytes per resident file beyond its path characters:
// roughly one compressed node (children vector header, edge string header,
// FileMeta slot). Calibrated against PathTrie::memory_bytes on synthetic
// user trees; the budget model only needs to be proportionally right.
constexpr std::uint64_t kResidentNodeCost = 96;

obs::Counter& creates_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.creates");
  return c;
}

obs::Counter& overwrites_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vfs.overwrites");
  return c;
}

obs::Counter& accesses_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vfs.accesses");
  return c;
}

obs::Counter& misses_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.misses");
  return c;
}

obs::Counter& removes_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.removes");
  return c;
}

obs::Counter& evictions_total() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vfs.evictions");
  return c;
}

obs::Counter& faults_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("vfs.faults");
  return c;
}

obs::Gauge& resident_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("vfs.resident_bytes");
  return g;
}

obs::Gauge& spilled_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("vfs.spilled_bytes");
  return g;
}

std::uint64_t file_cost(std::string_view path) {
  return path.size() + kResidentNodeCost;
}

}  // namespace

bool Vfs::create(std::string_view path, const FileMeta& meta) {
  creates_total().add();
  // An evicted owner's own file may live at this path; fault first so the
  // overwrite re-keys instead of double-inserting.
  maybe_fault(meta.owner);
  if (FileMeta* existing = trie_.find(path)) {
    overwrites_total().add();
    const FileMeta displaced = *existing;
    // The displaced version leaves the scratch tier exactly like a removal
    // does — without routing it through the sink, replayed overwrites would
    // silently drop the old version from the archive tier.
    if (removal_sink_) removal_sink_(std::string(path), displaced);
    account_remove(displaced);
    *existing = meta;
    existing->path_id = displaced.path_id;  // the path keeps its id
    account_add(*existing);
    purge_index_.update(displaced, *existing);
    if (displaced.owner != meta.owner) {
      // Resident cost moves with ownership.
      auto& from = residency(displaced.owner);
      const std::uint64_t cost = file_cost(path);
      from.resident_cost -= std::min(from.resident_cost, cost);
      residency(meta.owner).resident_cost += cost;
    }
    touch_user(meta.owner);
    return false;
  }
  FileMeta stored = meta;
  stored.path_id = purge_index_.intern(path);
  trie_.insert(path, stored);
  account_add(stored);
  purge_index_.add(stored);
  residency(stored.owner).resident_cost += file_cost(path);
  resident_cost_ += file_cost(path);
  touch_user(stored.owner);
  enforce_budget();
  return true;
}

bool Vfs::access(std::string_view path, util::TimePoint t,
                 trace::UserId owner_hint) {
  accesses_total().add();
  FileMeta* meta = trie_.find(path);
  if (!meta && maybe_fault(owner_hint)) meta = trie_.find(path);
  if (!meta) {
    misses_total().add();
    return false;
  }
  if (t > meta->atime) {  // atime is monotone; no re-key when unchanged
    purge_index_.touch(*meta, t);
    meta->atime = t;
  }
  ++meta->access_count;
  touch_user(meta->owner);
  return true;
}

bool Vfs::remove(std::string_view path, trace::UserId owner_hint) {
  const FileMeta* found = trie_.find(path);
  if (!found && maybe_fault(owner_hint)) found = trie_.find(path);
  if (!found) return false;
  const FileMeta meta = *found;
  removes_total().add();
  if (removal_sink_) removal_sink_(std::string(path), meta);
  account_remove(meta);
  const std::uint64_t cost = file_cost(path);
  auto& res = residency(meta.owner);
  res.resident_cost -= std::min(res.resident_cost, cost);
  resident_cost_ -= std::min(resident_cost_, cost);
  resident_gauge().set(static_cast<std::int64_t>(resident_cost_));
  trie_.erase(path);
  // Index last: `path` may alias the interned string this releases, and
  // the slot's storage survives until the id is recycled by a later create.
  purge_index_.remove(meta);
  return true;
}

// -- residency ---------------------------------------------------------------

void Vfs::set_memory_budget_bytes(std::uint64_t budget) {
  budget_bytes_ = budget;
  enforce_budget();
}

bool Vfs::user_resident(trace::UserId user) const {
  return user == trace::kInvalidUser ||
         static_cast<std::size_t>(user) >= residency_.size() ||
         !residency_[user].evicted;
}

Vfs::UserResidency& Vfs::residency(trace::UserId user) {
  assert(user != trace::kInvalidUser);
  if (static_cast<std::size_t>(user) >= residency_.size()) {
    residency_.resize(static_cast<std::size_t>(user) + 1);
  }
  return residency_[user];
}

void Vfs::touch_user(trace::UserId user) {
  residency(user).last_touch = ++touch_tick_;
}

bool Vfs::maybe_fault(trace::UserId owner_hint) {
  if (user_resident(owner_hint)) return false;
  fault_user(owner_hint);
  return true;
}

void Vfs::evict_user(trace::UserId user) {
  if (user == trace::kInvalidUser || !user_resident(user)) return;
  if (!purge_index_.has_entries(user)) return;
  UserResidency& res = residency(user);
  const std::vector<PurgeIndex::Entry> entries = purge_index_.entries(user);
  res.spill.clear();
  res.spill.reserve(entries.size());
  for (const PurgeIndex::Entry& e : entries) {
    const std::string& path = purge_index_.path(e.id);
    const FileMeta* meta = trie_.find(path);
    assert(meta != nullptr && meta->owner == user);
    res.spill.push_back(
        {e.id, meta->stripe_count, meta->ctime, meta->access_count});
    trie_.erase(path);
  }
  res.evicted = true;
  resident_cost_ -= std::min(resident_cost_, res.resident_cost);
  res.resident_cost = 0;
  spilled_files_ += res.spill.size();
  spilled_bytes_ += res.spill.size() * sizeof(SpillRecord);
  ++evicted_users_;
  evictions_total().add();
  resident_gauge().set(static_cast<std::int64_t>(resident_cost_));
  spilled_gauge().set(static_cast<std::int64_t>(spilled_bytes_));
}

void Vfs::fault_user(trace::UserId user) {
  if (user == trace::kInvalidUser || user_resident(user)) return;
  UserResidency& res = residency(user);
  // While evicted the owner's index entries are frozen (every mutation
  // faults first), so entries() aligns positionally with the spill records.
  const std::vector<PurgeIndex::Entry> entries = purge_index_.entries(user);
  assert(entries.size() == res.spill.size());
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PurgeIndex::Entry& e = entries[i];
    const SpillRecord& rec = res.spill[i];
    assert(rec.id == e.id);
    FileMeta meta;
    meta.owner = user;
    meta.size_bytes = e.size_bytes;
    meta.atime = e.atime;
    meta.path_id = e.id;
    meta.stripe_count = rec.stripe_count;
    meta.ctime = rec.ctime;
    meta.access_count = rec.access_count;
    const std::string& path = purge_index_.path(e.id);
    trie_.insert(path, meta);
    cost += file_cost(path);
  }
  spilled_files_ -= res.spill.size();
  spilled_bytes_ -= res.spill.size() * sizeof(SpillRecord);
  res.spill.clear();
  res.spill.shrink_to_fit();
  res.evicted = false;
  res.resident_cost = cost;
  resident_cost_ += cost;
  --evicted_users_;
  faults_total().add();
  touch_user(user);
  resident_gauge().set(static_cast<std::int64_t>(resident_cost_));
  spilled_gauge().set(static_cast<std::int64_t>(spilled_bytes_));
  enforce_budget();
}

void Vfs::enforce_budget() {
  if (budget_bytes_ == 0 || resident_cost_ <= budget_bytes_) return;
  const std::uint64_t low_watermark = budget_bytes_ - budget_bytes_ / 8;
  // One coldness-ordered sweep per overflow; eviction batches down to the
  // watermark so the scan amortizes over many mutations.
  std::vector<trace::UserId> candidates;
  for (std::size_t u = 0; u < residency_.size(); ++u) {
    const UserResidency& res = residency_[u];
    // Never evict the user touched by the in-flight op (highest tick):
    // a single over-budget user would otherwise thrash itself.
    if (res.evicted || res.resident_cost == 0 ||
        res.last_touch == touch_tick_) {
      continue;
    }
    candidates.push_back(static_cast<trace::UserId>(u));
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](trace::UserId a, trace::UserId b) {
              return residency_[a].last_touch < residency_[b].last_touch;
            });
  for (const trace::UserId u : candidates) {
    if (resident_cost_ <= low_watermark) break;
    evict_user(u);
  }
}

// -- verification / snapshot --------------------------------------------------

bool Vfs::verify_purge_index(std::string* error) const {
  bool ok = true;
  std::size_t walked = 0;
  trie_.for_each([&](const std::string& path, const FileMeta& meta) {
    ++walked;
    if (!ok) return;
    if (meta.path_id == kInvalidPathId) {
      ok = false;
      if (error) *error = "file without interned path id: " + path;
      return;
    }
    if (!purge_index_.contains(meta)) {
      ok = false;
      if (error) {
        *error = "index entry missing or stale for " + path + " (owner " +
                 std::to_string(meta.owner) + ", atime " +
                 std::to_string(meta.atime) + ")";
      }
      return;
    }
    if (purge_index_.path(meta.path_id) != path) {
      ok = false;
      if (error) {
        *error = "path id " + std::to_string(meta.path_id) + " interned as '" +
                 purge_index_.path(meta.path_id) + "' but trie holds '" +
                 path + "'";
      }
    }
  });
  // Evicted users are absent from the walk; their files must be covered by
  // spill records aligned with the (frozen) index entries.
  for (std::size_t u = 0; ok && u < residency_.size(); ++u) {
    const UserResidency& res = residency_[u];
    if (!res.evicted) continue;
    const auto entries =
        purge_index_.entries(static_cast<trace::UserId>(u));
    if (entries.size() != res.spill.size()) {
      ok = false;
      if (error) {
        *error = "evicted user " + std::to_string(u) + " holds " +
                 std::to_string(res.spill.size()) + " spill records but " +
                 std::to_string(entries.size()) + " index entries";
      }
      break;
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].id != res.spill[i].id) {
        ok = false;
        if (error) {
          *error = "evicted user " + std::to_string(u) +
                   " spill record misaligned at position " + std::to_string(i);
        }
        break;
      }
    }
    walked += res.spill.size();
  }
  if (ok && purge_index_.entry_count() != walked) {
    ok = false;
    if (error) {
      *error = "index holds " + std::to_string(purge_index_.entry_count()) +
               " entries but the walk covered " + std::to_string(walked) +
               " files";
    }
  }
  return ok;
}

UserUsage Vfs::usage(trace::UserId user) const {
  if (user == trace::kInvalidUser ||
      static_cast<std::size_t>(user) >= usage_.size()) {
    return UserUsage{};
  }
  return usage_[user];
}

void Vfs::import_snapshot(const trace::Snapshot& snapshot) {
  for (const auto& e : snapshot.entries()) {
    FileMeta meta;
    meta.owner = e.owner;
    meta.stripe_count = e.stripe_count;
    meta.size_bytes = e.size_bytes;
    meta.atime = e.atime;
    meta.ctime = e.atime;
    create(e.path, meta);
  }
}

void Vfs::visit_snapshot(
    const std::function<void(const std::string&, const FileMeta&)>& fn) const {
  trie_.for_each(fn);
  for (std::size_t u = 0; u < residency_.size(); ++u) {
    const UserResidency& res = residency_[u];
    if (!res.evicted) continue;
    const auto entries =
        purge_index_.entries(static_cast<trace::UserId>(u));
    for (std::size_t i = 0; i < entries.size(); ++i) {
      FileMeta meta;
      meta.owner = static_cast<trace::UserId>(u);
      meta.size_bytes = entries[i].size_bytes;
      meta.atime = entries[i].atime;
      meta.path_id = entries[i].id;
      meta.stripe_count = res.spill[i].stripe_count;
      meta.ctime = res.spill[i].ctime;
      meta.access_count = res.spill[i].access_count;
      fn(purge_index_.path(entries[i].id), meta);
    }
  }
}

trace::Snapshot Vfs::export_snapshot() const {
  trace::Snapshot snap;
  snap.reserve(file_count());
  visit_snapshot([&](const std::string& path, const FileMeta& meta) {
    trace::SnapshotEntry e;
    e.path = path;
    e.owner = meta.owner;
    e.stripe_count = meta.stripe_count;
    e.size_bytes = meta.size_bytes;
    e.atime = meta.atime;
    snap.add(std::move(e));
  });
  return snap;
}

void Vfs::clear() {
  trie_.clear();
  purge_index_.clear();
  total_bytes_ = 0;
  capacity_bytes_ = 0;
  usage_.clear();
  users_with_files_ = 0;
  residency_.clear();
  budget_bytes_ = 0;
  resident_cost_ = 0;
  spilled_bytes_ = 0;
  spilled_files_ = 0;
  evicted_users_ = 0;
  touch_tick_ = 0;
  resident_gauge().set(0);
  spilled_gauge().set(0);
}

void Vfs::account_add(const FileMeta& meta) {
  total_bytes_ += meta.size_bytes;
  assert(meta.owner != trace::kInvalidUser);
  if (static_cast<std::size_t>(meta.owner) >= usage_.size()) {
    usage_.resize(static_cast<std::size_t>(meta.owner) + 1);
  }
  auto& u = usage_[meta.owner];
  if (u.files == 0) ++users_with_files_;
  u.bytes += meta.size_bytes;
  u.files += 1;
}

void Vfs::account_remove(const FileMeta& meta) {
  total_bytes_ -= meta.size_bytes;
  if (static_cast<std::size_t>(meta.owner) >= usage_.size()) return;
  auto& u = usage_[meta.owner];
  u.bytes -= meta.size_bytes;
  u.files -= 1;
  // The slot stays (dense table); size()/count() skip empty users, so over a
  // year-long replay churned-out owners cost 16 B each, not a map node.
  if (u.files == 0) {
    u.bytes = 0;
    --users_with_files_;
  }
}

}  // namespace adr::fs
