#include "activeness/activity.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "activeness/spill.hpp"
#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"

namespace adr::activeness {

ActivityTypeId ActivityCatalog::add(ActivityTypeSpec spec) {
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

const ActivityTypeSpec& ActivityCatalog::spec(ActivityTypeId id) const {
  if (id >= specs_.size())
    throw std::out_of_range("ActivityCatalog: bad type id");
  return specs_[id];
}

std::vector<ActivityTypeId> ActivityCatalog::types_in(
    ActivityCategory category) const {
  std::vector<ActivityTypeId> out;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].category == category) out.push_back(i);
  }
  return out;
}

ActivityCatalog ActivityCatalog::paper_default() {
  ActivityCatalog catalog;
  catalog.add({"job_submission", ActivityCategory::kOperation, 1.0});
  catalog.add({"publication", ActivityCategory::kOutcome, 1.0});
  return catalog;
}

ActivityStore::ActivityStore(std::size_t user_count, std::size_t type_count)
    : users_(user_count),
      types_(type_count),
      streams_(user_count * type_count),
      prefix_(user_count * type_count),
      gap_prefix_(user_count * type_count),
      chrono_(1),
      dirty_flags_(user_count, 0),
      shard_map_(user_count, 1),
      dirty_lists_(1),
      ingest_(make_ingest(1)),
      admit_(std::make_unique<AdmissionState>()) {}

std::vector<std::unique_ptr<ActivityStore::IngestShard>>
ActivityStore::make_ingest(std::size_t shards) {
  std::vector<std::unique_ptr<IngestShard>> out;
  out.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    out.push_back(std::make_unique<IngestShard>());
  }
  return out;
}

void ActivityStore::mark_dirty(trace::UserId user) {
  if (dirty_flags_[user]) return;
  dirty_flags_[user] = 1;
  dirty_lists_[shard_map_.shard_of(user)].push_back(user);
}

void ActivityStore::set_dirty_shards(std::size_t shards) {
  if (shards == 0) shards = 1;
  if (shards == shard_map_.shards()) return;
  shard_map_ = ShardMap(users_, shards);
  std::vector<std::vector<trace::UserId>> lists(shards);
  for (auto& old : dirty_lists_) {
    for (const trace::UserId u : old) {
      lists[shard_map_.shard_of(u)].push_back(u);
    }
  }
  dirty_lists_ = std::move(lists);
  // Re-bucket the chronological index onto the new partition. Entries from
  // different old shards interleave in time, so each new shard re-sorts.
  std::vector<std::vector<std::pair<util::TimePoint, trace::UserId>>> chrono(
      shards);
  for (auto& old : chrono_) {
    for (const auto& entry : old) {
      chrono[shard_map_.shard_of(entry.second)].push_back(entry);
    }
  }
  for (auto& c : chrono) std::sort(c.begin(), c.end());
  chrono_ = std::move(chrono);
  // Re-route queued ingest events (callers guarantee no racing producers).
  auto ingest = make_ingest(shards);
  for (auto& old : ingest_) {
    std::lock_guard<std::mutex> lock(old->mutex);
    for (auto& event : old->queue) {
      IngestShard& dst = *ingest[shard_map_.shard_of(std::get<0>(event))];
      dst.queue.push_back(std::move(event));
      dst.pending.store(dst.queue.size(), std::memory_order_relaxed);
    }
  }
  ingest_ = std::move(ingest);
}

bool ActivityStore::has_dirty() const {
  for (const auto& list : dirty_lists_) {
    if (!list.empty()) return true;
  }
  return false;
}

void ActivityStore::add(trace::UserId user, ActivityTypeId type,
                        Activity activity) {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  streams_[user * types_ + type].push_back(activity);
  finalized_ = false;
  mark_dirty(user);
}

void ActivityStore::rebuild_aggregates() {
  chrono_.assign(shard_map_.shards(), {});
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const auto& stream = streams_[s];
    auto& prefix = prefix_[s];
    auto& gaps = gap_prefix_[s];
    prefix.resize(stream.size() + 1);
    gaps.resize(stream.size() + 1);
    prefix[0] = 0.0;
    gaps[0] = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      prefix[i + 1] = prefix[i] + stream[i].impact;
      gaps[i + 1] =
          i == 0 ? 0
                 : std::max(gaps[i],
                            stream[i].timestamp - stream[i - 1].timestamp);
    }
    const auto user = static_cast<trace::UserId>(s / types_);
    auto& chrono = chrono_[shard_map_.shard_of(user)];
    for (const auto& a : stream) chrono.emplace_back(a.timestamp, user);
  }
  for (auto& c : chrono_) std::sort(c.begin(), c.end());
  obs::MetricsRegistry::global()
      .gauge("activity_store.aggregate_entries")
      .set(static_cast<std::int64_t>(aggregate_entries()));
}

void ActivityStore::sort_all() {
  for (auto& s : streams_) {
    std::stable_sort(s.begin(), s.end(),
                     [](const Activity& a, const Activity& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  rebuild_aggregates();
  // A bulk load can have touched anyone: every user is dirty until the next
  // evaluation drains them.
  for (trace::UserId u = 0; u < users_; ++u) mark_dirty(u);
  finalized_ = true;
}

void ActivityStore::append(trace::UserId user, ActivityTypeId type,
                           Activity activity) {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  if (!finalized_) {
    sort_all();  // flush pending bulk rows so the aggregates are consistent
  }
  auto& stream = streams_[user * types_ + type];
  auto& prefix = prefix_[user * types_ + type];
  // upper_bound keeps arrival order among equal timestamps — identical to
  // the stable sort a bulk load would have produced.
  const auto it = std::upper_bound(
      stream.begin(), stream.end(), activity.timestamp,
      [](util::TimePoint t, const Activity& a) { return t < a.timestamp; });
  const std::size_t pos = static_cast<std::size_t>(it - stream.begin());
  stream.insert(it, activity);
  prefix.resize(stream.size() + 1);
  for (std::size_t i = pos; i < stream.size(); ++i) {
    prefix[i + 1] = prefix[i] + stream[i].impact;
  }
  // Gaps change only at/after the insertion point: O(1) for the common
  // append-at-end, O(k - pos) for an out-of-order insert.
  auto& gaps = gap_prefix_[user * types_ + type];
  gaps.resize(stream.size() + 1);
  gaps[0] = 0;
  for (std::size_t i = pos == 0 ? 0 : pos - 1; i < stream.size(); ++i) {
    gaps[i + 1] =
        i == 0
            ? 0
            : std::max(gaps[i], stream[i].timestamp - stream[i - 1].timestamp);
  }
  auto& chrono = chrono_[shard_map_.shard_of(user)];
  const auto cit = std::upper_bound(
      chrono.begin(), chrono.end(),
      std::make_pair(activity.timestamp,
                     std::numeric_limits<trace::UserId>::max()));
  chrono.emplace(cit, activity.timestamp, user);
  mark_dirty(user);
  static obs::Counter& appends =
      obs::MetricsRegistry::global().counter("activity_store.appends");
  appends.add();
  obs::MetricsRegistry::global()
      .gauge("activity_store.aggregate_entries")
      .add(3);  // one prefix entry + one gap entry + one chrono entry
}

void ActivityStore::add_types(std::size_t extra) {
  if (extra == 0) return;
  const std::size_t new_types = types_ + extra;
  std::vector<std::vector<Activity>> streams(users_ * new_types);
  std::vector<std::vector<double>> prefix(users_ * new_types);
  std::vector<std::vector<util::Duration>> gaps(users_ * new_types);
  for (trace::UserId u = 0; u < users_; ++u) {
    for (std::size_t t = 0; t < types_; ++t) {
      streams[u * new_types + t] = std::move(streams_[u * types_ + t]);
      prefix[u * new_types + t] = std::move(prefix_[u * types_ + t]);
      gaps[u * new_types + t] = std::move(gap_prefix_[u * types_ + t]);
    }
  }
  streams_ = std::move(streams);
  prefix_ = std::move(prefix);
  gap_prefix_ = std::move(gaps);
  types_ = new_types;
  if (finalized_) {
    // New streams are empty; prefixes for them are built lazily on append,
    // but give them their canonical empty shape now.
    for (auto& p : prefix_) {
      if (p.empty()) p.assign(1, 0.0);
    }
    for (auto& g : gap_prefix_) {
      if (g.empty()) g.assign(1, 0);
    }
  }
}

std::span<const Activity> ActivityStore::stream(trace::UserId user,
                                                ActivityTypeId type) const {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  return streams_[user * types_ + type];
}

std::span<const double> ActivityStore::prefix(trace::UserId user,
                                              ActivityTypeId type) const {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  return prefix_[user * types_ + type];
}

std::span<const util::Duration> ActivityStore::max_gap_prefix(
    trace::UserId user, ActivityTypeId type) const {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  return gap_prefix_[user * types_ + type];
}

std::vector<trace::UserId> ActivityStore::take_dirty() {
  std::vector<trace::UserId> out = std::move(dirty_lists_[0]);
  dirty_lists_[0].clear();
  for (std::size_t s = 1; s < dirty_lists_.size(); ++s) {
    out.insert(out.end(), dirty_lists_[s].begin(), dirty_lists_[s].end());
    dirty_lists_[s].clear();
  }
  for (const trace::UserId u : out) dirty_flags_[u] = 0;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<trace::UserId> ActivityStore::take_dirty(std::size_t shard) {
  std::vector<trace::UserId> out = std::move(dirty_lists_[shard]);
  dirty_lists_[shard].clear();
  for (const trace::UserId u : out) dirty_flags_[u] = 0;
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const std::pair<util::TimePoint, trace::UserId>>
ActivityStore::chrono_window(std::size_t shard, util::TimePoint begin,
                             util::TimePoint end) const {
  if (end <= begin) return {};
  const auto& chrono = chrono_[shard];
  const auto lo = std::upper_bound(
      chrono.begin(), chrono.end(),
      std::make_pair(begin, std::numeric_limits<trace::UserId>::max()));
  const auto hi = std::upper_bound(
      chrono.begin(), chrono.end(),
      std::make_pair(end, std::numeric_limits<trace::UserId>::max()));
  return {chrono.data() + (lo - chrono.begin()),
          static_cast<std::size_t>(hi - lo)};
}

std::vector<trace::UserId> ActivityStore::users_active_between(
    util::TimePoint begin, util::TimePoint end) const {
  std::vector<trace::UserId> out;
  for (std::size_t s = 0; s < chrono_.size(); ++s) {
    for (const auto& [ts, user] : chrono_window(s, begin, end)) {
      out.push_back(user);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

EnqueueResult ActivityStore::enqueue(trace::UserId user, ActivityTypeId type,
                                     Activity activity) {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  IngestShard& shard = *ingest_[shard_map_.shard_of(user)];
  AdmissionState& admit = *admit_;
  const std::size_t cap = admit.config.queue_cap;
  std::unique_lock<std::mutex> lock(shard.mutex);
  if (cap > 0 && shard.queue.size() >= cap) {
    // Over the cap: apply the backpressure policy. Every branch either
    // accounts for the event (shed log, spill segment) or ends up blocking,
    // so nothing is ever lost silently.
    switch (admit.config.policy) {
      case BackpressurePolicy::kShed: {
        std::lock_guard<std::mutex> shed_lock(admit.shed_mutex);
        if (admit.shed_events.size() < admit.config.shed_budget) {
          admit.shed_events.emplace_back(user, type, activity);
          admit.shed_total.fetch_add(1, std::memory_order_acq_rel);
          obs::MetricsRegistry::global()
              .counter("activity_store.ingest_shed")
              .add();
          return EnqueueResult::kShed;
        }
        break;  // budget spent: degrade to blocking, never silent loss
      }
      case BackpressurePolicy::kSpill: {
        if (admit.config.spill != nullptr) {
          lock.unlock();  // file IO must not hold the shard lock
          try {
            admit.config.spill->append(user, type, activity);
            admit.spilled_total.fetch_add(1, std::memory_order_acq_rel);
            obs::MetricsRegistry::global()
                .counter("activity_store.ingest_spilled")
                .add();
            return EnqueueResult::kSpilled;
          } catch (const std::exception&) {
            // Spill segment unwritable (disk full, torn write): fall back
            // to blocking admission so the event still is not dropped.
            lock.lock();
          }
        }
        break;
      }
      case BackpressurePolicy::kBlock:
        break;
    }
    if (shard.queue.size() >= cap) {
      obs::MetricsRegistry::global()
          .counter("activity_store.ingest_blocked")
          .add();
      shard.drained.wait(lock, [&] { return shard.queue.size() < cap; });
    }
  }
  shard.queue.emplace_back(user, type, activity);
  const std::size_t depth = shard.queue.size();
  shard.pending.store(depth, std::memory_order_release);
  lock.unlock();

  std::size_t seen = admit.depth_high_water.load(std::memory_order_relaxed);
  while (depth > seen && !admit.depth_high_water.compare_exchange_weak(
                             seen, depth, std::memory_order_acq_rel)) {
  }
  static obs::Counter& enqueued =
      obs::MetricsRegistry::global().counter("activity_store.ingest_enqueued");
  enqueued.add();
  return EnqueueResult::kQueued;
}

std::size_t ActivityStore::pending_ingest() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < ingest_.size(); ++s) total += pending_ingest(s);
  return total;
}

std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>>
ActivityStore::shed_events() const {
  std::lock_guard<std::mutex> lock(admit_->shed_mutex);
  return admit_->shed_events;
}

bool ActivityStore::has_pending_ingest() const {
  for (std::size_t s = 0; s < ingest_.size(); ++s) {
    if (has_pending_ingest(s)) return true;
  }
  return false;
}

std::size_t ActivityStore::drain_ingest(std::size_t shard) {
  IngestShard& iq = *ingest_[shard];
  std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>> batch;
  {
    std::lock_guard<std::mutex> lock(iq.mutex);
    if (iq.queue.empty()) return 0;
    if (!finalized_) {
      // append() would sort_all(), which touches every shard — not legal
      // from a parallel per-shard drain. The evaluators finalize before
      // fanning out; anything else should use the global drain_ingest().
      // Checked before the swap so the queued events survive the throw.
      throw std::logic_error(
          "ActivityStore::drain_ingest(shard): store not finalized");
    }
    batch.swap(iq.queue);
    iq.pending.store(0, std::memory_order_release);
  }
  iq.drained.notify_all();  // wake producers blocked on a full queue
  for (const auto& [user, type, activity] : batch) {
    append(user, type, activity);
  }
  static obs::Counter& drained =
      obs::MetricsRegistry::global().counter("activity_store.ingest_drained");
  drained.add(batch.size());
  return batch.size();
}

std::size_t ActivityStore::drain_ingest() {
  if (!finalized_ && has_pending_ingest()) {
    sort_all();  // flush pending bulk rows before applying queued events
  }
  std::size_t applied = 0;
  for (std::size_t s = 0; s < ingest_.size(); ++s) {
    applied += drain_ingest(s);
  }
  return applied;
}

std::size_t ActivityStore::total_activities() const {
  std::size_t n = 0;
  for (const auto& s : streams_) n += s.size();
  return n;
}

std::size_t ActivityStore::aggregate_entries() const {
  std::size_t n = 0;
  for (const auto& c : chrono_) n += c.size();
  for (const auto& p : prefix_) n += p.size();
  for (const auto& g : gap_prefix_) n += g.size();
  return n;
}

void ingest_jobs(ActivityStore& store, ActivityTypeId type, double weight,
                 const trace::JobLog& jobs) {
  for (const auto& job : jobs.records()) {
    if (job.user == trace::kInvalidUser || job.user >= store.user_count())
      continue;
    store.add(job.user, type,
              Activity{job.submit_time, weight * job.core_hours()});
  }
}

void ingest_publications(ActivityStore& store, ActivityTypeId type,
                         double weight, const trace::PublicationLog& pubs) {
  for (const auto& pub : pubs.records()) {
    for (std::size_t i = 0; i < pub.authors.size(); ++i) {
      const trace::UserId author = pub.authors[i];
      if (author == trace::kInvalidUser || author >= store.user_count())
        continue;
      store.add(author, type,
                Activity{pub.published, weight * pub.impact_for_author(i + 1)});
    }
  }
}

std::size_t ingest_activities_csv(ActivityStore& store, ActivityTypeId type,
                                  double weight, const std::string& path,
                                  const util::ParseOptions& opts) {
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("ingest_activities_csv: empty file " + path);
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  std::size_t ingested = 0;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      if (row->size() != 3) {
        throw util::ParseError("ingest_activities_csv: " + path + ":" +
                               std::to_string(reader.line()) +
                               ": expected 3 columns, got " +
                               std::to_string(row->size()));
      }
      const auto user =
          static_cast<trace::UserId>(util::parse_u32((*row)[0], ctx, "user"));
      const auto timestamp = util::parse_i64((*row)[1], ctx, "timestamp");
      const double impact = util::parse_f64((*row)[2], ctx, "impact");
      if (user >= store.user_count()) continue;
      store.add(user, type, Activity{timestamp, weight * impact});
      ++ingested;
      if (opts.stats) ++opts.stats->rows_ok;
    } catch (const util::ParseError& e) {
      if (!permissive) throw;
      quarantine.add(reader.line(), util::RowQuarantine::kMalformed, e.what(),
                     reader.raw());
    }
  }
  quarantine.finish(opts.stats);
  return ingested;
}

void save_activities_csv(const std::string& path,
                         const std::vector<std::pair<trace::UserId, Activity>>&
                             activities) {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.row("user", "timestamp", "impact");
  for (const auto& [user, activity] : activities) {
    // Impacts keep std::to_string's fixed six decimals in this file.
    w.row(user, activity.timestamp, std::to_string(activity.impact));
  }
  writer.commit();
}

}  // namespace adr::activeness
