#pragma once
// The activity model of §3.1–3.2: every user activity reduces to a
// (timestamp, impact) pair; activity *types* are administrator-configured and
// belong to one of two categories — operations (things done on the system)
// or outcomes (things produced by using it). The catalog plus per-user,
// per-type activity streams are the only inputs the evaluator needs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <utility>
#include <string>
#include <vector>

#include "trace/job_log.hpp"
#include "trace/publication_log.hpp"
#include "trace/types.hpp"
#include "util/parse.hpp"
#include "util/time.hpp"

namespace adr::activeness {

enum class ActivityCategory { kOperation, kOutcome };

/// One activity occurrence (Table 3: a_x with a timestamp and an impact D).
struct Activity {
  util::TimePoint timestamp = 0;
  double impact = 0.0;
};

using ActivityTypeId = std::size_t;

/// Administrator-declared activity type (Table 2 rows). `weight` scales each
/// occurrence's impact — the knob the paper describes as "configured ...
/// with weights to quantitatively measure the impact".
struct ActivityTypeSpec {
  std::string name;
  ActivityCategory category = ActivityCategory::kOperation;
  double weight = 1.0;
};

/// Registry of the activity types in play. A one-time setup object.
class ActivityCatalog {
 public:
  ActivityTypeId add(ActivityTypeSpec spec);

  const ActivityTypeSpec& spec(ActivityTypeId id) const;
  std::size_t size() const { return specs_.size(); }

  /// Ids of all types in a category, in registration order.
  std::vector<ActivityTypeId> types_in(ActivityCategory category) const;

  /// The paper's evaluation setup: "job_submission" (operation, impact =
  /// core-hours) and "publication" (outcome, impact = Eq. 8).
  static ActivityCatalog paper_default();

 private:
  std::vector<ActivityTypeSpec> specs_;
};

/// Contiguous partition of the dense user-id space [0, users) into `shards`
/// near-equal ranges: shard s owns [s·U/S, (s+1)·U/S). The mapping is a pure
/// function of (users, shards) — every component that agrees on those two
/// numbers agrees on the partition, which is what lets the store's dirty
/// routing, the per-shard evaluators, and the plan merge all line up without
/// exchanging any state. Ranges may be empty when S > U.
class ShardMap {
 public:
  ShardMap() = default;
  ShardMap(std::size_t users, std::size_t shards)
      : users_(users), shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const { return shards_; }
  std::size_t users() const { return users_; }

  /// First user of shard s (== end of shard s-1; ranges are contiguous).
  trace::UserId begin(std::size_t shard) const {
    return static_cast<trace::UserId>(shard * users_ / shards_);
  }
  trace::UserId end(std::size_t shard) const { return begin(shard + 1); }

  /// Inverse of begin/end: the unique s with begin(s) <= user < end(s).
  /// An empty map (users == 0) owns no users, but enqueue-before-resize
  /// races and zero-user stores still ask — route everything to shard 0
  /// instead of dividing by zero.
  std::size_t shard_of(trace::UserId user) const {
    if (users_ == 0) return 0;
    return (static_cast<std::size_t>(user + 1) * shards_ - 1) / users_;
  }

  bool operator==(const ShardMap&) const = default;

 private:
  std::size_t users_ = 0;
  std::size_t shards_ = 1;
};

class SpillLog;

/// What a bounded ingest queue does with an event it cannot admit
/// (DESIGN.md §14.1). Every policy preserves the no-silent-loss invariant:
/// produced == admitted + shed, with shed exactly counted and bounded.
enum class BackpressurePolicy {
  kBlock,  // producer waits until a drain makes room (bounds memory)
  kShed,   // drop, record, and count — up to shed_budget, then block
  kSpill,  // divert to a WAL-backed SpillLog, replayed when pressure clears
};

/// Bounded-admission knobs for ActivityStore::enqueue(). The default
/// (queue_cap == 0) is the legacy unbounded queue.
struct AdmissionConfig {
  std::size_t queue_cap = 0;  // per-shard max queued events; 0 = unbounded
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  std::size_t shed_budget = 0;  // max events kShed may drop before blocking
  SpillLog* spill = nullptr;    // required for kSpill (not owned)
};

/// What enqueue() did with the event.
enum class EnqueueResult { kQueued, kShed, kSpilled };

/// Per-user, per-type activity streams. Dense over users for cache-friendly
/// parallel evaluation.
///
/// Two ingestion styles:
///  * bulk: add() rows in any order, then sort_all() once — the load path
///    for whole trace files;
///  * streaming: append() events as they happen — each append keeps the
///    stream sorted, maintains the per-stream prefix-impact aggregate and
///    the chronological index, and marks the user dirty so an incremental
///    evaluator knows exactly whose rank can have changed;
///  * concurrent: enqueue() routes the event into its owner shard's ingest
///    queue (the only locked structure in the store); drain_ingest(shard)
///    applies a shard's queue via append() at the start of that shard's
///    advance. Producers on any thread can enqueue while per-shard drains
///    and evaluations run.
///
/// The prefix aggregates let an evaluation at any t_c resolve per-period
/// impacts by binary-searching period boundaries (O(m log k)) instead of
/// walking the whole stream; the chronological index answers "which users
/// have activity inside a replay window" without touching every stream.
/// The chronological index is sharded by the same ShardMap as the dirty
/// queues, so an append during shard s's drain touches only shard-s state —
/// streams, prefixes, dirty bytes, and chrono slice are all owner-shard
/// local, which is what makes concurrent per-shard drains race-free.
class ActivityStore {
 public:
  ActivityStore(std::size_t user_count, std::size_t type_count);

  void add(trace::UserId user, ActivityTypeId type, Activity activity);

  /// Sort every stream by timestamp (the evaluator requires sorted input),
  /// rebuild the prefix aggregates and the chronological index, and mark
  /// every user dirty (bulk loads invalidate any cached evaluation).
  void sort_all();

  /// Streaming insert: keeps the stream time-sorted (equal timestamps keep
  /// arrival order, matching add()+sort_all()'s stable sort), updates the
  /// aggregates in place, and marks `user` dirty. Finalizes the store first
  /// if bulk rows are pending.
  void append(trace::UserId user, ActivityTypeId type, Activity activity);

  /// Grow the type dimension (administrators may register activity types
  /// after tracing has started). Existing streams keep their data.
  void add_types(std::size_t extra);

  std::span<const Activity> stream(trace::UserId user,
                                   ActivityTypeId type) const;

  /// Prefix-impact aggregate of a stream: element i is the sum of the first
  /// i impacts (size = stream size + 1, element 0 = 0). Only valid while
  /// finalized().
  std::span<const double> prefix(trace::UserId user, ActivityTypeId type) const;

  /// Prefix-max of internal inter-activity gaps: element i is the widest
  /// gap between consecutive timestamps among the first i activities (0
  /// for i < 2; size = stream size + 1). Only valid while finalized().
  /// The incremental evaluator's frozen-zero rule reads this: a static gap
  /// wider than two period lengths swallows a full period wherever the
  /// t_c-anchored boundaries land, so a zero rank provably survives any
  /// window shift until new activity arrives.
  std::span<const util::Duration> max_gap_prefix(trace::UserId user,
                                                 ActivityTypeId type) const;

  /// True once sort_all() (or any append) has built the aggregates and no
  /// un-sorted bulk add() is pending.
  bool finalized() const { return finalized_; }

  // -- dirty tracking (single consumer: the evaluation pipeline) ----------
  //
  // Dirty users are routed into per-shard queues at mark time (ShardMap over
  // this store's user count; one shard by default). The ShardedEvaluator
  // configures its segment count S so an advance can ask "does shard s have
  // work?" without scanning other shards' queues.
  //
  // Thread-safety: take_dirty(shard) / has_dirty(shard) / drain_ingest(shard)
  // for *distinct* shards touch disjoint state (each shard's own queues,
  // chrono slice, and streams/dirty-flag bytes of users only that shard
  // owns), so per-shard drains may run concurrently — the one concurrency
  // the sharded advance needs. enqueue() is additionally safe against
  // anything except set_dirty_shards. Everything else (appends, sort_all,
  // set_dirty_shards, the global take_dirty) remains single-threaded.

  /// Re-bucket dirty routing, the chronological index, and the ingest
  /// queues into `shards` partitions (pending entries are preserved).
  /// No-op when the count is unchanged. Must not race producers: configure
  /// the shard count before ingest threads start.
  void set_dirty_shards(std::size_t shards);
  const ShardMap& dirty_shard_map() const { return shard_map_; }

  bool has_dirty() const;
  bool has_dirty(std::size_t shard) const {
    return !dirty_lists_[shard].empty();
  }
  /// Users touched by append()/add()/sort_all() since the last take_dirty(),
  /// sorted ascending; clears the dirty set (all shards).
  std::vector<trace::UserId> take_dirty();
  /// Drain one shard's dirty queue, sorted ascending.
  std::vector<trace::UserId> take_dirty(std::size_t shard);

  // -- concurrent ingest (producers: any thread; consumer: shard drains) --

  /// Bounded-admission policy for enqueue(). Must not race producers:
  /// configure before ingest threads start (same contract as
  /// set_dirty_shards). The SpillLog, if any, is borrowed, not owned.
  void set_admission(AdmissionConfig config) { admit_->config = config; }
  const AdmissionConfig& admission() const { return admit_->config; }

  /// Thread-safe streaming insert: routes the event into its owner shard's
  /// ingest queue (one mutex per shard — producers for different shards
  /// never contend). The store itself is mutated only when drain_ingest
  /// applies the queue, so producers may enqueue while per-shard drains or
  /// evaluations run. Events enqueued after a shard's drain began are
  /// picked up by the next drain.
  ///
  /// When an AdmissionConfig caps the queue and the owner shard is full,
  /// the configured BackpressurePolicy decides: kBlock waits for a drain;
  /// kShed records the event in the shed log and drops it (until the
  /// budget is spent, then blocks); kSpill appends it to the SpillLog
  /// (falling back to blocking if the spill write itself fails). Blocking
  /// requires a live consumer calling drain_ingest — there is no timeout.
  EnqueueResult enqueue(trace::UserId user, ActivityTypeId type,
                        Activity activity);

  /// Whether a shard has queued-but-undrained events (lock-free; exact
  /// under quiescence, momentarily stale against a racing producer — fine
  /// for wake checks, which err toward waking).
  bool has_pending_ingest(std::size_t shard) const {
    return ingest_[shard]->pending.load(std::memory_order_acquire) > 0;
  }
  bool has_pending_ingest() const;

  /// Queued-but-undrained depth of one shard (lock-free snapshot; same
  /// staleness caveat as has_pending_ingest).
  std::size_t pending_ingest(std::size_t shard) const {
    return ingest_[shard]->pending.load(std::memory_order_acquire);
  }
  /// Sum of all shards' pending depths.
  std::size_t pending_ingest() const;

  /// Events dropped by the kShed policy so far (exact: every shed event is
  /// also recorded, so loss accounting can be audited event-by-event).
  std::size_t shed_count() const {
    return admit_->shed_total.load(std::memory_order_acquire);
  }
  /// The recorded shed events, in drop order (bounded by shed_budget).
  std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>>
  shed_events() const;

  /// Events diverted to the SpillLog by the kSpill policy.
  std::size_t spilled_count() const {
    return admit_->spilled_total.load(std::memory_order_acquire);
  }

  /// Deepest any shard's ingest queue has ever been (the obs
  /// "activity_store.ingest_depth_high_water" gauge).
  std::size_t ingest_depth_high_water() const {
    return admit_->depth_high_water.load(std::memory_order_acquire);
  }

  /// Apply one shard's queued events via append(), in arrival order, and
  /// return how many were applied. Touches only shard-owned state, so
  /// distinct shards may drain concurrently — but the store must already be
  /// finalized (the evaluators sort_all() before any parallel phase).
  std::size_t drain_ingest(std::size_t shard);
  /// Drain every shard, single-threaded; finalizes first if events are
  /// pending over un-sorted bulk rows.
  std::size_t drain_ingest();

  /// Users with at least one activity in (begin, end], sorted ascending —
  /// resolved against the chronological index, O(S log n + hits).
  std::vector<trace::UserId> users_active_between(util::TimePoint begin,
                                                  util::TimePoint end) const;

  /// One shard's chronological-index slice covering (begin, end] — the
  /// allocation-free form of users_active_between for hot callers that
  /// dedupe into their own flag table. Entries are time-sorted within the
  /// shard and may repeat a user; a full-store sweep iterates shards
  /// 0..chrono_shard_count().
  std::span<const std::pair<util::TimePoint, trace::UserId>> chrono_window(
      std::size_t shard, util::TimePoint begin, util::TimePoint end) const;
  /// Number of chrono/ingest shards (== dirty_shard_map().shards()).
  std::size_t chrono_shard_count() const { return chrono_.size(); }

  std::size_t user_count() const { return users_; }
  std::size_t type_count() const { return types_; }

  /// Total number of stored activities.
  std::size_t total_activities() const;

  /// Entries held by the prefix aggregates + chronological index (the obs
  /// "activity_store.aggregate_entries" gauge).
  std::size_t aggregate_entries() const;

 private:
  /// One shard's producer-facing queue. pending mirrors queue.size() and is
  /// maintained under the mutex so lock-free wake checks read a consistent
  /// value.
  struct IngestShard {
    std::mutex mutex;
    std::condition_variable drained;  // signaled when drain_ingest makes room
    std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>> queue;
    std::atomic<std::size_t> pending{0};
  };

  void mark_dirty(trace::UserId user);
  void rebuild_aggregates();
  static std::vector<std::unique_ptr<IngestShard>> make_ingest(
      std::size_t shards);

  std::size_t users_;
  std::size_t types_;
  std::vector<std::vector<Activity>> streams_;  // [user * types_ + type]
  std::vector<std::vector<double>> prefix_;     // parallel to streams_
  std::vector<std::vector<util::Duration>> gap_prefix_;  // parallel to streams_
  /// Chronological index for windowed dirty-user queries, sharded by
  /// shard_map_ so an append during one shard's drain stays shard-local.
  /// Entries within a shard are time-sorted.
  std::vector<std::vector<std::pair<util::TimePoint, trace::UserId>>> chrono_;
  bool finalized_ = false;

  std::vector<std::uint8_t> dirty_flags_;  // dense by user
  ShardMap shard_map_;                     // dirty routing (1 shard default)
  std::vector<std::vector<trace::UserId>> dirty_lists_;  // one per shard
  std::vector<std::unique_ptr<IngestShard>> ingest_;     // one per shard

  /// Admission/backpressure state, heap-held (like the ingest shards) so
  /// the store stays movable despite the mutex and atomics.
  struct AdmissionState {
    AdmissionConfig config;  // read by producers; set only at quiescence
    mutable std::mutex shed_mutex;
    std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>>
        shed_events;
    std::atomic<std::size_t> shed_total{0};
    std::atomic<std::size_t> spilled_total{0};
    std::atomic<std::size_t> depth_high_water{0};
  };
  std::unique_ptr<AdmissionState> admit_;
};

/// Ingest a job log: each job submission becomes one operation activity with
/// impact = weight x core-hours (the paper's §4.1.3 choice).
void ingest_jobs(ActivityStore& store, ActivityTypeId type, double weight,
                 const trace::JobLog& jobs);

/// Ingest a publication list: each publication contributes one outcome
/// activity per author with impact = weight x (c+1)(n-i+1) (Eq. 8).
void ingest_publications(ActivityStore& store, ActivityTypeId type,
                         double weight, const trace::PublicationLog& pubs);

/// Ingest a generic activity CSV (header: user,timestamp,impact) — the §3.1
/// promise that *any* trackable activity with a timestamp and a quantifiable
/// impact can drive the evaluation (data transfers, shell logins, workflow
/// completions, ... exported by site tooling). Rows whose user is outside
/// the store are skipped. Returns the number of activities ingested. The
/// file's CRC footer is verified when present and the ParsePolicy governs
/// malformed-row handling, same as the trace loaders.
std::size_t ingest_activities_csv(ActivityStore& store, ActivityTypeId type,
                                  double weight, const std::string& path,
                                  const util::ParseOptions& opts = {});

/// Write activities back out in the same format (round-trip for tests and
/// for sites that post-process activity streams).
void save_activities_csv(const std::string& path,
                         const std::vector<std::pair<trace::UserId, Activity>>&
                             activities);

}  // namespace adr::activeness
