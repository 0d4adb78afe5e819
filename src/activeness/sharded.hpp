#pragma once
// The evaluation pipeline (DESIGN.md §9, §11).
//
// A full evaluation re-ranks every user at every purge trigger, but between
// two triggers almost nothing changes: most users had no new activity, and
// the bulk of the population already sits at Φ = 0 exactly (some period is
// empty) where growing the window cannot resurrect them. The pipeline
// exploits both facts. It keeps the latest evaluation (dense per-user
// activeness, group table, sorted ScanPlan) and, on each advance to a new
// t_c, re-evaluates only users that can have changed:
//
//  * users the store marked dirty (streaming appends since the last drain);
//  * users with activity inside (t_prev, t_c] revealed by the advancing trim
//    (replay stores hold the whole trace up front, so "new" events surface
//    by time moving, not by appends) — answered by the store's chronological
//    index;
//  * any cached user that fails the *skip rule*.
//
// Skip rule (proved in DESIGN.md §9.2): a user with no new activity keeps an
// identical evaluation at t_c iff every data-bearing category rank already
// sits at Φ = 0 *and* that zero provably persists at the new t_c. Four
// independent certificates establish persistence, each checkable in O(1)
// against the store's aggregates (no stream walk):
//   * pigeonhole — more periods than activities (m only grows, the stream
//     is frozen);
//   * zero total impact (frozen totals);
//   * stale newest period — the last activity strictly predates t_c − d;
//   * static gap — some inter-activity gap wider than 2d swallows a full
//     period wherever the t_c-anchored boundaries land. Durable uncapped;
//     under a max_periods cap P ≥ 4 it stays durable when the gap's right
//     end is recent enough (ts_right ≥ ts_newest − (P−4)·d) that the capped
//     window provably keeps an aligned period inside the gap until the
//     stale-newest argument takes over (DESIGN.md §9.2).
// Fresh users (no data at all) trivially qualify. Everyone else — anyone
// with a live positive rank — is re-evaluated, because Eq. 1's m grows with
// t_c and dilutes Avg even without new events.
//
// Re-evaluated users are spliced into the cached ScanPlan with scan_less
// (a strict total order), so the patched plan is element-for-element
// identical to a from-scratch build_scan_plan. Both eval modes therefore
// produce identical ranks, classifications, scan orderings, and downstream
// PurgeReports — tests/activeness/test_incremental.cpp holds the pipeline
// to Evaluator::evaluate_all + build_scan_plan at every trigger.
//
// ShardedEvaluator owns the one copy of that evaluation. Eqs. 2–6 are
// embarrassingly parallel across users — each Φop/Φoc depends only on that
// user's own streams — so the dense user-id space is partitioned into S
// contiguous segments (ShardMap), each with its own dirty queue, ingest
// queue and chronological slice inside the shared ActivityStore. A segment
// keeps only its skip state (frozen bitmap, last t_c). The same code runs
// for every S ≥ 1; one advance():
//
//  1. rebuilds from scratch (Evaluator::evaluate_all + build_scan_plan) on
//     the first advance, when `now` moves backwards, when the store grew,
//     or in kFull mode;
//  2. otherwise wakes only the segments that can have changed — a segment
//     sleeps through the trigger when it has no queued dirty users, no
//     queued ingest, no trace events inside (its last t_c, now], and every
//     user in it is frozen under a durable skip certificate;
//  3. runs the woken segments concurrently on util::global_pool(): each
//     drains its own queues, applies the skip rule, and re-evaluates its
//     remaining users straight into the owner's dense arrays (segments own
//     disjoint user ranges, queues and frozen bitmaps — no shared mutable
//     state);
//  4. splices the re-evaluated users into the plan. scan_less is a strict
//     total order, so the plan is element-for-element identical to a
//     from-scratch build — S and the eval mode can never change ranks,
//     classifications, scan order, or purge victims, only wall time.
//
// Observability (identical at every S, DESIGN.md §6): span
// `incremental.advance` around every advance and `evaluator.evaluate_all`
// around every rebuild; counters `incremental.advances`,
// `incremental.full_rebuilds`, `incremental.users_dirty`,
// `incremental.users_reevaluated`, `incremental.users_skipped` and
// `shard.advances` (segments run: all S on a rebuild, the woken ones
// otherwise); gauge `shard.imbalance_max_over_mean` (max/mean
// re-evaluations across the segments run, percent — 100 = perfectly
// balanced).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "activeness/classifier.hpp"
#include "activeness/evaluator.hpp"

namespace adr::activeness {

/// How the pipeline evaluates at each trigger.
enum class EvalMode {
  kIncremental,  ///< delta-aware: dirty users + skip-rule failures only
  kFull,         ///< re-evaluate every user at every advance (the oracle)
};

const char* to_string(EvalMode mode);
/// Parses "full" / "incremental"; returns false on anything else.
bool parse_eval_mode(const std::string& text, EvalMode& out);

/// What one advance() did — surfaced for tests and the obs counters.
struct AdvanceStats {
  bool full_rebuild = false;      ///< first advance / backwards time / kFull
  std::size_t users_dirty = 0;    ///< delta candidates (appends + window)
  std::size_t users_reevaluated = 0;
  std::size_t users_skipped = 0;  ///< cached evaluation provably unchanged
};

/// Not thread-safe: one advance at a time.
class ShardedEvaluator {
 public:
  /// `shards` = 0 picks default_shard_count(); anything else is used as-is
  /// (empty segments are fine when S exceeds the user count).
  ShardedEvaluator(const ActivityCatalog& catalog,
                   EvaluationParams base_params,
                   EvalMode mode = EvalMode::kIncremental,
                   std::size_t shards = 0);
  /// The evaluator keeps a pointer to the caller's catalog for its whole
  /// lifetime; binding a temporary would dangle by the first advance().
  ShardedEvaluator(ActivityCatalog&&, EvaluationParams,
                   EvalMode = EvalMode::kIncremental, std::size_t = 0) = delete;

  /// min(thread-pool parallelism, 16): one segment per thread the advance
  /// can actually run on.
  static std::size_t default_shard_count();

  /// Advance the evaluation to t_c = `now`. Finalizes the store if bulk
  /// rows are pending, drains its ingest and dirty queues, re-evaluates
  /// what can have changed, and patches the plan.
  AdvanceStats advance(ActivityStore& store, util::TimePoint now);

  /// Latest evaluation (valid after the first advance): users() and
  /// groups() are dense by user id, plan() holds every user.
  const ScanPlan& plan() const { return plan_; }
  const std::vector<UserActiveness>& users() const { return users_; }
  const std::vector<UserGroup>& groups() const { return groups_; }
  UserGroup group_of(trace::UserId user) const { return groups_[user]; }

  bool evaluated() const { return evaluated_; }
  util::TimePoint last_now() const { return last_now_; }
  EvalMode mode() const { return mode_; }
  /// Wall time spent in advance() on this instance — per instance, unlike
  /// the process-global registry spans, so two concurrent pipelines never
  /// bleed into each other's Fig. 12b numbers.
  double seconds() const { return seconds_; }

  std::size_t shard_count() const { return shards_; }
  /// The user-range partition (valid after the first advance).
  const ShardMap& shard_map() const { return map_; }
  /// How many segments the most recent advance ran.
  std::size_t shards_advanced() const { return shards_advanced_; }
  /// Per-segment stats from the most recent advance. A segment that slept
  /// through it reports zeros except users_skipped = its range size.
  const AdvanceStats& shard_stats(std::size_t shard) const {
    return segments_[shard].stats;
  }
  /// Users currently memoized as durably skippable.
  std::size_t frozen_users() const;

 private:
  struct Segment {
    trace::UserId begin = 0;
    trace::UserId end = 0;
    util::TimePoint last_now = 0;
    /// Users whose skip was established by durable (t_c-monotone)
    /// certificates: skipped without any recheck until they turn dirty.
    std::vector<std::uint8_t> frozen;  // dense by user id − begin
    std::size_t frozen_count = 0;      // set bits in frozen
    std::vector<trace::UserId> reeval;  // last advance's re-evaluations
    AdvanceStats stats;
  };

  /// The skip rule above: true when the cached evaluation `ua` provably
  /// equals a re-evaluation at `now`, given that none of the user's streams
  /// changed since. Sets `durable` when every certificate used is monotone
  /// in t_c (the skip then holds at every later trigger until the user
  /// turns dirty, so the segment memoizes it and never rechecks).
  bool skippable(const ActivityStore& store, const UserActiveness& ua,
                 util::TimePoint now, bool& durable) const;
  void ensure_segments(ActivityStore& store);
  void rebuild(ActivityStore& store, util::TimePoint now);
  bool wakes(std::size_t shard, const ActivityStore& store,
             util::TimePoint now) const;
  void advance_segment(std::size_t shard, ActivityStore& store,
                       const Evaluator& evaluator, util::TimePoint now);
  /// Splice the woken segments' re-evaluated users into plan_ and clear
  /// their reeval_flags_.
  void splice(std::size_t reevaluated);

  const ActivityCatalog* catalog_;
  EvaluationParams base_params_;
  EvalMode mode_;
  std::vector<ActivityTypeId> op_types_;
  std::vector<ActivityTypeId> oc_types_;
  std::size_t shards_;
  ShardMap map_;
  std::vector<Segment> segments_;

  bool evaluated_ = false;
  util::TimePoint last_now_ = 0;
  std::size_t shards_advanced_ = 0;
  double seconds_ = 0.0;

  std::vector<UserActiveness> users_;  // dense by user id
  std::vector<UserGroup> groups_;      // dense by user id
  ScanPlan plan_;

  // Per-advance scratch, kept across triggers so the delta path allocates
  // little in steady state. reeval_flags_ marks the users being
  // re-evaluated (dense by user id; all zero between advances).
  std::vector<std::uint8_t> reeval_flags_;
  std::vector<std::size_t> woken_;
  std::vector<UserActiveness> merge_scratch_;
};

}  // namespace adr::activeness
