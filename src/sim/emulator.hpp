#pragma once
// The trace-replay emulator (§4.1.3).
//
// A run seeds a Vfs from the scenario's initial snapshot, replays the replay
// year's application log day by day (accesses bump atimes; absent paths are
// *file misses*; creates add files), and fires the retention driver at every
// purge-trigger interval. Both policies are driven through the same loop so
// their miss series are directly comparable.
//
// ActivenessTimeline centralizes user evaluation during replay: each purge
// trigger advances the evaluation pipeline to that instant (see
// activeness/sharded.hpp — only users whose rank can have changed are
// re-ranked). ActiveDR consumes the scan plan; both policies' metrics
// attribute users to the same classification, so the per-group figures line
// up the way the paper's do.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "activeness/classifier.hpp"
#include "activeness/sharded.hpp"
#include "obs/metrics.hpp"
#include "fs/archive.hpp"
#include "retention/activedr_policy.hpp"
#include "retention/cache_policy.hpp"
#include "retention/flt.hpp"
#include "retention/value_policy.hpp"
#include "sim/metrics.hpp"
#include "synth/titan_model.hpp"

namespace adr::sim {

/// Re-evaluation of user activeness at successive replay instants, advanced
/// in place by the ShardedEvaluator pipeline. Only the *latest* scan plan is
/// held (repeated plan_at with the same t returns the same object); group
/// attribution history is a compact per-trigger group table, deduplicated
/// across triggers whose classification did not change — the timeline's
/// memory is bounded by the number of *distinct* classifications, not by
/// trigger count, and never retains old plans.
class ActivenessTimeline {
 public:
  /// `shards`: user-range shards the per-trigger evaluation fans out over
  /// (activeness/sharded.hpp; 0 = one per available thread). Plans/ranks
  /// are identical for every value.
  ActivenessTimeline(const activeness::ActivityCatalog& catalog,
                     activeness::ActivityStore store,
                     activeness::EvaluationParams base_params,
                     activeness::EvalMode mode =
                         activeness::EvalMode::kIncremental,
                     std::size_t shards = 0);

  /// Scan plan evaluated at `t`. The returned reference stays valid until
  /// the next plan_at call with a different `t` (which advances the
  /// pipeline in place).
  const activeness::ScanPlan& plan_at(util::TimePoint t);

  /// Group of `user` per the latest evaluation at or before `t`
  /// (Both-Inactive before any evaluation exists).
  activeness::UserGroup group_at(trace::UserId user, util::TimePoint t) const;

  /// Dense user -> group table of the latest evaluation at or before `t`,
  /// or nullptr before any evaluation. Callers attributing *many* users at
  /// one instant (end-of-year aggregation) fetch this once instead of
  /// paying the timeline map lookup per user.
  const std::vector<activeness::UserGroup>* group_lookup_at(
      util::TimePoint t) const;

  std::size_t user_count() const { return store_.user_count(); }
  /// Wall time this timeline spent evaluating (Fig. 12b probe). Per
  /// instance: two concurrent timelines each report only their own work.
  double eval_seconds() const { return pipeline_.seconds(); }

  activeness::EvalMode eval_mode() const { return pipeline_.mode(); }
  std::size_t eval_shards() const { return pipeline_.shard_count(); }
  /// Distinct group tables retained for historical attribution — the
  /// timeline's memory bound (evaluations whose classification matched the
  /// previous one are deduplicated away, and plans are never retained).
  std::size_t group_history_size() const { return group_history_.size(); }
  /// What the most recent plan_at advance did (delta sizes, skip counts).
  const activeness::AdvanceStats& last_advance() const {
    return last_advance_;
  }

  /// Build a timeline for a Titan scenario with the paper's two activity
  /// types (job submissions as operations, publications as outcomes).
  static ActivenessTimeline for_scenario(
      const synth::TitanScenario& scenario,
      activeness::EvaluationParams params,
      activeness::EvalMode mode = activeness::EvalMode::kIncremental,
      std::size_t shards = 0);

 private:
  const activeness::ActivityCatalog* catalog_;
  activeness::ActivityStore store_;
  activeness::ShardedEvaluator pipeline_;
  /// Group tables by evaluation instant; consecutive identical tables
  /// collapse into the earliest entry (lookups still resolve correctly —
  /// the collapsed entry has the same contents).
  std::map<util::TimePoint, std::vector<activeness::UserGroup>> group_history_;
  activeness::AdvanceStats last_advance_;
};

/// Policy adapter the replay loop drives.
class RetentionDriver {
 public:
  virtual ~RetentionDriver() = default;
  virtual std::string name() const = 0;
  virtual retention::PurgeReport trigger(fs::Vfs& vfs, util::TimePoint now,
                                         std::uint64_t target_bytes) = 0;
};

class FltDriver final : public RetentionDriver {
 public:
  FltDriver(retention::FltConfig config, ActivenessTimeline& timeline);
  std::string name() const override;
  retention::PurgeReport trigger(fs::Vfs& vfs, util::TimePoint now,
                                 std::uint64_t target_bytes) override;

 private:
  retention::FltPolicy policy_;
  ActivenessTimeline* timeline_;
};

class ActiveDrDriver final : public RetentionDriver {
 public:
  ActiveDrDriver(retention::ActiveDrConfig config,
                 const trace::UserRegistry& registry,
                 ActivenessTimeline& timeline);
  void set_exemptions(retention::ExemptionList exemptions);
  std::string name() const override;
  retention::PurgeReport trigger(fs::Vfs& vfs, util::TimePoint now,
                                 std::uint64_t target_bytes) override;

 private:
  retention::ActiveDrPolicy policy_;
  ActivenessTimeline* timeline_;
};

/// Value-based retention (§2's second family) through the replay loop.
class ValueDriver final : public RetentionDriver {
 public:
  ValueDriver(retention::ValueConfig config, ActivenessTimeline& timeline);
  std::string name() const override;
  retention::PurgeReport trigger(fs::Vfs& vfs, util::TimePoint now,
                                 std::uint64_t target_bytes) override;

 private:
  retention::ValuePolicy policy_;
  ActivenessTimeline* timeline_;
};

/// Scratch-as-a-cache (§2, Monti et al.) through the replay loop.
class ScratchCacheDriver final : public RetentionDriver {
 public:
  ScratchCacheDriver(retention::ScratchCacheConfig config,
                     ActivenessTimeline& timeline);
  std::string name() const override;
  retention::PurgeReport trigger(fs::Vfs& vfs, util::TimePoint now,
                                 std::uint64_t target_bytes) override;

 private:
  retention::ScratchCachePolicy policy_;
  ActivenessTimeline* timeline_;
};

struct EmulatorConfig {
  int purge_interval_days = 7;
  /// Purge target: utilization to reach, as a fraction of capacity
  /// (the paper uses 0.5). <= 0 disables the target — every trigger purges
  /// all expired files (strict FLT mode, Fig. 1).
  double purge_target_utilization = 0.5;
  /// Model the paper's "expensive re-transmission": after a miss the user
  /// restores the file from the archive tier, so later accesses hit again
  /// (each purge therefore costs one counted miss per revisited file, not
  /// an unbounded stream of repeats). On by default: the paper replays a
  /// *real* application log, which already embeds users' reactions to
  /// purges — a synthetic trace needs the feedback loop closed explicitly
  /// or every lost file is re-missed forever and the miss ratio diverges.
  /// Every purge flows into the archive either way; restores account their
  /// bytes and modeled wait time (EmulationResult::archive).
  bool restore_on_miss = true;
  /// Restore bandwidth/latency model for the archive tier.
  fs::ArchiveConfig archive;
  /// Consistency-check mode: after every purge trigger, cross-verify the
  /// Vfs's purge index against a full trie walk (Vfs::verify_purge_index).
  /// O(files) per trigger — for tests and debugging, not production runs.
  bool audit_purge_index = false;
  /// User-range shards for the trigger evaluations (activeness/sharded.hpp):
  /// 0 = one per available thread (max 16). Forwarded
  /// into the ActivenessTimeline by the experiment runners; identical
  /// plans and victims for every value.
  std::size_t eval_shards = 0;
};

/// Per-group aggregates over a whole emulation (the Fig. 9–11 numbers).
struct GroupAggregate {
  std::uint64_t purged_bytes = 0;
  std::size_t purged_files = 0;
  std::uint64_t retained_bytes = 0;  ///< final state
  std::size_t retained_files = 0;    ///< final state
  std::size_t unique_affected_users = 0;
  std::size_t users_in_group = 0;    ///< population at final evaluation
};

struct EmulationResult {
  std::string policy;
  std::vector<DailyMissStats> daily;
  std::vector<retention::PurgeReport> purges;
  std::array<GroupAggregate, activeness::kGroupCount> groups{};

  std::size_t total_accesses = 0;
  std::size_t total_misses = 0;
  std::uint64_t final_bytes = 0;
  std::size_t final_files = 0;

  /// Wall-time attribution, derived from metrics-registry span snapshots
  /// taken around the run ("emulator.replay" / "emulator.purge_trigger").
  double replay_seconds = 0.0;  ///< access replay wall time
  double purge_seconds = 0.0;   ///< retention (trigger) wall time

  /// Archive-tier accounting: what the year's purges displaced and what
  /// the misses cost to restore (bytes moved, modeled hours waited) — the
  /// §1/§2 re-transmission cost, quantified.
  fs::ArchiveStats archive;
};

class Emulator {
 public:
  Emulator(const synth::TitanScenario& scenario, EmulatorConfig config,
           ActivenessTimeline& timeline);

  /// Replay the scenario's year under the given policy driver.
  /// `target_utilization_override`, when >= 0, replaces the config's purge
  /// target for this run — the paper's comparison pits the facility's
  /// *strict* FLT (no target: every expired file goes) against ActiveDR
  /// purging to the 50% target and stopping there.
  EmulationResult run(RetentionDriver& driver,
                      double target_utilization_override = -1.0);

 private:
  const synth::TitanScenario* scenario_;
  EmulatorConfig config_;
  ActivenessTimeline* timeline_;
};

}  // namespace adr::sim
