#pragma once
// The trace-replay emulator (§4.1.3).
//
// A run builds one core::Service from the scenario — the paper's two
// activity types fed from its job and publication logs, the initial
// snapshot at the scenario's capacity — and replays the replay year's
// application log on service.vfs(): accesses bump atimes, absent paths are
// *file misses*, creates add files. At every purge-trigger instant the run
// evaluates the Service (only users whose rank can have changed are
// re-ranked; activeness/sharded.hpp) and then fires the policy's purge
// step, unless utilization already sits under the target. Every run
// therefore classifies users at the same weekly instants whatever its
// policy, so per-group miss series of different runs line up the way the
// paper's do.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "fs/archive.hpp"
#include "sim/metrics.hpp"
#include "synth/titan_model.hpp"

namespace adr::sim {

struct ExperimentConfig {
  /// File lifetime == activeness period length d (the paper sweeps one knob
  /// for both: 7 / 30 / 60 / 90).
  int lifetime_days = 90;
  int purge_interval_days = 7;
  /// Utilization each purge must reach (fraction of capacity); <= 0
  /// disables the target — every trigger purges all expired files (strict
  /// FLT mode, Fig. 1).
  double purge_target_utilization = 0.5;

  /// The FLT side of run_comparison: true (default, the paper's setup) runs
  /// the facility's strict FLT — every expired file is purged at every
  /// trigger, no byte target. False gives FLT the same stop-at-target
  /// mercy as ActiveDR (a what-if the ablation benches can probe).
  bool flt_strict = true;

  // ActiveDR knobs (§3.4 defaults).
  int retrospective_passes = 5;
  double retrospective_decay = 0.20;
  activeness::LifetimeMode lifetime_mode =
      activeness::LifetimeMode::kActiveCategoriesOnly;
  activeness::ExponentScheme scheme =
      activeness::ExponentScheme::kPaperExponent;
  int max_periods = 0;
  /// How the Service re-evaluates at each trigger (delta-aware by default;
  /// kFull re-ranks everyone — the reference oracle). Full and incremental
  /// are result-identical.
  activeness::EvalMode eval_mode = activeness::EvalMode::kIncremental;
  /// User-range shards for the trigger evaluations (0 = one per available
  /// thread; identical results for every value).
  std::size_t eval_shards = 0;

  /// Optional reserved paths (purge exemption) applied to ActiveDR runs.
  std::vector<std::string> exempt_paths;

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
  /// Consistency-check mode: after every purge trigger, cross-verify the
  /// Vfs's purge index against a full trie walk (Vfs::verify_purge_index).
  /// O(files) per trigger — for tests and debugging, not production runs.
  bool audit_purge_index = false;
};

/// The one ExperimentConfig -> Service mapping every run uses: Eq. 1–7 and
/// the retrospective knobs, the purge target and the evaluation fan-out.
core::ServiceConfig service_config(const ExperimentConfig& config);

/// Register the paper's two activity types on a fresh `service` and feed it
/// the scenario's job submissions (operations) and publications (outcomes)
/// at weight 1.0.
void ingest_scenario(core::Service& service,
                     const synth::TitanScenario& scenario);

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

  /// Archive-tier accounting: what the year's purges displaced and what
  /// the misses cost to restore (bytes moved, modeled hours waited) — the
  /// §1/§2 re-transmission cost, quantified.
  fs::ArchiveStats archive;
};

/// One trigger's retention step: purge `service.vfs()` at `now`, freeing at
/// least `target_bytes` (0 = no target). The Service has already been
/// evaluated at `now`.
using PurgeStep = std::function<retention::PurgeReport(
    core::Service& service, util::TimePoint now, std::uint64_t target_bytes)>;

/// Replay the scenario's year with `step` at every trigger that has work
/// (config.purge_target_utilization <= 0: every trigger). `policy` names
/// the result. Wall time lands in the `emulator.replay` and
/// `emulator.purge_trigger` spans.
EmulationResult emulate(const synth::TitanScenario& scenario,
                        const ExperimentConfig& config, std::string policy,
                        const PurgeStep& step);

}  // namespace adr::sim
