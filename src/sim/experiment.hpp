#pragma once
// Paper-experiment runner: wires a Titan scenario, an activeness timeline,
// and the two policies into the §4 evaluation procedure, so every bench
// binary is a thin printer over one of these runs.

#include "sim/emulator.hpp"

namespace adr::sim {

struct ExperimentConfig {
  /// File lifetime == activeness period length d (the paper sweeps one knob
  /// for both: 7 / 30 / 60 / 90).
  int lifetime_days = 90;
  int purge_interval_days = 7;
  /// Utilization ActiveDR's purge must reach (fraction of capacity); <= 0
  /// disables the target.
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
  activeness::StaleHandling stale = activeness::StaleHandling::kClampOldest;
  int max_periods = 0;
  /// How the timeline re-evaluates at each trigger (delta-aware by default;
  /// kFull re-ranks everyone — the reference oracle). Full and incremental
  /// are result-identical.
  activeness::EvalMode eval_mode = activeness::EvalMode::kIncremental;
  /// User-range shards for the trigger evaluations (0 = one per available
  /// thread; identical results for every value).
  std::size_t eval_shards = 0;

  /// Optional reserved paths (purge exemption) applied to ActiveDR runs.
  std::vector<std::string> exempt_paths;
};

activeness::EvaluationParams evaluation_params(const ExperimentConfig& config);

/// A full FLT-vs-ActiveDR comparison on one scenario (both replays share one
/// activeness timeline, so classifications — and thus per-group metrics —
/// are identical across the two runs).
struct ComparisonResult {
  EmulationResult flt;
  EmulationResult activedr;
  /// Users per group at the final evaluation (G1..G4 order).
  std::array<std::size_t, activeness::kGroupCount> final_group_counts{};
};

ComparisonResult run_comparison(const synth::TitanScenario& scenario,
                                const ExperimentConfig& config);

/// FLT alone in strict mode (no purge target) — the Fig. 1 setup.
EmulationResult run_flt_strict(const synth::TitanScenario& scenario,
                               const ExperimentConfig& config);

/// The §4.4 experiment behind Figs. 9-11 and Tables 4-6: take the scratch
/// state as of `as_of` (the paper uses the last weekly snapshot it has,
/// 2016-08-23), run ONE retention pass per policy — both driven to the same
/// purge target — and compare what each retains/purges per group. FLT
/// purges expired files in system scan order until the target; ActiveDR
/// runs its full prioritized procedure.
struct SnapshotRetentionResult {
  retention::PurgeReport flt;
  retention::PurgeReport activedr;
  std::array<std::size_t, activeness::kGroupCount> group_counts{};
};

SnapshotRetentionResult run_snapshot_retention(
    const synth::TitanScenario& scenario, const ExperimentConfig& config,
    util::TimePoint as_of);

/// Scratch state at `as_of`: the initial snapshot plus the replay up to that
/// instant under the facility's own strict FLT process (the same process
/// that produced the initial snapshot).
fs::Vfs build_state_at(const synth::TitanScenario& scenario,
                       util::TimePoint as_of, int facility_lifetime_days = 90,
                       int purge_interval_days = 7);

/// ActiveDR alone (e.g. for ablation sweeps).
EmulationResult run_activedr(const synth::TitanScenario& scenario,
                             const ExperimentConfig& config);

}  // namespace adr::sim
