#pragma once
// Paper-experiment runner: wires a Titan scenario, a core::Service per run,
// and the two policies into the §4 evaluation procedure, so every bench
// binary is a thin printer over one of these runs.

#include "sim/emulator.hpp"

namespace adr::sim {

/// A full FLT-vs-ActiveDR comparison on one scenario. Each replay evaluates
/// at every trigger instant, so classifications — and thus per-group
/// metrics — are identical across the two runs.
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

/// ActiveDR alone (e.g. for ablation sweeps); field for field the same
/// result as run_comparison(...).activedr.
EmulationResult run_activedr(const synth::TitanScenario& scenario,
                             const ExperimentConfig& config);

}  // namespace adr::sim
