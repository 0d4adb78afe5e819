// The paper-experiment harnesses: year-replay comparison semantics,
// restore-on-miss, state reconstruction, and the §4.4 one-shot snapshot
// retention.

#include "sim/experiment.hpp"

#include <gtest/gtest.h>

namespace adr::sim {
namespace {

synth::TitanParams tiny_params() {
  synth::TitanParams p;
  p.users = 150;
  p.seed = 77;
  return p;
}

class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new synth::TitanScenario(
        synth::build_titan_scenario(tiny_params()));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const synth::TitanScenario* scenario_;
};

const synth::TitanScenario* ExperimentTest::scenario_ = nullptr;

TEST_F(ExperimentTest, StrictFltPurgesAtLeastAsMuchAsTargeted) {
  ExperimentConfig strict;
  strict.flt_strict = true;
  ExperimentConfig merciful = strict;
  merciful.flt_strict = false;
  const ComparisonResult a = run_comparison(*scenario_, strict);
  const ComparisonResult b = run_comparison(*scenario_, merciful);
  std::uint64_t purged_strict = 0, purged_merciful = 0;
  for (const auto& g : a.flt.groups) purged_strict += g.purged_bytes;
  for (const auto& g : b.flt.groups) purged_merciful += g.purged_bytes;
  EXPECT_GE(purged_strict, purged_merciful);
  // The ActiveDR side is unaffected by the FLT mode.
  EXPECT_EQ(a.activedr.total_misses, b.activedr.total_misses);
}

TEST_F(ExperimentTest, RestoreOnMissBoundsRepeatMisses) {
  ExperimentConfig with, without;
  with.restore_on_miss = true;
  without.restore_on_miss = false;
  const EmulationResult restored = run_flt_strict(*scenario_, with);
  const EmulationResult unrestored = run_flt_strict(*scenario_, without);

  EXPECT_EQ(restored.total_accesses, unrestored.total_accesses);
  EXPECT_LT(restored.total_misses, unrestored.total_misses);
  // Restores keep data around.
  EXPECT_GE(restored.final_files, unrestored.final_files);
}

TEST_F(ExperimentTest, BuildStateAtIsMonotonicInTime) {
  const util::TimePoint mid = scenario_->sim_begin + util::days(60);
  const fs::Vfs early = build_state_at(*scenario_, mid);
  const fs::Vfs late =
      build_state_at(*scenario_, scenario_->sim_begin + util::days(200));
  EXPECT_GT(early.file_count(), 0u);
  EXPECT_GT(late.file_count(), 0u);
  // No file in the state may look newer than the probe instant.
  early.for_each([&](const std::string&, const fs::FileMeta& meta) {
    EXPECT_LE(meta.atime, mid);
  });
  // The facility FLT keeps running: nothing older than ~90 days +
  // trigger interval survives.
  early.for_each([&](const std::string&, const fs::FileMeta& meta) {
    EXPECT_LE(mid - meta.atime, util::days(98));
  });
}

TEST_F(ExperimentTest, SnapshotRetentionMeetsSharedTarget) {
  ExperimentConfig config;
  const util::TimePoint as_of = util::from_civil(2016, 8, 23);
  const SnapshotRetentionResult result =
      run_snapshot_retention(*scenario_, config, as_of);

  // Both policies chased the same target.
  EXPECT_EQ(result.flt.target_purge_bytes, result.activedr.target_purge_bytes);
  EXPECT_GT(result.flt.target_purge_bytes, 0u);

  std::size_t total = 0;
  for (const auto n : result.group_counts) total += n;
  EXPECT_EQ(total, scenario_->registry.size());
}

TEST_F(ExperimentTest, SnapshotRetentionSelectionProperties) {
  // The defining selection behaviour, independent of whether the (very
  // aggressive) 50%-of-usage target is reachable at this scale:
  //  * ActiveDR's retrospective passes dig at least as deep as FLT's
  //    expired-only scan;
  //  * the extra digging lands on Both-Inactive, never reducing its share;
  //  * the active groups keep at least as much data as under FLT.
  ExperimentConfig config;
  const util::TimePoint as_of = util::from_civil(2016, 8, 23);
  const SnapshotRetentionResult result =
      run_snapshot_retention(*scenario_, config, as_of);

  EXPECT_GE(result.activedr.purged_bytes, result.flt.purged_bytes);
  EXPECT_GE(result.activedr.group(activeness::UserGroup::kBothInactive)
                .purged_bytes,
            result.flt.group(activeness::UserGroup::kBothInactive)
                .purged_bytes);
  // Active-group protection holds whenever the target was servable from
  // the inactive side; with an unreachable target §3.4 decays *every*
  // group, so the guarantee is conditional by design.
  if (result.activedr.target_reached) {
    std::uint64_t adr_active_retained = 0, flt_active_retained = 0;
    for (std::size_t g = 0; g < 3; ++g) {
      adr_active_retained += result.activedr.by_group[g].retained_bytes;
      flt_active_retained += result.flt.by_group[g].retained_bytes;
    }
    EXPECT_GE(adr_active_retained, flt_active_retained);
  }
}

TEST_F(ExperimentTest, SnapshotRetentionIsDeterministic) {
  ExperimentConfig config;
  const util::TimePoint as_of = util::from_civil(2016, 8, 23);
  const auto a = run_snapshot_retention(*scenario_, config, as_of);
  const auto b = run_snapshot_retention(*scenario_, config, as_of);
  EXPECT_EQ(a.flt.purged_bytes, b.flt.purged_bytes);
  EXPECT_EQ(a.activedr.purged_bytes, b.activedr.purged_bytes);
}

TEST_F(ExperimentTest, ServiceConfigMirrorsExperimentConfig) {
  ExperimentConfig config;
  config.lifetime_days = 30;
  config.purge_target_utilization = 0.4;
  config.retrospective_passes = 3;
  config.retrospective_decay = 0.5;
  config.lifetime_mode = activeness::LifetimeMode::kLiteralEq7;
  config.scheme = activeness::ExponentScheme::kUniform;
  config.max_periods = 12;
  config.eval_mode = activeness::EvalMode::kFull;
  config.eval_shards = 3;
  const core::ServiceConfig service = service_config(config);
  EXPECT_EQ(service.lifetime_days, 30);
  EXPECT_EQ(service.purge_target_utilization, 0.4);
  EXPECT_EQ(service.retrospective_passes, 3);
  EXPECT_EQ(service.retrospective_decay, 0.5);
  EXPECT_EQ(service.lifetime_mode, activeness::LifetimeMode::kLiteralEq7);
  EXPECT_EQ(service.scheme, activeness::ExponentScheme::kUniform);
  EXPECT_EQ(service.max_periods, 12);
  EXPECT_EQ(service.eval_mode, activeness::EvalMode::kFull);
  EXPECT_EQ(service.eval_shards, 3u);
  // Per-run execution knobs stay at the Service defaults.
  const core::ServiceConfig defaults;
  EXPECT_EQ(service.scan_mode, defaults.scan_mode);
  EXPECT_EQ(service.dry_run, defaults.dry_run);
  EXPECT_EQ(service.record_victims, defaults.record_victims);
}

TEST_F(ExperimentTest, ExemptPathsSurviveActiveDrReplay) {
  // Reserve one specific snapshot file; after a year of ActiveDR purges it
  // must still exist.
  ASSERT_FALSE(scenario_->snapshot.empty());
  const std::string& precious = scenario_->snapshot.entries().front().path;
  ExperimentConfig config;
  config.exempt_paths.push_back(precious);
  const EmulationResult result = run_activedr(*scenario_, config);
  std::size_t exempted = 0;
  for (const auto& report : result.purges) exempted += report.exempted_files;
  EXPECT_GT(exempted, 0u);
}

}  // namespace
}  // namespace adr::sim
