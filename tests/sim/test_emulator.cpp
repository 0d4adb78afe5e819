#include "sim/emulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace adr::sim {
namespace {

synth::TitanParams tiny_params() {
  synth::TitanParams p;
  p.users = 120;
  p.seed = 21;
  return p;
}

class EmulatorTest : public ::testing::Test {
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

const synth::TitanScenario* EmulatorTest::scenario_ = nullptr;

TEST_F(EmulatorTest, ServiceGroupOfUsesLatestEvaluation) {
  core::Service service(scenario_->registry, service_config({}));
  ingest_scenario(service, *scenario_);
  // Before any evaluation: everything is Both-Inactive.
  EXPECT_EQ(service.group_of(0), activeness::UserGroup::kBothInactive);
  service.evaluate(scenario_->sim_begin);
  std::array<std::size_t, activeness::kGroupCount> counts{};
  for (trace::UserId u = 0; u < scenario_->registry.size(); ++u) {
    EXPECT_EQ(service.group_of(u),
              activeness::classify(service.activeness_of(u)));
    ++counts[static_cast<std::size_t>(service.group_of(u))];
  }
  EXPECT_EQ(counts, service.group_counts());
  // Ids outside the registry fall back to Both-Inactive.
  EXPECT_EQ(service.group_of(
                static_cast<trace::UserId>(scenario_->registry.size())),
            activeness::UserGroup::kBothInactive);
}

TEST_F(EmulatorTest, StrictFltReplayProducesMisses) {
  ExperimentConfig config;
  config.lifetime_days = 90;
  const EmulationResult r = run_flt_strict(*scenario_, config);
  EXPECT_GT(r.total_accesses, 0u);
  EXPECT_GT(r.total_misses, 0u);
  EXPECT_LT(r.total_misses, r.total_accesses);
  EXPECT_EQ(r.daily.size(), 366u);
  EXPECT_FALSE(r.purges.empty());
  // ~52 weekly triggers in a year.
  EXPECT_GE(r.purges.size(), 50u);
  EXPECT_LE(r.purges.size(), 53u);
}

TEST_F(EmulatorTest, ComparisonSharesClassifications) {
  ExperimentConfig config;
  const ComparisonResult result = run_comparison(*scenario_, config);
  std::size_t total = 0;
  for (const auto n : result.final_group_counts) total += n;
  EXPECT_EQ(total, scenario_->registry.size());
  // The inactive group dominates (Fig. 5's skew).
  EXPECT_GT(result.final_group_counts[static_cast<std::size_t>(
                activeness::UserGroup::kBothInactive)],
            scenario_->registry.size() / 2);
  EXPECT_EQ(result.flt.daily.size(), result.activedr.daily.size());
}

TEST_F(EmulatorTest, PurgeTargetHoldsUtilization) {
  ExperimentConfig config;
  config.purge_target_utilization = 0.5;
  const EmulationResult r = run_activedr(*scenario_, config);
  // After the year of weekly purges, usage must sit at/below ~50% of
  // capacity plus whatever was created since the last trigger.
  const double util =
      static_cast<double>(r.final_bytes) /
      static_cast<double>(scenario_->capacity_bytes);
  EXPECT_LT(util, 0.75);
  for (const auto& report : r.purges) {
    if (report.target_purge_bytes > 0 && report.target_reached) {
      EXPECT_GE(report.purged_bytes, report.target_purge_bytes);
    }
  }
}

TEST_F(EmulatorTest, AggregatesAreConsistent) {
  ExperimentConfig config;
  const EmulationResult r = run_activedr(*scenario_, config);
  std::uint64_t purged_from_groups = 0;
  std::uint64_t purged_from_reports = 0;
  for (const auto& g : r.groups) purged_from_groups += g.purged_bytes;
  for (const auto& report : r.purges) purged_from_reports += report.purged_bytes;
  EXPECT_EQ(purged_from_groups, purged_from_reports);

  std::uint64_t retained = 0;
  for (const auto& g : r.groups) retained += g.retained_bytes;
  EXPECT_EQ(retained, r.final_bytes);

  std::size_t users = 0;
  for (const auto& g : r.groups) users += g.users_in_group;
  EXPECT_EQ(users, scenario_->registry.size());
}

TEST_F(EmulatorTest, DeterministicAcrossRuns) {
  ExperimentConfig config;
  const EmulationResult a = run_activedr(*scenario_, config);
  const EmulationResult b = run_activedr(*scenario_, config);
  EXPECT_EQ(a.total_misses, b.total_misses);
  EXPECT_EQ(a.final_bytes, b.final_bytes);
  EXPECT_EQ(a.purges.size(), b.purges.size());
}

TEST_F(EmulatorTest, AuditModeFindsIndexConsistentAllYear) {
  // audit_purge_index cross-verifies the purge index against a trie walk
  // after every trigger; a year of replay with ~52 purges must log zero
  // failures.
  ExperimentConfig config;
  config.audit_purge_index = true;
  obs::Counter& failures =
      obs::MetricsRegistry::global().counter("purge_index.audit_failures");
  const std::uint64_t before = failures.value();
  const EmulationResult r = run_activedr(*scenario_, config);
  EXPECT_FALSE(r.purges.empty());
  EXPECT_EQ(failures.value(), before);
}

void expect_same_report(const retention::PurgeReport& a,
                        const retention::PurgeReport& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.when, b.when);
  EXPECT_EQ(a.target_purge_bytes, b.target_purge_bytes);
  EXPECT_EQ(a.purged_bytes, b.purged_bytes);
  EXPECT_EQ(a.purged_files, b.purged_files);
  EXPECT_EQ(a.target_reached, b.target_reached);
  EXPECT_EQ(a.retrospective_passes_used, b.retrospective_passes_used);
  EXPECT_EQ(a.exempted_files, b.exempted_files);
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    EXPECT_EQ(a.by_group[g].purged_bytes, b.by_group[g].purged_bytes);
    EXPECT_EQ(a.by_group[g].retained_bytes, b.by_group[g].retained_bytes);
    EXPECT_EQ(a.by_group[g].purged_files, b.by_group[g].purged_files);
    EXPECT_EQ(a.by_group[g].retained_files, b.by_group[g].retained_files);
    EXPECT_EQ(a.by_group[g].users_affected, b.by_group[g].users_affected);
    EXPECT_EQ(a.by_group[g].users_total, b.by_group[g].users_total);
  }
  EXPECT_EQ(a.affected_users, b.affected_users);
  EXPECT_EQ(a.dry_run, b.dry_run);
  EXPECT_EQ(a.victim_paths, b.victim_paths);
}

TEST_F(EmulatorTest, EvalModesProduceIdenticalReportsForBothPolicies) {
  // The pipeline's headline guarantee, end to end: a year of replay under
  // full re-evaluation and under delta-aware evaluation yields the same
  // PurgeReport at every trigger, for FLT and ActiveDR alike.
  ExperimentConfig full_config;
  full_config.eval_mode = activeness::EvalMode::kFull;
  ExperimentConfig inc_config;
  inc_config.eval_mode = activeness::EvalMode::kIncremental;
  const ComparisonResult full = run_comparison(*scenario_, full_config);
  const ComparisonResult inc = run_comparison(*scenario_, inc_config);

  ASSERT_EQ(full.flt.purges.size(), inc.flt.purges.size());
  for (std::size_t i = 0; i < full.flt.purges.size(); ++i) {
    expect_same_report(full.flt.purges[i], inc.flt.purges[i]);
  }
  ASSERT_EQ(full.activedr.purges.size(), inc.activedr.purges.size());
  for (std::size_t i = 0; i < full.activedr.purges.size(); ++i) {
    expect_same_report(full.activedr.purges[i], inc.activedr.purges[i]);
  }
  EXPECT_EQ(full.final_group_counts, inc.final_group_counts);
  EXPECT_EQ(full.flt.total_misses, inc.flt.total_misses);
  EXPECT_EQ(full.activedr.total_misses, inc.activedr.total_misses);
  EXPECT_EQ(full.flt.final_bytes, inc.flt.final_bytes);
  EXPECT_EQ(full.activedr.final_bytes, inc.activedr.final_bytes);
}

void expect_same_result(const EmulationResult& a, const EmulationResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  ASSERT_EQ(a.daily.size(), b.daily.size());
  for (std::size_t d = 0; d < a.daily.size(); ++d) {
    SCOPED_TRACE("day " + std::to_string(d));
    EXPECT_EQ(a.daily[d].day, b.daily[d].day);
    EXPECT_EQ(a.daily[d].accesses, b.daily[d].accesses);
    EXPECT_EQ(a.daily[d].misses, b.daily[d].misses);
    EXPECT_EQ(a.daily[d].misses_by_group, b.daily[d].misses_by_group);
    EXPECT_EQ(a.daily[d].accesses_by_group, b.daily[d].accesses_by_group);
  }
  ASSERT_EQ(a.purges.size(), b.purges.size());
  for (std::size_t i = 0; i < a.purges.size(); ++i) {
    expect_same_report(a.purges[i], b.purges[i]);
  }
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    EXPECT_EQ(a.groups[g].purged_bytes, b.groups[g].purged_bytes);
    EXPECT_EQ(a.groups[g].purged_files, b.groups[g].purged_files);
    EXPECT_EQ(a.groups[g].retained_bytes, b.groups[g].retained_bytes);
    EXPECT_EQ(a.groups[g].retained_files, b.groups[g].retained_files);
    EXPECT_EQ(a.groups[g].unique_affected_users,
              b.groups[g].unique_affected_users);
    EXPECT_EQ(a.groups[g].users_in_group, b.groups[g].users_in_group);
  }
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.total_misses, b.total_misses);
  EXPECT_EQ(a.final_bytes, b.final_bytes);
  EXPECT_EQ(a.final_files, b.final_files);
  EXPECT_EQ(a.archive.archived_bytes, b.archive.archived_bytes);
  EXPECT_EQ(a.archive.archived_files, b.archive.archived_files);
  EXPECT_EQ(a.archive.restored_bytes, b.archive.restored_bytes);
  EXPECT_EQ(a.archive.restore_count, b.archive.restore_count);
  EXPECT_EQ(a.archive.restore_misses, b.archive.restore_misses);
  EXPECT_EQ(a.archive.restore_hours, b.archive.restore_hours);
}

TEST_F(EmulatorTest, ActiveDrAloneMatchesComparisonRun) {
  // Both runs classify at every weekly trigger, fired or skipped, so the
  // standalone run attributes each miss to the same group as the
  // comparison's ActiveDR side. On this scenario some triggers find
  // utilization already under target and skip their purge.
  ExperimentConfig config;
  const EmulationResult alone = run_activedr(*scenario_, config);
  const ComparisonResult both = run_comparison(*scenario_, config);
  EXPECT_LT(alone.purges.size(), both.flt.purges.size());
  expect_same_result(alone, both.activedr);
}

TEST_F(EmulatorTest, ActiveDrReducesMissesForActiveUsers) {
  // The headline claim, at test scale: ActiveDR must not miss *more* than
  // FLT overall for the active groups combined.
  ExperimentConfig config;
  const ComparisonResult result = run_comparison(*scenario_, config);
  auto active_misses = [](const EmulationResult& r) {
    std::size_t n = 0;
    for (const auto& d : r.daily) {
      n += d.misses_by_group[0] + d.misses_by_group[1] + d.misses_by_group[2];
    }
    return n;
  };
  EXPECT_LE(active_misses(result.activedr), active_misses(result.flt));
}

}  // namespace
}  // namespace adr::sim
