#include "retention/flt.hpp"

#include <gtest/gtest.h>

#include "retention/policy.hpp"

namespace adr::retention {
namespace {

constexpr util::TimePoint kNow = 1'600'000'000;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  return m;
}

TEST(PurgeTarget, ComputesDeficit) {
  fs::Vfs vfs;
  vfs.create("/a/x", meta(0, 1000, 1));
  vfs.set_capacity_bytes(1000);
  EXPECT_EQ(purge_target_bytes(vfs, 0.5), 500u);
  EXPECT_EQ(purge_target_bytes(vfs, 1.0), 0u);
  EXPECT_EQ(purge_target_bytes(vfs, 0.0), 1000u);
}

TEST(PurgeTarget, ZeroWhenUnderTarget) {
  fs::Vfs vfs;
  vfs.create("/a/x", meta(0, 100, 1));
  vfs.set_capacity_bytes(1000);
  EXPECT_EQ(purge_target_bytes(vfs, 0.5), 0u);
}

TEST(PurgeTarget, RetainFractionOfCurrentUsage) {
  fs::Vfs empty;
  EXPECT_EQ(retain_target_bytes(empty, 0.5), 0u);
  fs::Vfs vfs;
  vfs.create("/a/x", meta(0, 1000, 1));
  vfs.set_capacity_bytes(4000);  // capacity plays no part
  EXPECT_EQ(retain_target_bytes(vfs, 0.0), 0u);  // no byte target
  EXPECT_EQ(retain_target_bytes(vfs, 0.5), 500u);
  EXPECT_EQ(retain_target_bytes(vfs, 1.0), 0u);
}

TEST(Flt, StrictPurgesAllExpired) {
  fs::Vfs vfs;
  vfs.create("/s/u0/old1", meta(0, 10, 100));
  vfs.create("/s/u0/old2", meta(0, 20, 91));
  vfs.create("/s/u0/fresh", meta(0, 30, 89));
  const FltPolicy flt(FltConfig{90});
  const PurgeReport report = flt.run(vfs, kNow, 0);
  EXPECT_EQ(report.purged_files, 2u);
  EXPECT_EQ(report.purged_bytes, 30u);
  EXPECT_TRUE(report.target_reached);
  EXPECT_TRUE(vfs.exists("/s/u0/fresh"));
  EXPECT_FALSE(vfs.exists("/s/u0/old1"));
}

TEST(Flt, LifetimeBoundaryIsStrictlyGreater) {
  fs::Vfs vfs;
  vfs.create("/s/u0/edge", meta(0, 10, 90));  // age == lifetime: retained
  const FltPolicy flt(FltConfig{90});
  flt.run(vfs, kNow, 0);
  EXPECT_TRUE(vfs.exists("/s/u0/edge"));
}

TEST(Flt, StopsAtTarget) {
  fs::Vfs vfs;
  for (int i = 0; i < 10; ++i) {
    vfs.create("/s/u0/f" + std::to_string(i), meta(0, 100, 200));
  }
  const FltPolicy flt(FltConfig{90});
  const PurgeReport report = flt.run(vfs, kNow, 250);
  EXPECT_EQ(report.purged_files, 3u);  // 100+100+100 >= 250
  EXPECT_EQ(report.purged_bytes, 300u);
  EXPECT_TRUE(report.target_reached);
  EXPECT_EQ(vfs.file_count(), 7u);
}

TEST(Flt, TargetUnreachableWhenNothingExpired) {
  fs::Vfs vfs;
  vfs.create("/s/u0/fresh1", meta(0, 100, 1));
  vfs.create("/s/u0/fresh2", meta(0, 100, 2));
  const FltPolicy flt(FltConfig{90});
  const PurgeReport report = flt.run(vfs, kNow, 150);
  EXPECT_FALSE(report.target_reached);
  EXPECT_EQ(report.purged_files, 0u);
  EXPECT_EQ(vfs.file_count(), 2u);  // FLT never touches unexpired files
}

TEST(Flt, ReportGroupsViaCallback) {
  fs::Vfs vfs;
  vfs.create("/s/u0/old", meta(0, 10, 100));
  vfs.create("/s/u1/old", meta(1, 20, 100));
  vfs.create("/s/u1/fresh", meta(1, 40, 1));
  FltPolicy flt(FltConfig{90});
  flt.set_group_of([](trace::UserId u) {
    return u == 0 ? activeness::UserGroup::kBothActive
                  : activeness::UserGroup::kBothInactive;
  });
  const PurgeReport report = flt.run(vfs, kNow, 0);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothActive).purged_bytes,
            10u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothInactive).purged_bytes,
            20u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothInactive).retained_bytes,
            40u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothActive).users_affected,
            1u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothActive).users_total, 1u);
  EXPECT_EQ(report.total_users_affected(), 2u);
  ASSERT_EQ(report.affected_users.size(), 2u);
}

TEST(Flt, DryRunSelectsWithoutDeleting) {
  fs::Vfs vfs;
  vfs.create("/s/u0/old", meta(0, 10, 100));
  vfs.create("/s/u0/fresh", meta(0, 30, 1));
  FltConfig config;
  config.lifetime_days = 90;
  config.dry_run = true;
  const FltPolicy flt(config);
  const PurgeReport report = flt.run(vfs, kNow, 0);
  EXPECT_TRUE(report.dry_run);
  EXPECT_EQ(report.purged_files, 1u);
  ASSERT_EQ(report.victim_paths.size(), 1u);
  EXPECT_EQ(report.victim_paths[0], "/s/u0/old");
  EXPECT_EQ(vfs.file_count(), 2u);  // untouched
}

TEST(Flt, RecordVictimsOnRealRun) {
  fs::Vfs vfs;
  vfs.create("/s/u0/old", meta(0, 10, 100));
  FltConfig config;
  config.record_victims = true;
  const FltPolicy flt(config);
  const PurgeReport report = flt.run(vfs, kNow, 0);
  EXPECT_FALSE(report.dry_run);
  ASSERT_EQ(report.victim_paths.size(), 1u);
  EXPECT_FALSE(vfs.exists("/s/u0/old"));
}

TEST(Flt, FacilityPresets) {
  EXPECT_EQ(FltConfig::ncar().lifetime_days, 120);
  EXPECT_EQ(FltConfig::olcf().lifetime_days, 90);
  EXPECT_EQ(FltConfig::tacc().lifetime_days, 30);
  EXPECT_EQ(FltConfig::nersc().lifetime_days, 84);
}

TEST(Flt, NameEncodesLifetime) {
  EXPECT_EQ(FltPolicy(FltConfig{30}).name(), "FLT-30d");
}

TEST(FillStats, RetainedByGroup) {
  fs::Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 10, 1));
  vfs.create("/s/u1/b", meta(1, 20, 1));
  PurgeReport report;
  fill_retained_stats(report, vfs, [](trace::UserId u) {
    return u == 0 ? activeness::UserGroup::kBothActive
                  : activeness::UserGroup::kOutcomeActiveOnly;
  });
  EXPECT_EQ(report.group(activeness::UserGroup::kBothActive).retained_bytes,
            10u);
  EXPECT_EQ(
      report.group(activeness::UserGroup::kOutcomeActiveOnly).retained_files,
      1u);
  EXPECT_EQ(report.total_retained_bytes(), 30u);
}

}  // namespace
}  // namespace adr::retention
