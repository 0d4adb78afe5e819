// Walk vs indexed scan equivalence (DESIGN.md "Purge index"): both modes of
// ActiveDrPolicy must produce byte-identical PurgeReports — same victims, in
// the same order, with the same accounting, and the same exempted_files
// count (an exempt file counts once per scanned group, only when expired at
// the group's widest fully-decayed cutoff) — across targets, retrospective
// passes, and randomized file populations. The only sanctioned difference
// is the phase wall times. FLT has no walk mode: its runs are checked against
// a namespace-walk oracle, with and without a residency budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "activeness/classifier.hpp"
#include "core/service.hpp"
#include "retention/activedr_policy.hpp"
#include "retention/flt.hpp"
#include "trace/user_registry.hpp"
#include "util/rng.hpp"

namespace adr::retention {
namespace {

using activeness::Rank;
using activeness::ScanPlan;
using activeness::UserActiveness;

constexpr util::TimePoint kNow = 1'600'000'000;
constexpr std::size_t kUsers = 12;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  return m;
}

UserActiveness ua(trace::UserId user, double op, double oc) {
  UserActiveness u;
  u.user = user;
  u.op = Rank::from_value(op);
  u.oc = Rank::from_value(oc);
  return u;
}

/// Randomized population: files of mixed ages/sizes per user, some users in
/// every activeness group, plus a stream of overwrites and removes so the
/// index has seen every maintenance path before the policies run.
void populate(fs::Vfs& vfs, const trace::UserRegistry& registry,
              util::Rng& rng) {
  vfs.set_removal_sink([](const std::string&, const fs::FileMeta&) {});
  for (trace::UserId u = 0; u < kUsers; ++u) {
    const std::string home = registry.home_dir(u);
    const int files = static_cast<int>(rng.uniform_int(5, 40));
    for (int i = 0; i < files; ++i) {
      vfs.create(home + "/f" + std::to_string(i),
                 meta(u, static_cast<std::uint64_t>(rng.uniform_int(1, 500)),
                      rng.uniform(0.0, 400.0)));
    }
    // Overwrites (atime/size churn) and removes on a random sample.
    for (int i = 0; i < files / 4; ++i) {
      const std::string path =
          home + "/f" + std::to_string(rng.uniform_int(0, files - 1));
      if (rng.uniform() < 0.5) {
        vfs.create(path,
                   meta(u, static_cast<std::uint64_t>(rng.uniform_int(1, 500)),
                        rng.uniform(0.0, 400.0)));
      } else {
        vfs.remove(path);
      }
    }
  }
  ASSERT_TRUE(vfs.verify_purge_index());
}

ScanPlan make_plan(util::Rng& rng) {
  std::vector<UserActiveness> users;
  for (trace::UserId u = 0; u < kUsers; ++u) {
    users.push_back(
        ua(u, rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.5, 4.0),
           rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.5, 4.0)));
  }
  return activeness::build_scan_plan(std::move(users));
}

/// Byte-identical modulo wall times (see header comment).
void expect_reports_equal(const PurgeReport& walk, const PurgeReport& indexed,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(walk.target_purge_bytes, indexed.target_purge_bytes);
  EXPECT_EQ(walk.exempted_files, indexed.exempted_files);
  EXPECT_EQ(walk.purged_bytes, indexed.purged_bytes);
  EXPECT_EQ(walk.purged_files, indexed.purged_files);
  EXPECT_EQ(walk.target_reached, indexed.target_reached);
  EXPECT_EQ(walk.retrospective_passes_used, indexed.retrospective_passes_used);
  EXPECT_EQ(walk.victim_paths, indexed.victim_paths);  // order included
  EXPECT_EQ(walk.affected_users, indexed.affected_users);
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    EXPECT_EQ(walk.by_group[g].purged_bytes, indexed.by_group[g].purged_bytes);
    EXPECT_EQ(walk.by_group[g].purged_files, indexed.by_group[g].purged_files);
    EXPECT_EQ(walk.by_group[g].retained_bytes,
              indexed.by_group[g].retained_bytes);
    EXPECT_EQ(walk.by_group[g].retained_files,
              indexed.by_group[g].retained_files);
    EXPECT_EQ(walk.by_group[g].users_affected,
              indexed.by_group[g].users_affected);
    EXPECT_EQ(walk.by_group[g].users_total, indexed.by_group[g].users_total);
  }
}

PurgeReport run_mode(const fs::Vfs& initial,
                     const trace::UserRegistry& registry,
                     const ScanPlan& plan, std::uint64_t target, bool dry_run,
                     ScanMode mode, fs::Vfs* out_vfs = nullptr) {
  fs::Vfs vfs;
  vfs.import_snapshot(initial.export_snapshot());
  ActiveDrConfig config;
  config.dry_run = dry_run;
  config.record_victims = true;
  config.scan_mode = mode;
  const ActiveDrPolicy policy(config, registry);
  PurgeReport report = policy.run(vfs, kNow, target, plan);
  EXPECT_TRUE(vfs.verify_purge_index());
  if (out_vfs != nullptr) *out_vfs = std::move(vfs);
  return report;
}

TEST(ScanModes, WetRunsProduceIdenticalReportsAcrossTargets) {
  util::Rng rng(42);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);
  const ScanPlan plan = make_plan(rng);
  const std::uint64_t total = vfs.total_bytes();

  // From trivially-reachable through pass-exhausting to unreachable.
  for (const std::uint64_t target :
       {std::uint64_t{0}, total / 100, total / 10, total / 2, total}) {
    fs::Vfs after_walk, after_indexed;
    const PurgeReport walk = run_mode(vfs, registry, plan, target,
                                      /*dry_run=*/false, ScanMode::kWalk,
                                      &after_walk);
    const PurgeReport indexed = run_mode(vfs, registry, plan, target,
                                         /*dry_run=*/false, ScanMode::kIndexed,
                                         &after_indexed);
    expect_reports_equal(walk, indexed,
                         "wet target=" + std::to_string(target));
    EXPECT_EQ(after_walk.total_bytes(), after_indexed.total_bytes());
    EXPECT_EQ(after_walk.file_count(), after_indexed.file_count());
  }
}

TEST(ScanModes, DryRunsProduceIdenticalReportsAcrossTargets) {
  util::Rng rng(1337);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);
  const ScanPlan plan = make_plan(rng);
  const std::uint64_t total = vfs.total_bytes();

  for (const std::uint64_t target :
       {std::uint64_t{0}, total / 100, total / 10, total / 2, total}) {
    const PurgeReport walk = run_mode(vfs, registry, plan, target,
                                      /*dry_run=*/true, ScanMode::kWalk);
    const PurgeReport indexed = run_mode(vfs, registry, plan, target,
                                         /*dry_run=*/true, ScanMode::kIndexed);
    expect_reports_equal(walk, indexed,
                         "dry target=" + std::to_string(target));
  }
}

TEST(ScanModes, RandomizedPopulationsAgreeOverManySeeds) {
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    fs::Vfs vfs;
    populate(vfs, registry, rng);
    const ScanPlan plan = make_plan(rng);
    const std::uint64_t target = static_cast<std::uint64_t>(
        static_cast<double>(vfs.total_bytes()) * rng.uniform(0.05, 0.9));
    const PurgeReport walk = run_mode(vfs, registry, plan, target,
                                      /*dry_run=*/false, ScanMode::kWalk);
    const PurgeReport indexed = run_mode(vfs, registry, plan, target,
                                         /*dry_run=*/false, ScanMode::kIndexed);
    expect_reports_equal(walk, indexed, "seed " + std::to_string(seed));
  }
}

TEST(ScanModes, ExemptionsRespectedInBothModes) {
  util::Rng rng(7);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);
  const ScanPlan plan = make_plan(rng);

  std::size_t exempted_by_mode[2] = {0, 0};
  int i = 0;
  for (const ScanMode mode : {ScanMode::kWalk, ScanMode::kIndexed}) {
    fs::Vfs run;
    run.import_snapshot(vfs.export_snapshot());
    ActiveDrConfig config;
    config.record_victims = true;
    config.scan_mode = mode;
    ActiveDrPolicy policy(config, registry);
    ExemptionList exemptions;
    exemptions.reserve(registry.home_dir(0));  // user 0 fully reserved
    policy.set_exemptions(std::move(exemptions));
    const PurgeReport report = policy.run(run, kNow, vfs.total_bytes(), plan);
    for (const auto& path : report.victim_paths) {
      EXPECT_EQ(path.rfind(registry.home_dir(0) + "/", 0), std::string::npos)
          << "exempt file purged in mode " << static_cast<int>(mode) << ": "
          << path;
    }
    EXPECT_GT(report.exempted_files, 0u);
    exempted_by_mode[i++] = report.exempted_files;
  }
  EXPECT_EQ(exempted_by_mode[0], exempted_by_mode[1]);
}

/// The FLT reference: walk the whole namespace (trie DFS order), keep the
/// files expired at `now`, and cut the list once `target` bytes are covered
/// (0 = no target, keep every expired file).
std::vector<std::string> flt_walk_oracle(const fs::Vfs& vfs, int lifetime_days,
                                         std::uint64_t target) {
  std::vector<std::string> victims;
  std::uint64_t covered = 0;
  vfs.for_each([&](const std::string& path, const fs::FileMeta& m) {
    if (target != 0 && covered >= target) return;
    if (kNow - m.atime <= util::days(lifetime_days)) return;
    victims.push_back(path);
    covered += m.size_bytes;
  });
  return victims;
}

TEST(ScanModes, FltStrictModesSelectIdenticalVictimSets) {
  util::Rng rng(99);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);

  std::vector<std::string> expected = flt_walk_oracle(vfs, 90, 0);
  ASSERT_FALSE(expected.empty());
  std::sort(expected.begin(), expected.end());

  fs::Vfs run;
  run.import_snapshot(vfs.export_snapshot());
  FltConfig config;
  config.record_victims = true;
  const PurgeReport report = FltPolicy(config).run(run, kNow, /*target=*/0);
  std::vector<std::string> victims = report.victim_paths;
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(victims, expected);
  EXPECT_TRUE(run.verify_purge_index());
}

/// 50 users x 20 files of 1000 B, split over sibling directories "d" and
/// "d-old" (byte order and trie order disagree on them), one file in five
/// still fresh under a 1-day lifetime. A non-zero budget evicts all but a
/// few users.
void populate_budget_case(fs::Vfs& vfs, const trace::UserRegistry& registry,
                          std::uint64_t budget) {
  vfs.set_memory_budget_bytes(budget);
  for (trace::UserId u = 0; u < registry.size(); ++u) {
    for (int i = 0; i < 20; ++i) {
      const std::string path = registry.home_dir(u) +
                               (i % 2 == 0 ? "/d/f" : "/d-old/f") +
                               std::to_string(i);
      vfs.create(path, meta(u, 1000, i % 5 == 0 ? 0.5 : 2.0 + i));
    }
  }
}

TEST(ScanModes, FltPurgeToTargetIgnoresTheResidencyBudget) {
  constexpr std::uint64_t kTarget = 500'000;
  const auto registry = trace::UserRegistry::with_synthetic_users(50);
  FltConfig config;
  config.lifetime_days = 1;
  config.record_victims = true;

  fs::Vfs unbudgeted;
  populate_budget_case(unbudgeted, registry, 0);
  const std::vector<std::string> oracle =
      flt_walk_oracle(unbudgeted, 1, kTarget);
  ASSERT_EQ(oracle.size(), 500u);
  const PurgeReport reference = FltPolicy(config).run(unbudgeted, kNow, kTarget);
  EXPECT_EQ(reference.victim_paths, oracle);

  fs::Vfs budgeted;
  populate_budget_case(budgeted, registry, 4096);
  ASSERT_GT(budgeted.evicted_user_count(), 0u);
  const PurgeReport report = FltPolicy(config).run(budgeted, kNow, kTarget);
  EXPECT_EQ(report.purged_files, 500u);
  EXPECT_EQ(report.purged_bytes, kTarget);
  EXPECT_TRUE(report.target_reached);
  EXPECT_EQ(report.victim_paths, reference.victim_paths);  // order included
  EXPECT_EQ(report.affected_users, reference.affected_users);
  EXPECT_TRUE(budgeted.verify_purge_index());

  core::ServiceConfig service_config;
  service_config.lifetime_days = 1;
  service_config.record_victims = true;
  core::Service service(registry, service_config);
  populate_budget_case(service.vfs(), registry, 4096);
  ASSERT_GT(service.vfs().evicted_user_count(), 0u);
  const PurgeReport via_service = service.purge_flt(kNow, kTarget);
  EXPECT_EQ(via_service.purged_files, 500u);
  EXPECT_EQ(via_service.victim_paths, reference.victim_paths);
}

TEST(ScanModes, WalkReferenceRefusesAVfsWithEvictedUsers) {
  util::Rng rng(5);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);
  vfs.set_memory_budget_bytes(1);
  ASSERT_GT(vfs.evicted_user_count(), 0u);
  const ScanPlan plan = make_plan(rng);

  ActiveDrConfig config;
  config.scan_mode = ScanMode::kWalk;
  EXPECT_THROW(ActiveDrPolicy(config, registry).run(vfs, kNow, 0, plan),
               std::logic_error);

  config.scan_mode = ScanMode::kIndexed;
  const PurgeReport report =
      ActiveDrPolicy(config, registry).run(vfs, kNow, 0, plan);
  EXPECT_GT(report.purged_files, 0u);
  EXPECT_TRUE(vfs.verify_purge_index());
}

}  // namespace
}  // namespace adr::retention
