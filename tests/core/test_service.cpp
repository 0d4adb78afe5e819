#include "core/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/event_log.hpp"
#include "util/bundle.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/time.hpp"

namespace adr::core {
namespace {

namespace fsys = std::filesystem;

constexpr util::TimePoint kBase = 1'600'000'000;
constexpr std::size_t kUsers = 8;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A deterministic mixed event history: file creates with distinct atimes
/// (PurgeIndex tie-breaks equal atimes by interning order, which differs
/// between replay and snapshot-import paths — distinct atimes keep the
/// identity contract about *state*, not interning accidents), job and
/// publication activity spread over ~60 days, accesses refreshing some
/// files.
std::vector<trace::Event> make_history() {
  std::vector<trace::Event> events;
  const auto day = util::days(1);
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t f = 0; f < 3; ++f) {
      trace::Event e;
      e.kind = trace::EventKind::kCreate;
      e.user = static_cast<trace::UserId>(u);
      e.timestamp = kBase + static_cast<util::Duration>(u * 3 + f) * day / 4;
      e.path = "/scratch/user_" + std::to_string(u) + "/f" +
               std::to_string(f) + ".dat";
      e.size_bytes = 1000 + u * 100 + f;
      e.stripe_count = 4;
      events.push_back(e);
    }
  }
  for (std::size_t u = 0; u < kUsers; ++u) {
    // Activity density falls with user id: user 0 very active, the tail
    // dormant — spreads users across the G1..G4 groups.
    const int bursts = static_cast<int>(kUsers - u);
    for (int b = 0; b < bursts; ++b) {
      trace::Event job;
      job.kind = trace::EventKind::kJob;
      job.user = static_cast<trace::UserId>(u);
      job.timestamp = kBase + static_cast<util::Duration>(b * 9 + 1) * day +
                      static_cast<util::Duration>(u);
      job.impact = 120.0 * (b + 1) + static_cast<double>(u) * 0.25;
      events.push_back(job);
    }
    if (u % 3 == 0) {
      trace::Event pub;
      pub.kind = trace::EventKind::kPublication;
      pub.user = static_cast<trace::UserId>(u);
      pub.timestamp = kBase + 20 * day + static_cast<util::Duration>(u);
      pub.impact = 8.0 + static_cast<double>(u);
      events.push_back(pub);
    }
    if (u % 2 == 0) {
      trace::Event access;
      access.kind = trace::EventKind::kAccess;
      access.user = static_cast<trace::UserId>(u);
      access.timestamp = kBase + 55 * day + static_cast<util::Duration>(u);
      access.path = "/scratch/user_" + std::to_string(u) + "/f0.dat";
      events.push_back(access);
    }
  }
  return events;
}

ServiceConfig test_config(std::size_t shards) {
  ServiceConfig config;
  config.lifetime_days = 30;
  config.eval_shards = shards;
  config.record_victims = true;
  return config;
}

std::unique_ptr<Service> make_service(std::size_t shards) {
  auto service = std::make_unique<Service>(
      trace::UserRegistry::with_synthetic_users(kUsers), test_config(shards));
  service->register_paper_types();
  return service;
}

class ServiceTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/adr_service_test_" +
                     std::to_string(::getpid());
  std::string wal_ = dir_ + "/wal";
  util::TimePoint now_ = kBase + util::days(70);

  void SetUp() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
    fsys::create_directories(wal_);
    trace::EventLogWriter writer(wal_);
    for (const auto& event : make_history()) writer.append(event);
  }
  void TearDown() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
  }

  std::vector<trace::Event> all_events() {
    trace::EventLogReader reader(wal_);
    return reader.read_after(0);
  }

  /// Apply the whole WAL cold and purge; returns (ranks-file bytes,
  /// victims).
  std::pair<std::string, std::vector<std::string>> cold_run(
      std::size_t shards, const std::string& tag) {
    auto service = make_service(shards);
    for (const auto& event : all_events()) service->apply(event);
    const auto report = service->purge(now_, 0);
    const std::string ranks_path = dir_ + "/ranks_" + tag + ".csv";
    service->ranks().save_csv(ranks_path);
    return {slurp(ranks_path), report.victim_paths};
  }
};

TEST_F(ServiceTest, ApplyIsSeqGuardedAndIdempotent) {
  auto service = make_service(1);
  const auto events = all_events();
  for (const auto& event : events) EXPECT_TRUE(service->apply(event));
  const std::uint64_t seq = service->last_applied_seq();
  EXPECT_EQ(seq, events.size());

  // Replaying the same tail is a strict no-op.
  for (const auto& event : events) EXPECT_FALSE(service->apply(event));
  EXPECT_EQ(service->last_applied_seq(), seq);

  const auto once = cold_run(1, "once");
  auto twice_service = make_service(1);
  for (int round = 0; round < 2; ++round) {
    for (const auto& event : events) twice_service->apply(event);
  }
  const auto report = twice_service->purge(now_, 0);
  const std::string ranks_path = dir_ + "/ranks_twice.csv";
  twice_service->ranks().save_csv(ranks_path);
  EXPECT_EQ(slurp(ranks_path), once.first);
  EXPECT_EQ(report.victim_paths, once.second);
}

TEST_F(ServiceTest, WalReplayMatchesDirectRecordIngest) {
  // Feed the same history through record()/vfs calls directly (the bulk
  // library path the examples take) and through WAL apply; ranks must match
  // byte-for-byte.
  auto direct = make_service(1);
  for (const auto& event : make_history()) {
    trace::Event copy = event;
    copy.seq = 0;  // direct events carry no WAL seq
    direct->apply(copy);
  }
  const auto direct_report = direct->purge(now_, 0);
  const std::string direct_ranks = dir_ + "/ranks_direct.csv";
  direct->ranks().save_csv(direct_ranks);

  const auto wal = cold_run(1, "wal");
  EXPECT_EQ(slurp(direct_ranks), wal.first);
  EXPECT_EQ(direct_report.victim_paths, wal.second);
}

TEST_F(ServiceTest, EvaluateFoldsInPendingIngestAtRepeatedNow) {
  auto service = make_service(4);
  service->prepare_ingest();
  const auto events = all_events();
  for (const auto& event : events) service->apply(event);
  service->evaluate(now_);
  const auto before = service->activeness_of(kUsers - 1);

  // Enqueue (not append) a fresh burst for the most dormant user, then
  // re-evaluate at the *same* now: the pending-ingest guard must not serve
  // the cached result.
  auto& store = service->store();
  for (int i = 0; i < 5; ++i) {
    store.enqueue(kUsers - 1, kJobActivityType,
                  {now_ - util::days(2) + i, 50'000.0});
  }
  ASSERT_TRUE(store.has_pending_ingest());
  service->evaluate(now_);
  EXPECT_FALSE(store.has_pending_ingest());
  const auto after = service->activeness_of(kUsers - 1);
  EXPECT_GT(after.last_activity, before.last_activity);
}

TEST_F(ServiceTest, CheckpointPlusTailReplayMatchesColdRun) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto cold = cold_run(shards, "cold" + std::to_string(shards));

    // Warm path: apply half the history, checkpoint, restore into a fresh
    // service, replay the tail.
    const auto events = all_events();
    const std::size_t half = events.size() / 2;
    const std::string ckpt = dir_ + "/ckpt" + std::to_string(shards);
    {
      auto first = make_service(shards);
      for (std::size_t i = 0; i < half; ++i) first->apply(events[i]);
      first->save_checkpoint(ckpt);
    }
    auto second = make_service(shards);
    const auto status = second->restore_checkpoint(ckpt);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.applied_seq, events[half - 1].seq);
    for (const auto& event : events) second->apply(event);  // idempotent tail
    const auto report = second->purge(now_, 0);
    const std::string ranks_path =
        dir_ + "/ranks_warm" + std::to_string(shards) + ".csv";
    second->ranks().save_csv(ranks_path);

    EXPECT_EQ(slurp(ranks_path), cold.first);
    EXPECT_EQ(report.victim_paths, cold.second);
  }
}

TEST_F(ServiceTest, ShardCountsAgreeByteForByte) {
  const auto one = cold_run(1, "s1");
  const auto four = cold_run(4, "s4");
  EXPECT_EQ(one.first, four.first);
  EXPECT_EQ(one.second, four.second);
}

TEST_F(ServiceTest, RestoreRefusesDamagedCheckpoints) {
  const auto events = all_events();
  const std::string ckpt = dir_ + "/ckpt";
  {
    auto service = make_service(1);
    for (const auto& event : events) service->apply(event);
    service->save_checkpoint(ckpt);
  }
  // Valid as written.
  {
    auto service = make_service(1);
    EXPECT_TRUE(service->restore_checkpoint(ckpt).ok);
  }
  // Unsealed (manifest gone) is refused.
  fsys::rename(ckpt + "/MANIFEST", ckpt + "/MANIFEST.hidden");
  {
    auto service = make_service(1);
    const auto status = service->restore_checkpoint(ckpt);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("unsealed"), std::string::npos);
    // The failed restore left the service clean and usable.
    for (const auto& event : events) service->apply(event);
    EXPECT_EQ(service->last_applied_seq(), events.size());
  }
  fsys::rename(ckpt + "/MANIFEST.hidden", ckpt + "/MANIFEST");
  // A member rewritten after sealing (half-bundle) is refused.
  {
    util::io::AtomicWriter writer(ckpt + "/activities.csv");
    writer.write_line("user,type,timestamp,impact");
    writer.commit();
  }
  {
    auto service = make_service(1);
    const auto status = service->restore_checkpoint(ckpt);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("activities.csv"), std::string::npos);
  }
}

TEST_F(ServiceTest, CrashMidCheckpointNeverYieldsARestorableHalfBundle) {
  const auto events = all_events();
  const char* specs[] = {
      "io.atomic.pre_commit:crash@1", "io.atomic.pre_rename:crash@2",
      "csv.row:crash@5",              "bundle.member:crash@2",
      "bundle.pre_manifest:crash@1",
  };
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const std::string ckpt =
        dir_ + "/ckpt_crash_" + std::to_string(&spec - specs);
    {
      auto service = make_service(1);
      for (const auto& event : events) service->apply(event);
      util::FaultInjector::global().configure(spec);
      EXPECT_THROW(service->save_checkpoint(ckpt), util::CrashInjected);
      EXPECT_GE(util::FaultInjector::global().fired_count(), 1u);
      util::FaultInjector::global().clear();
    }
    // Old-or-new at bundle granularity: the torn checkpoint refuses to
    // restore, and a cold replay of the full WAL still reproduces state.
    auto service = make_service(1);
    EXPECT_FALSE(service->restore_checkpoint(ckpt).ok);
    for (const auto& event : events) service->apply(event);
    EXPECT_EQ(service->last_applied_seq(), events.size());
  }
}

// The checkpoint's bytes are a format: every member must equal a reference
// built here, independently of the service's formatter, with
// snprintf("%.17g") and std::to_string.
TEST_F(ServiceTest, CheckpointMembersMatchIndependentReference) {
  Service service(trace::UserRegistry::with_synthetic_users(3),
                  test_config(1));
  service.register_paper_types();
  std::uint64_t seq = 0;
  const auto apply = [&](trace::Event e) {
    e.seq = ++seq;
    service.apply(e);
  };
  const auto g17 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };

  // Activity streams: user 1 carries every awkward impact; rows go out per
  // user, then per type, in stream order.
  const double impacts[] = {0.0,    -0.0,  0.1,  1.0 / 3.0,
                            1e-300, 1e300, -2.5, -1e-7};
  std::string activities = "user,type,timestamp,impact\n";
  const auto activity = [&](trace::UserId user, trace::EventKind kind,
                            util::TimePoint t, double impact) {
    trace::Event e;
    e.kind = kind;
    e.user = user;
    e.timestamp = t;
    e.impact = impact;
    apply(e);
  };
  activity(2, trace::EventKind::kPublication, kBase + 3, 0.75);
  for (std::size_t i = 0; i < std::size(impacts); ++i) {
    activity(1, trace::EventKind::kJob,
             kBase + static_cast<util::Duration>(i) * 60, impacts[i]);
  }
  activity(1, trace::EventKind::kPublication, kBase + 7, -3.25);
  activity(0, trace::EventKind::kJob, kBase + 9, 1e-300);
  activities += "0,0," + std::to_string(kBase + 9) + "," + g17(1e-300) + "\n";
  for (std::size_t i = 0; i < std::size(impacts); ++i) {
    activities += "1,0," +
                  std::to_string(kBase + static_cast<util::Duration>(i) * 60) +
                  "," + g17(impacts[i]) + "\n";
  }
  activities += "1,1," + std::to_string(kBase + 7) + "," + g17(-3.25) + "\n";
  activities += "2,1," + std::to_string(kBase + 3) + "," + g17(0.75) + "\n";

  // Files: user 0 is evicted, so its files come last, after every resident
  // file, in ascending atime order; one resident path needs CSV quoting.
  const auto create = [&](trace::UserId user, const std::string& path,
                          util::TimePoint atime, std::uint64_t size) {
    trace::Event e;
    e.kind = trace::EventKind::kCreate;
    e.user = user;
    e.timestamp = atime;
    e.path = path;
    e.size_bytes = size;
    e.stripe_count = 4;
    apply(e);
  };
  create(0, "/scratch/u0/b.dat", kBase + 300, 30);
  create(0, "/scratch/u0/a.dat", kBase + 200, 20);
  create(1, "/scratch/u1/plain.dat", kBase + 100, 10);
  create(1, "/scratch/u1/needs,\"quoting\".dat", kBase + 101, 11);
  create(2, "/scratch/u2/x.dat", kBase + 102, 12);
  service.vfs().evict_user(0);
  ASSERT_FALSE(service.vfs().user_resident(0));
  const auto file_row = [](const std::string& path_field, trace::UserId owner,
                           std::uint64_t size, util::TimePoint atime) {
    return path_field + "," + std::to_string(owner) + ",4," +
           std::to_string(size) + "," + std::to_string(atime) + "\n";
  };
  const std::string snapshot =
      "path,owner,stripes,size,atime\n" +
      file_row("\"/scratch/u1/needs,\"\"quoting\"\".dat\"", 1, 11,
               kBase + 101) +
      file_row("/scratch/u1/plain.dat", 1, 10, kBase + 100) +
      file_row("/scratch/u2/x.dat", 2, 12, kBase + 102) +
      file_row("/scratch/u0/a.dat", 0, 20, kBase + 200) +
      file_row("/scratch/u0/b.dat", 0, 30, kBase + 300);
  const std::string meta = "format = adr-checkpoint-v1\napplied_seq = " +
                           std::to_string(seq) +
                           "\nusers = 3\ntypes = 2\n";

  const std::string ckpt = dir_ + "/ckpt_golden";
  const std::uint64_t bytes = service.save_checkpoint(ckpt);
  EXPECT_FALSE(service.vfs().user_resident(0));  // the export never faults

  const auto footered = [](const std::string& payload) {
    util::io::Crc32 crc;
    crc.update(payload);
    return payload + util::io::make_footer(crc.value(), payload.size()) + "\n";
  };
  EXPECT_EQ(slurp(ckpt + "/activities.csv"), footered(activities));
  EXPECT_EQ(slurp(ckpt + "/snapshot.csv"), footered(snapshot));
  EXPECT_EQ(slurp(ckpt + "/meta.conf"), footered(meta));
  EXPECT_EQ(bytes, activities.size() + snapshot.size() + meta.size());
  const util::io::BundleCheck check = util::io::verify_bundle(ckpt);
  ASSERT_TRUE(check.valid()) << check.error;
  ASSERT_EQ(check.members.size(), 3u);
  EXPECT_EQ(check.members[1].name, "activities.csv");
  EXPECT_EQ(check.members[1].bytes, activities.size());
  util::io::Crc32 crc;
  crc.update(activities);
  EXPECT_EQ(check.members[1].crc32, crc.value());

  // And the checkpoint restores to the same bytes.
  Service restored(trace::UserRegistry::with_synthetic_users(3),
                   test_config(1));
  restored.register_paper_types();
  ASSERT_TRUE(restored.restore_checkpoint(ckpt).ok);
  restored.save_checkpoint(dir_ + "/ckpt_golden2");
  EXPECT_EQ(slurp(dir_ + "/ckpt_golden2/activities.csv"),
            footered(activities));
}

// Restore parses with the strict checked helpers: a row with trailing junk,
// a fractional id or a non-finite impact refuses the checkpoint with a
// row-numbered error, even when the bundle itself was sealed over it.
TEST_F(ServiceTest, RestoreRefusesMalformedActivityRows) {
  const auto events = all_events();
  const std::string ckpt = dir_ + "/ckpt_rows";
  {
    auto service = make_service(1);
    for (const auto& event : events) service->apply(event);
    service->save_checkpoint(ckpt);
  }
  const std::string good = util::io::load_verified(ckpt + "/activities.csv");
  std::vector<std::string> lines;
  {
    std::istringstream in(good);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  const std::string ts = std::to_string(kBase);
  const struct {
    std::string row;
    const char* column;
  } cases[] = {
      {"3abc,0," + ts + ",1", "'user'"},
      {"1.5,0," + ts + ",1", "'user'"},
      {"1,0x1," + ts + ",1", "'type'"},
      {"1,0,12abc,1", "'timestamp'"},
      {"1,0," + ts + ",1.5x", "'impact'"},
      {"1,0," + ts + ",nan", "'impact'"},
      {"1,0," + ts + ",inf", "'impact'"},
      {"1,0," + ts + ",-inf", "'impact'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.row);
    {
      util::io::AtomicWriter writer(ckpt + "/activities.csv");
      for (std::size_t i = 0; i < lines.size(); ++i) {
        writer.write_line(i == 2 ? c.row : lines[i]);  // physical line 3
      }
      writer.commit();
    }
    util::io::commit_bundle(ckpt, {"meta.conf", "activities.csv",
                                   "snapshot.csv"});
    ASSERT_TRUE(util::io::verify_bundle(ckpt).valid());
    auto service = make_service(1);
    const auto status = service->restore_checkpoint(ckpt);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("activities.csv:3"), std::string::npos)
        << status.error;
    EXPECT_NE(status.error.find(c.column), std::string::npos)
        << status.error;
    // Nothing was mutated: the service is clean for a fallback replay.
    EXPECT_EQ(service->last_applied_seq(), 0u);
    EXPECT_EQ(service->store().total_activities(), 0u);
    EXPECT_EQ(service->vfs().file_count(), 0u);
    for (const auto& event : events) service->apply(event);
    EXPECT_EQ(service->last_applied_seq(), events.size());
  }
}

// ---- Library API -----------------------------------------------------------

constexpr util::TimePoint kNow = 1'600'000'000;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  return m;
}

// The library-facing API the examples use: register types, record, load a
// snapshot, evaluate, purge — on a default-configured Service.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : service_(trace::UserRegistry::with_synthetic_users(4),
                 ServiceConfig{}) {
    op_ = service_.register_operation_type("job_submission");
    oc_ = service_.register_outcome_type("publication");
  }

  Service service_;
  activeness::ActivityTypeId op_ = 0;
  activeness::ActivityTypeId oc_ = 0;
};

TEST_F(EngineTest, RecordAndEvaluate) {
  // user0: dense recent ops -> active; user1: nothing -> fresh/inactive.
  for (int p = 0; p < 4; ++p) {
    for (int k = 0; k < 3; ++k) {
      service_.record(0, op_,
                     kNow - util::days(90 * p + 10 + k * 20), 100.0);
    }
  }
  const auto& ranks = service_.evaluate(kNow);
  EXPECT_TRUE(ranks.get(0).op.has_data);
  EXPECT_TRUE(ranks.get(1).fresh());
  const auto counts = service_.group_counts();
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 4u);
}

TEST_F(EngineTest, RecordUnregisteredTypeThrows) {
  EXPECT_THROW(service_.record(0, 99, kNow, 1.0), std::out_of_range);
}

TEST_F(EngineTest, WeightsScaleImpacts) {
  const auto heavy = service_.register_operation_type("transfer", 10.0);
  service_.record(0, heavy, kNow - util::days(1), 2.0);
  const auto& ranks = service_.evaluate(kNow);
  // Single activity: rank 1.0 regardless of weight, but data present.
  EXPECT_TRUE(ranks.get(0).op.active());
}

TEST_F(EngineTest, PurgeUsesActiveness) {
  // user0 active (dense rising ops), user1 silent.
  for (int p = 0; p < 3; ++p) {
    for (int k = 0; k < 3; ++k) {
      // Periods (old->new) carry impacts 300/300/600: ratios
      // (0.75, 0.75, 1.5) -> Phi = 0.75 * 0.75^2 * 1.5^3 = 1.42 (active).
      service_.record(0, op_, kNow - util::days(90 * p + 10 + k * 20),
                     p == 0 ? 200.0 : 100.0);
    }
  }
  service_.vfs().create("/scratch/user_00000/stale", meta(0, 100, 120));
  service_.vfs().create("/scratch/user_00001/stale", meta(1, 100, 120));
  service_.vfs().set_capacity_bytes(200);

  const auto report = service_.purge(kNow);
  EXPECT_EQ(report.policy, "ActiveDR-90d");
  // Target: reach 50% of 200 = 100 bytes -> purge 100 bytes, starting from
  // the inactive user.
  EXPECT_TRUE(report.target_reached);
  EXPECT_FALSE(service_.vfs().exists("/scratch/user_00001/stale"));
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00000/stale"));
}

TEST_F(EngineTest, ReserveProtectsFiles) {
  // The reserved file is the only purge candidate: it must survive even
  // though that leaves the 50% target unmet.
  service_.vfs().create("/scratch/user_00001/keep.dat", meta(1, 100, 500));
  service_.reserve("/scratch/user_00001/keep.dat");
  service_.vfs().set_capacity_bytes(100);
  const auto report = service_.purge(kNow);
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00001/keep.dat"));
  EXPECT_FALSE(report.target_reached);
  EXPECT_GT(report.exempted_files, 0u);
}

TEST_F(EngineTest, IngestLogsMatchesRecord) {
  trace::JobLog jobs;
  trace::JobRecord j;
  j.user = 2;
  j.submit_time = kNow - util::days(5);
  j.duration_seconds = 3600;
  j.cores = 10;
  jobs.add(j);
  service_.ingest_jobs(jobs, op_);

  trace::PublicationLog pubs;
  trace::PublicationRecord p;
  p.published = kNow - util::days(10);
  p.citations = 3;
  p.authors = {3};
  pubs.add(p);
  service_.ingest_publications(pubs, oc_);

  const auto& ranks = service_.evaluate(kNow);
  EXPECT_TRUE(ranks.get(2).op.active());   // single activity -> rank 1
  EXPECT_TRUE(ranks.get(3).oc.active());
  EXPECT_EQ(service_.group_counts()[1], 1u);  // op-active-only
  EXPECT_EQ(service_.group_counts()[2], 1u);  // oc-active-only
}

TEST_F(EngineTest, PurgeFltBaseline) {
  service_.vfs().create("/scratch/user_00000/old", meta(0, 100, 120));
  service_.vfs().create("/scratch/user_00000/new", meta(0, 100, 5));
  service_.vfs().set_capacity_bytes(200);
  const auto report = service_.purge_flt(kNow);
  EXPECT_EQ(report.policy, "FLT-90d");
  EXPECT_FALSE(service_.vfs().exists("/scratch/user_00000/old"));
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00000/new"));
}

TEST_F(ServiceTest, FltReportAttributesGroupsByLatestEvaluation) {
  Service service(trace::UserRegistry::with_synthetic_users(2),
                  ServiceConfig{});
  const auto op = service.register_operation_type("job_submission");
  // user0 op-active (the PurgeUsesActiveness history), user1 silent.
  for (int p = 0; p < 3; ++p) {
    for (int k = 0; k < 3; ++k) {
      service.record(0, op, kNow - util::days(90 * p + 10 + k * 20),
                     p == 0 ? 200.0 : 100.0);
    }
  }
  service.vfs().create("/scratch/user_00000/stale", meta(0, 100, 120));
  service.vfs().create("/scratch/user_00001/stale", meta(1, 50, 120));
  service.evaluate(kNow);
  ASSERT_EQ(service.group_of(0), activeness::UserGroup::kOperationActiveOnly);

  const auto report = service.purge_flt(kNow, 0);
  EXPECT_EQ(report.purged_bytes, 150u);
  EXPECT_EQ(
      report.group(activeness::UserGroup::kOperationActiveOnly).purged_bytes,
      100u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothInactive).purged_bytes,
            50u);
}

TEST_F(EngineTest, SnapshotLoading) {
  trace::Snapshot snap;
  trace::SnapshotEntry e;
  e.path = "/scratch/user_00002/data.h5";
  e.owner = 2;
  e.size_bytes = 42;
  e.atime = kNow - util::days(1);
  snap.add(e);
  service_.load_snapshot(snap);
  EXPECT_EQ(service_.vfs().total_bytes(), 42u);
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00002/data.h5"));
}

TEST_F(EngineTest, EffectiveLifetimeQueries) {
  // user0 active (the calibrated rising pattern: Phi = 1.42), user1 silent.
  for (int p = 0; p < 3; ++p) {
    for (int k = 0; k < 3; ++k) {
      service_.record(0, op_, kNow - util::days(90 * p + 10 + k * 20),
                     p == 0 ? 200.0 : 100.0);
    }
  }
  service_.evaluate(kNow);

  const auto active = service_.activeness_of(0);
  EXPECT_TRUE(active.op.active());
  EXPECT_GT(service_.effective_lifetime_of(0), util::days(90));
  EXPECT_NEAR(static_cast<double>(service_.effective_lifetime_of(0)),
              static_cast<double>(util::days(90)) * active.op.value(), 1e6);

  // Silent users enjoy exactly the initial lifetime.
  EXPECT_TRUE(service_.activeness_of(1).fresh());
  EXPECT_EQ(service_.effective_lifetime_of(1), util::days(90));
}

TEST_F(EngineTest, EvaluationCachedUntilNewActivity) {
  service_.record(0, op_, kNow - util::days(1), 1.0);
  const auto& r1 = service_.evaluate(kNow);
  const auto& r2 = service_.evaluate(kNow);
  EXPECT_EQ(&r1, &r2);
  service_.record(0, op_, kNow - util::days(2), 1.0);
  const auto& r3 = service_.evaluate(kNow);
  EXPECT_TRUE(r3.get(0).op.has_data);
}

TEST_F(EngineTest, IncrementalEvaluationTouchesOnlyTheDirtyUser) {
  // user0: stale history whose rank is provably pinned at zero (empty
  // newest periods, pigeonhole); users 1-3 fresh.
  service_.record(0, op_, kNow - util::days(600), 5.0);
  service_.record(0, op_, kNow - util::days(580), 5.0);
  service_.evaluate(kNow);

  const auto before = obs::MetricsRegistry::global().snapshot();
  service_.record(2, oc_, kNow + util::days(1), 3.0);
  service_.evaluate(kNow + util::days(2));
  const auto after = obs::MetricsRegistry::global().snapshot();

  // Exactly one user re-ranked — the evaluator never even looked at the
  // other three (their streams were untouched and their cached evaluation
  // is provably unchanged).
  EXPECT_EQ(after.counters.at("incremental.users_reevaluated") -
                before.counters.at("incremental.users_reevaluated"),
            1u);
  EXPECT_EQ(after.counters.at("evaluator.users_evaluated") -
                before.counters.at("evaluator.users_evaluated"),
            1u);
  EXPECT_EQ(after.counters.at("incremental.users_skipped") -
                before.counters.at("incremental.users_skipped"),
            3u);
  EXPECT_TRUE(service_.activeness_of(2).oc.has_data);
}

TEST_F(EngineTest, FullEvalModeMatchesIncremental) {
  ServiceConfig full_config;
  full_config.eval_mode = activeness::EvalMode::kFull;
  Service full_service(trace::UserRegistry::with_synthetic_users(4),
                       full_config);
  const auto fop = full_service.register_operation_type("job_submission");

  for (int p = 0; p < 3; ++p) {
    for (int k = 0; k < 3; ++k) {
      const util::TimePoint ts = kNow - util::days(90 * p + 10 + k * 20);
      const double impact = p == 0 ? 200.0 : 100.0;
      service_.record(0, op_, ts, impact);
      full_service.record(0, fop, ts, impact);
    }
  }
  for (const util::TimePoint t : {kNow, kNow + util::days(7)}) {
    service_.evaluate(t);
    full_service.evaluate(t);
    for (trace::UserId u = 0; u < 4; ++u) {
      const auto a = service_.activeness_of(u);
      const auto b = full_service.activeness_of(u);
      EXPECT_EQ(a.op.sort_key(), b.op.sort_key());
      EXPECT_EQ(a.oc.sort_key(), b.oc.sort_key());
      EXPECT_EQ(a.last_activity, b.last_activity);
    }
  }
}

}  // namespace
}  // namespace adr::core
