#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "trace/event_log.hpp"
#include "util/bundle.hpp"
#include "util/config.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"

namespace adr::serve {
namespace {

namespace fsys = std::filesystem;

constexpr util::TimePoint kBase = 1'600'000'000;
constexpr std::size_t kUsers = 6;
constexpr double kRetain = 0.5;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Mixed history: creates with distinct atimes (PurgeIndex breaks equal-atime
/// ties by interning order, which is not part of the identity contract), job
/// activity falling off with user id, a couple of publications and accesses.
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

core::ServiceConfig service_config(std::size_t shards) {
  core::ServiceConfig config;
  config.lifetime_days = 30;
  config.eval_shards = shards;
  config.record_victims = true;
  return config;
}

struct ColdResult {
  std::string ranks;         // rank CSV bytes
  std::string victims;       // one path per line, as the daemon writes them
  std::uint64_t purged_bytes = 0;
};

class DaemonTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/adr_daemon_test_" +
                     std::to_string(::getpid());
  util::TimePoint now_ = kBase + util::days(70);

  void SetUp() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
  }

  std::string wal(const std::string& tag) { return dir_ + "/" + tag + "/wal"; }
  std::string state(const std::string& tag) {
    return dir_ + "/" + tag + "/state";
  }

  void write_wal(const std::string& tag,
                 const std::vector<trace::Event>& events) {
    fsys::create_directories(wal(tag));
    trace::EventLogWriter writer(wal(tag));
    for (const auto& event : events) writer.append(event);
  }

  DaemonOptions daemon_options(const std::string& tag, std::size_t shards) {
    DaemonOptions options;
    options.wal_dir = wal(tag);
    options.state_dir = state(tag);
    options.service = service_config(shards);
    options.checkpoint_every_events = 0;  // tests drive cadence explicitly
    options.metrics_every_ticks = 0;
    return options;
  }

  Daemon make_daemon(const std::string& tag, std::size_t shards) {
    return Daemon(trace::UserRegistry::with_synthetic_users(kUsers),
                  daemon_options(tag, shards));
  }

  /// A cold one-shot run over the tag's full WAL with the daemon's exact
  /// trigger arithmetic — the identity reference.
  ColdResult cold_reference(const std::string& tag, std::size_t shards) {
    core::Service service(trace::UserRegistry::with_synthetic_users(kUsers),
                          service_config(shards));
    service.register_paper_types();
    trace::EventLogReader reader(wal(tag));
    for (const auto& event : reader.read_after(0)) service.apply(event);
    const auto target = static_cast<std::uint64_t>(
        static_cast<double>(service.vfs().total_bytes()) * (1.0 - kRetain));
    const auto report = service.purge(now_, target);
    const std::string ranks_path = dir_ + "/cold_ranks_" + tag + ".csv";
    service.ranks().save_csv(ranks_path);
    ColdResult cold;
    cold.ranks = slurp(ranks_path);
    for (const auto& path : report.victim_paths) cold.victims += path + "\n";
    cold.purged_bytes = report.purged_bytes;
    return cold;
  }

  /// Drop a .cmd into the daemon's ctl dir, run one tick, read the reply.
  util::Config ctl(Daemon& daemon, const std::string& name,
                   const std::vector<std::pair<std::string, std::string>>&
                       entries) {
    if (!daemon.started()) daemon.start();  // ctl dir exists after start()
    const std::string cmd_path = daemon.ctl_dir() + "/" + name + ".cmd";
    util::io::AtomicWriter writer(cmd_path, {.fsync = false, .footer = false});
    for (const auto& [key, value] : entries) {
      writer.write_line(key + " = " + value);
    }
    writer.commit();
    daemon.tick();
    const std::string out_path = daemon.ctl_dir() + "/" + name + ".out";
    EXPECT_TRUE(fsys::exists(out_path)) << name << ": no reply";
    EXPECT_FALSE(fsys::exists(cmd_path)) << name << ": .cmd not consumed";
    util::Config reply = util::Config::from_file(out_path);
    fsys::remove(out_path);
    return reply;
  }

  /// Trigger a purge through the control interface; returns the on-disk
  /// ranks/victims bytes plus the reply.
  std::tuple<std::string, std::string, util::Config> trigger(
      Daemon& daemon, const std::string& tag) {
    const std::string ranks_path = dir_ + "/warm_ranks_" + tag + ".csv";
    const std::string victims_path = dir_ + "/warm_victims_" + tag + ".txt";
    util::Config reply = ctl(daemon, "trig_" + tag,
                             {{"cmd", "trigger"},
                              {"now", std::to_string(now_)},
                              {"retain", std::to_string(kRetain)},
                              {"ranks_out", ranks_path},
                              {"victims_out", victims_path}});
    return {slurp(ranks_path), slurp(victims_path), std::move(reply)};
  }
};

TEST_F(DaemonTest, WarmTriggerMatchesColdOneShot) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::string tag = "warm" + std::to_string(shards);
    SCOPED_TRACE(tag);
    write_wal(tag, make_history());
    const ColdResult cold = cold_reference(tag, shards);
    ASSERT_FALSE(cold.victims.empty());

    Daemon daemon = make_daemon(tag, shards);
    daemon.start();
    const auto [ranks, victims, reply] = trigger(daemon, tag);
    EXPECT_EQ(reply.get_string("ok", ""), "true");
    EXPECT_EQ(reply.get_int("purged_bytes", 0),
              static_cast<std::int64_t>(cold.purged_bytes));
    EXPECT_EQ(ranks, cold.ranks);
    EXPECT_EQ(victims, cold.victims);
  }
}

TEST_F(DaemonTest, EvaluateStatusAndErrorReplies) {
  const std::string tag = "ctl";
  const auto events = make_history();
  write_wal(tag, events);
  Daemon daemon = make_daemon(tag, 2);

  const util::Config eval = ctl(daemon, "a_eval",
                                {{"cmd", "evaluate"},
                                 {"now", std::to_string(now_)}});
  EXPECT_EQ(eval.get_string("ok", ""), "true");
  std::int64_t grouped = 0;
  for (int g = 1; g <= 4; ++g) {
    grouped += eval.get_int("g" + std::to_string(g), 0);
  }
  EXPECT_EQ(grouped, static_cast<std::int64_t>(kUsers));

  const util::Config status = ctl(daemon, "b_status", {{"cmd", "status"}});
  EXPECT_EQ(status.get_string("ok", ""), "true");
  EXPECT_EQ(status.get_int("events_applied", -1),
            static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(status.get_int("applied_seq", -1),
            static_cast<std::int64_t>(events.size()));

  const util::Config bogus = ctl(daemon, "c_bogus", {{"cmd", "frobnicate"}});
  EXPECT_EQ(bogus.get_string("ok", ""), "false");
  EXPECT_NE(bogus.get_string("error", "").find("frobnicate"),
            std::string::npos);

  const util::Config missing_now = ctl(daemon, "d_nonow", {{"cmd", "trigger"}});
  EXPECT_EQ(missing_now.get_string("ok", ""), "false");

  const util::Config stop = ctl(daemon, "e_stop", {{"cmd", "stop"}});
  EXPECT_EQ(stop.get_string("ok", ""), "true");
  EXPECT_FALSE(daemon.tick());
}

TEST_F(DaemonTest, CommandIsNotRerunWhenReplyAlreadyExists) {
  // Crash between writing the reply and removing the command: on restart
  // both files exist, and re-running the (non-idempotent) trigger would
  // purge twice. The daemon must just clear the command.
  const std::string tag = "rerun";
  write_wal(tag, make_history());
  Daemon daemon = make_daemon(tag, 1);
  daemon.start();

  const std::string victims_path = dir_ + "/rerun_victims.txt";
  const std::string cmd_path = daemon.ctl_dir() + "/x.cmd";
  const std::string out_path = daemon.ctl_dir() + "/x.out";
  {
    util::io::AtomicWriter out(out_path, {.fsync = false, .footer = false});
    out.write_line("ok = true");
    out.commit();
  }
  {
    util::io::AtomicWriter cmd(cmd_path, {.fsync = false, .footer = false});
    cmd.write_line("cmd = trigger");
    cmd.write_line("now = " + std::to_string(now_));
    cmd.write_line("victims_out = " + victims_path);
    cmd.commit();
  }
  daemon.tick();
  EXPECT_FALSE(fsys::exists(cmd_path));
  EXPECT_TRUE(fsys::exists(out_path));           // reply is left for the client
  EXPECT_FALSE(fsys::exists(victims_path));      // trigger did NOT run
}

TEST_F(DaemonTest, CleanRestartPreservesIdentity) {
  const std::string tag = "restart";
  const auto events = make_history();
  write_wal(tag, events);
  {
    Daemon first = make_daemon(tag, 4);
    first.start();
    first.tick();
    EXPECT_EQ(first.service().last_applied_seq(), events.size());
    first.shutdown();  // seals the WAL + final checkpoint
  }
  // More activity arrives while the daemon is down (writer resumes seq
  // across the sealed segments).
  {
    trace::EventLogWriter writer(wal(tag));
    trace::Event job;
    job.kind = trace::EventKind::kJob;
    job.user = 3;
    job.timestamp = kBase + util::days(65);
    job.impact = 4321.0;
    writer.append(job);
    trace::Event access;
    access.kind = trace::EventKind::kAccess;
    access.user = 4;
    access.timestamp = kBase + util::days(66);
    access.path = "/scratch/user_4/f1.dat";
    writer.append(access);
  }
  const ColdResult cold = cold_reference(tag, 4);

  Daemon second = make_daemon(tag, 4);
  second.start();
  // Recovery came from the checkpoint, not a rescan.
  EXPECT_EQ(second.service().last_applied_seq(), events.size());
  second.tick();
  EXPECT_EQ(second.service().last_applied_seq(), events.size() + 2);
  const auto [ranks, victims, reply] = trigger(second, tag);
  EXPECT_EQ(reply.get_string("ok", ""), "true");
  EXPECT_EQ(ranks, cold.ranks);
  EXPECT_EQ(victims, cold.victims);
}

// kill -9 at every registered daemon-path fault point: recovery must land
// byte-identical ranks and victims versus a cold one-shot over the full log.
TEST_F(DaemonTest, CrashRecoveryIsByteIdenticalAtEveryFaultPoint) {
  struct Case {
    const char* spec;
    bool in_shutdown;  // arm during graceful shutdown instead of a tick
  };
  const Case cases[] = {
      {"serve.post_apply:crash@1", false},
      {"io.atomic.pre_commit:crash@1", false},
      {"io.atomic.pre_rename:crash@1", false},
      {"bundle.member:crash@1", false},
      {"bundle.pre_manifest:crash@1", false},
      // CsvWriter rows inside the checkpoint: activities.csv (24 rows with
      // its header), then snapshot.csv (19), then the MANIFEST.
      {"csv.row:crash@5", false},
      {"csv.row:crash@30", false},
      {"csv.row:crash@45", false},
      {"serve.checkpoint.prune:crash@1", false},
      {"wal.seal.pre_remove:crash@1", true},
  };
  const auto events = make_history();
  const std::size_t half = events.size() / 2;
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const std::string tag = "crash" + std::to_string(c);
    SCOPED_TRACE(std::string(cases[c].spec) + " tag=" + tag);
    write_wal(tag, {events.begin(), events.begin() + static_cast<std::ptrdiff_t>(half)});
    DaemonOptions options = daemon_options(tag, 1);
    options.checkpoint_every_events = 1;  // checkpoint on every applying tick
    options.keep_checkpoints = 1;
    {
      Daemon victim(trace::UserRegistry::with_synthetic_users(kUsers),
                    options);
      victim.start();
      victim.tick();  // applies the first half, checkpoints it
      {
        trace::EventLogWriter writer(wal(tag));
        for (std::size_t i = half; i < events.size(); ++i) {
          writer.append(events[i]);
        }
      }
      util::FaultInjector::global().configure(cases[c].spec);
      if (cases[c].in_shutdown) {
        victim.tick();  // apply the tail cleanly first
        EXPECT_THROW(victim.shutdown(), util::CrashInjected);
      } else {
        EXPECT_THROW(victim.tick(), util::CrashInjected);
      }
      EXPECT_GE(util::FaultInjector::global().fired_count(), 1u);
      util::FaultInjector::global().clear();
      // The Daemon object goes out of scope with no shutdown — the on-disk
      // state is exactly what a kill -9 would leave.
    }
    const ColdResult cold = cold_reference(tag, 1);
    Daemon recovered = make_daemon(tag, 1);
    recovered.start();
    recovered.tick();
    EXPECT_EQ(recovered.service().last_applied_seq(), events.size());
    const auto [ranks, victims, reply] = trigger(recovered, tag);
    EXPECT_EQ(reply.get_string("ok", ""), "true");
    EXPECT_EQ(ranks, cold.ranks);
    EXPECT_EQ(victims, cold.victims);
  }
}

// A full disk fails the cadence checkpoint: the daemon keeps applying,
// retries the checkpoint on a later tick, and recovery after a kill -9 still
// lands on the cold one-shot bytes.
TEST_F(DaemonTest, EnospcCheckpointIsRetriedOnALaterTick) {
  const std::string tag = "enospc";
  const auto events = make_history();
  const std::size_t half = events.size() / 2;
  write_wal(tag, {events.begin(),
                  events.begin() + static_cast<std::ptrdiff_t>(half)});
  DaemonOptions options = daemon_options(tag, 1);
  options.checkpoint_every_events = 1;
  options.keep_checkpoints = 1;
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t failures_before =
      metrics.counter("serve.checkpoint_failures").value();
  const std::uint64_t observed_before =
      metrics.histogram("serve.checkpoint_seconds").count();
  {
    Daemon victim(trace::UserRegistry::with_synthetic_users(kUsers), options);
    victim.start();
    util::FaultInjector::global().configure("io.atomic.write:enospc@100");
    EXPECT_NO_THROW(victim.tick());  // applies the first half, fails to save
    EXPECT_GE(util::FaultInjector::global().fired_count(), 1u);
    util::FaultInjector::global().clear();
    EXPECT_EQ(victim.service().last_applied_seq(), half);
    EXPECT_EQ(metrics.counter("serve.checkpoint_failures").value(),
              failures_before + 1);
    EXPECT_EQ(metrics.histogram("serve.checkpoint_seconds").count(),
              observed_before);
    {
      trace::EventLogWriter writer(wal(tag));
      for (std::size_t i = half; i < events.size(); ++i) {
        writer.append(events[i]);
      }
    }
    victim.tick();  // the retry: the disk has room again
    EXPECT_EQ(metrics.histogram("serve.checkpoint_seconds").count(),
              observed_before + 1);
    // The gauge holds the new checkpoint's member payload bytes.
    std::vector<std::string> dirs;
    for (const auto& entry : fsys::directory_iterator(victim.checkpoints_dir())) {
      dirs.push_back(entry.path().string());
    }
    std::sort(dirs.begin(), dirs.end());
    ASSERT_FALSE(dirs.empty());
    const util::io::BundleCheck check = util::io::verify_bundle(dirs.back());
    ASSERT_TRUE(check.valid()) << check.error;
    std::uint64_t bytes = 0;
    for (const auto& m : check.members) bytes += m.bytes;
    EXPECT_EQ(metrics.gauge("serve.checkpoint_bytes").value(),
              static_cast<std::int64_t>(bytes));
    // No shutdown: the on-disk state is what a kill -9 leaves.
  }
  const ColdResult cold = cold_reference(tag, 1);
  Daemon recovered = make_daemon(tag, 1);
  recovered.start();
  EXPECT_EQ(recovered.service().last_applied_seq(), events.size());
  recovered.tick();
  const auto [ranks, victims, reply] = trigger(recovered, tag);
  EXPECT_EQ(reply.get_string("ok", ""), "true");
  EXPECT_EQ(ranks, cold.ranks);
  EXPECT_EQ(victims, cold.victims);
}

// Crash mid-checkpoint leaves a half bundle: recovery must skip it, restore
// the previous checkpoint, and replay the longer WAL tail.
TEST_F(DaemonTest, HalfBundleCheckpointDegradesToOlderOne) {
  const std::string tag = "halfbundle";
  const auto events = make_history();
  const std::size_t half = events.size() / 2;
  write_wal(tag, {events.begin(), events.begin() + static_cast<std::ptrdiff_t>(half)});
  DaemonOptions options = daemon_options(tag, 1);
  options.checkpoint_every_events = 1;
  options.keep_checkpoints = 4;  // keep the older checkpoint around
  std::string checkpoints;
  {
    Daemon victim(trace::UserRegistry::with_synthetic_users(kUsers), options);
    victim.start();
    victim.tick();
    checkpoints = victim.checkpoints_dir();
    {
      trace::EventLogWriter writer(wal(tag));
      for (std::size_t i = half; i < events.size(); ++i) {
        writer.append(events[i]);
      }
    }
    util::FaultInjector::global().configure("bundle.pre_manifest:crash@1");
    EXPECT_THROW(victim.tick(), util::CrashInjected);
    util::FaultInjector::global().clear();
  }
  // Two checkpoint dirs: the old sealed one and the new torn one.
  std::vector<std::string> dirs;
  for (const auto& entry : fsys::directory_iterator(checkpoints)) {
    dirs.push_back(entry.path().string());
  }
  std::sort(dirs.begin(), dirs.end());
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_TRUE(util::io::verify_bundle(dirs[0]).valid());
  EXPECT_FALSE(util::io::verify_bundle(dirs[1]).valid());

  Daemon recovered = make_daemon(tag, 1);
  recovered.start();
  EXPECT_EQ(recovered.service().last_applied_seq(), half);  // older checkpoint
  recovered.tick();
  EXPECT_EQ(recovered.service().last_applied_seq(), events.size());
  const ColdResult cold = cold_reference(tag, 1);
  const auto [ranks, victims, reply] = trigger(recovered, tag);
  EXPECT_EQ(ranks, cold.ranks);
  EXPECT_EQ(victims, cold.victims);
}

TEST_F(DaemonTest, TornWalTailIsSalvagedAndReappliedAfterRefeed) {
  const std::string tag = "torn";
  const auto events = make_history();
  write_wal(tag, events);
  // Tear the open segment: a crashed feeder left a partial final line.
  std::string open_path;
  for (const auto& entry : fsys::directory_iterator(wal(tag))) {
    if (entry.path().extension() == ".open") open_path = entry.path().string();
  }
  ASSERT_FALSE(open_path.empty());
  fsys::resize_file(open_path, fsys::file_size(open_path) - 7);

  Daemon daemon = make_daemon(tag, 1);
  daemon.start();
  daemon.tick();
  EXPECT_EQ(daemon.service().last_applied_seq(), events.size() - 1);

  // The restarted feeder truncates the torn suffix and re-appends the lost
  // record at the same seq; the tailer picks it up.
  {
    trace::EventLogWriter writer(wal(tag));
    EXPECT_EQ(writer.next_seq(), events.size());
    writer.append(events.back());
  }
  daemon.tick();
  EXPECT_EQ(daemon.service().last_applied_seq(), events.size());

  const ColdResult cold = cold_reference(tag, 1);
  const auto [ranks, victims, reply] = trigger(daemon, tag);
  EXPECT_EQ(ranks, cold.ranks);
  EXPECT_EQ(victims, cold.victims);
}

TEST_F(DaemonTest, GracefulRunSealsWalAndCheckpoints) {
  const std::string tag = "run";
  const auto events = make_history();
  write_wal(tag, events);
  DaemonOptions options = daemon_options(tag, 1);
  options.max_ticks = 1;
  options.poll_interval_ms = 1;
  options.metrics_out = dir_ + "/metrics.json";
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  EXPECT_EQ(daemon.run(), 0);

  // The WAL was sealed: no .open segment remains, the sealed one verifies.
  std::size_t open_count = 0, seg_count = 0;
  for (const auto& entry : fsys::directory_iterator(wal(tag))) {
    if (entry.path().extension() == ".open") ++open_count;
    if (entry.path().extension() == ".seg") ++seg_count;
  }
  EXPECT_EQ(open_count, 0u);
  EXPECT_GE(seg_count, 1u);

  // A final checkpoint at the full applied seq exists and restores.
  Daemon reopened = make_daemon(tag, 1);
  reopened.start();
  EXPECT_EQ(reopened.service().last_applied_seq(), events.size());

  // Metrics were exported on shutdown.
  const std::string metrics = slurp(options.metrics_out);
  EXPECT_NE(metrics.find("serve.events_applied"), std::string::npos);
  EXPECT_NE(metrics.find("serve.graceful_stops"), std::string::npos);
}

TEST_F(DaemonTest, PeriodicMetricsExport) {
  const std::string tag = "metrics";
  write_wal(tag, make_history());
  DaemonOptions options = daemon_options(tag, 1);
  options.metrics_out = dir_ + "/metrics_periodic.json";
  options.metrics_every_ticks = 1;
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  daemon.start();
  daemon.tick();
  const std::string metrics = slurp(options.metrics_out);
  EXPECT_NE(metrics.find("serve.events_applied"), std::string::npos);
  EXPECT_NE(metrics.find("serve.wal_lag"), std::string::npos);
}

}  // namespace
}  // namespace adr::serve
