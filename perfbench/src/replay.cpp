#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "trace/user_registry.hpp"
#include "util/config.hpp"
#include "util/io.hpp"
#include "util/memory.hpp"

namespace perfbench {

namespace {

namespace core = adr::core;
namespace fsys = std::filesystem;
namespace retention = adr::retention;
namespace trace = adr::trace;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Program counters read as deltas over the timed replay.
class CounterProbe {
 public:
  static constexpr const char* kNames[] = {
      "incremental.users_dirty",  "incremental.users_reevaluated",
      "incremental.full_rebuilds", "policy.victims_considered",
      "policy.victims_purged",    "vfs.evictions",
      "vfs.faults",               "service.checkpoints",
      "service.access_misses",
  };

  CounterProbe() {
    for (const char* name : kNames) {
      start_.push_back(adr::obs::MetricsRegistry::global().counter(name).value());
    }
  }

  void add_deltas(std::map<std::string, std::uint64_t>& out) const {
    for (std::size_t i = 0; i < std::size(kNames); ++i) {
      out[kNames[i]] =
          adr::obs::MetricsRegistry::global().counter(kNames[i]).value() -
          start_[i];
    }
  }

 private:
  std::vector<std::uint64_t> start_;
};

core::ServiceConfig service_config(bool reference) {
  core::ServiceConfig c;
  // Most of the backfill (spread over the 400 days before the span) is
  // past this lifetime, so every trigger has expired files to choose from.
  c.lifetime_days = 30;
  // Victim lists are what the reference check compares.
  c.record_victims = true;
  if (reference) {
    c.eval_mode = adr::activeness::EvalMode::kFull;
    c.eval_shards = 1;
    c.scan_mode = retention::ScanMode::kWalk;
  }
  return c;
}

/// The daemon's `trigger` target at its default retain = 0.5: purge half
/// of the current usage.
std::uint64_t daemon_target(const adr::fs::Vfs& vfs) {
  return static_cast<std::uint64_t>(static_cast<double>(vfs.total_bytes()) *
                                    (1.0 - 0.5));
}

/// Op bookkeeping shared by both replays: digests, the check against the
/// expected digests, and the per-op counts.
class OpLog {
 public:
  OpLog(const RunOptions& options, RunResult& result)
      : expected_(options.expected), result_(result) {}

  void record(const OpDigest& d, bool reply_ok, bool target_reached) {
    const std::size_t i = result_.digests.ops.size();
    result_.digests.ops.push_back(d);
    ++result_.attempted;
    bool ok = reply_ok;
    if (expected_) {
      ok = ok && i < expected_->ops.size() && expected_->ops[i] == d;
    }
    if (!ok) {
      ++result_.failed;
      if (result_.problems.size() < 8) {
        result_.problems.push_back("op " + std::to_string(i) + " at " +
                                   std::to_string(d.at) +
                                   (reply_ok ? " differs from the reference"
                                             : " got no ok reply"));
      }
    }
    auto& c = result_.counts;
    if (d.kind == OpKind::kTrigger) {
      ++c["triggers"];
      c["victims"] += d.victims;
      c["purged_bytes"] += d.purged_bytes;
      if (target_reached) ++c["targets_reached"];
    } else {
      ++c["refreshes"];
    }
  }

  void finish(std::uint64_t final_ranks) {
    result_.digests.final_ranks = final_ranks;
    if (!expected_) return;
    if (expected_->ops.size() != result_.digests.ops.size()) {
      result_.problems.push_back("op count differs from the reference");
    }
    if (expected_->final_ranks != final_ranks) {
      result_.problems.push_back("final ranks differ from the reference");
    }
  }

 private:
  const Digests* expected_;
  RunResult& result_;
};

void read_state(const adr::fs::Vfs& vfs, RunResult& r) {
  r.state["files"] = static_cast<double>(vfs.file_count());
  r.state["resident_bytes"] =
      static_cast<double>(vfs.resident_bytes_estimate());
  r.state["spilled_bytes"] = static_cast<double>(vfs.spilled_bytes());
  r.state["evicted_users"] = static_cast<double>(vfs.evicted_user_count());
  r.state["purge_index_bytes"] =
      static_cast<double>(vfs.purge_index().memory_bytes());
  std::string error;
  if (!vfs.verify_purge_index(&error)) {
    r.problems.push_back("purge index inconsistent: " + error);
  }
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : fsys::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// -- core::Service workloads (and every reference replay) -------------------

RunResult replay_service(const WorkloadSpec& spec, InputReader& input,
                         const RunOptions& options, Tracer& tracer) {
  RunResult res;
  const core::ServiceConfig config = service_config(options.reference);
  const int reps = options.reference ? 1 : spec.setup_reps;
  // serve_wal's reference replays the daemon's trigger rule through the
  // plain service.
  const bool daemon_rule = spec.kind == WorkloadKind::kServeWal;
  trace::Event ev;
  Record rec;

  std::unique_ptr<core::Service> svc;
  for (int rep = 0; rep < reps; ++rep) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<core::Service>(
        trace::UserRegistry::with_synthetic_users(spec.users), config);
    svc->register_paper_types();
    input.rewind();
    for (std::uint64_t i = 0; i < input.backfill() && input.next(rec); ++i) {
      to_event(rec, i + 1, ev);
      if (!svc->apply(ev)) res.problems.push_back("backfill apply refused");
    }
    svc->evaluate(spec.sim_begin());
    res.setup_s.push_back(seconds_since(t0));
  }
  res.shards = svc->pipeline().shard_count();

  const std::vector<Op> ops = schedule(spec);
  const bool refresh_ops = spec.refresh_every > 0;
  OpLog log(options, res);
  ReplayClock clock;

  const auto fire = [&](const Op& op) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, Layer::kEvaluate);
      svc->evaluate(op.at);
    }
    const Clock::time_point t1 = Clock::now();
    OpDigest d{op.kind, op.at};
    bool target_reached = false;
    if (op.kind == OpKind::kTrigger) {
      retention::PurgeReport report;
      {
        Tracer::Scope span(tracer, Layer::kPurge);
        report = daemon_rule ? svc->purge(op.at, daemon_target(svc->vfs()))
                             : svc->purge(op.at);
      }
      res.trigger_ms.push_back(ms_between(t0, Clock::now()));
      // Without refresh ops, a trigger's opening evaluate is the refresh.
      if (!refresh_ops) res.refresh_ms.push_back(ms_between(t0, t1));
      clock.pause();
      d.victims = report.victim_paths.size();
      d.purged_bytes = report.purged_bytes;
      d.victims_hash = victims_digest(report.victim_paths);
      target_reached = report.target_reached;
    } else {
      res.refresh_ms.push_back(ms_between(t0, t1));
      clock.pause();
    }
    d.ranks_hash = rank_digest(svc->ranks());
    log.record(d, true, target_reached);
    clock.resume();
  };

  const CounterProbe probe;
  std::uint64_t file_events = 0;
  std::uint64_t seq = input.backfill();
  std::size_t next_op = 0;
  input.seek_live();
  clock.start();
  while (input.next(rec)) {
    while (next_op < ops.size() && ops[next_op].at <= rec.ts) {
      fire(ops[next_op++]);
    }
    to_event(rec, ++seq, ev);
    const bool file = is_file_record(rec);
    if (file) ++file_events;
    bool applied = false;
    try {
      Tracer::Scope span(tracer,
                         file ? Layer::kApplyFile : Layer::kApplyActivity);
      applied = svc->apply(ev);
    } catch (const std::exception&) {
      // A throwing apply is a failed operation, counted below.
    }
    ++res.attempted;
    ++res.live_events;
    if (!applied) ++res.failed;
  }
  while (next_op < ops.size()) fire(ops[next_op++]);
  res.replay_s = clock.elapsed_s();
  res.rss_peak_bytes = adr::util::peak_rss_bytes();

  // Untimed from here on.
  probe.add_deltas(res.counts);
  res.counts["file_events"] = file_events;
  log.finish(rank_digest(svc->evaluate(spec.sim_end() + adr::util::days(1))));
  read_state(svc->vfs(), res);
  return res;
}

// -- serve::Daemon workload --------------------------------------------------

/// The feeder and operator of one daemon: ticks it, drops ctl commands and
/// reads their replies, all on the calling thread.
class DaemonClient {
 public:
  DaemonClient(adr::serve::Daemon& daemon, Tracer& tracer)
      : daemon_(daemon),
        tracer_(tracer),
        checkpoints_(adr::obs::MetricsRegistry::global().counter(
            "service.checkpoints")) {}

  /// One Daemon::tick, filed under the layer that names what it did.
  void tick(Layer command = Layer::kTick) {
    const std::uint64_t before = checkpoints_.value();
    Tracer::Scope span(tracer_, Layer::kTick);
    daemon_.tick();
    if (command != Layer::kTick) {
      span.relabel(command);
    } else if (checkpoints_.value() != before) {
      span.relabel(Layer::kTickCheckpoint);
    }
  }

  struct Reply {
    bool ok = false;
    bool target_reached = false;
    std::uint64_t purged_bytes = 0;
    std::vector<std::string> victims;
  };

  /// Drop a ctl command and let the next tick answer it. Returns the
  /// latency from the drop to the written reply; read the reply with
  /// take_reply() afterwards (untimed).
  double command(const Op& op) {
    char stem[32];
    std::snprintf(stem, sizeof(stem), "/op-%06llu",
                  static_cast<unsigned long long>(++seq_));
    base_ = daemon_.ctl_dir() + stem;
    const bool trigger = op.kind == OpKind::kTrigger;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer_, Layer::kCtl);
      {
        // Committed via rename, as `activedr ctl` does.
        adr::util::io::AtomicWriter writer(base_ + ".cmd",
                                           {.fsync = false, .footer = false});
        writer.write_line(trigger ? "cmd = trigger" : "cmd = evaluate");
        writer.write_line("now = " + std::to_string(op.at));
        if (trigger) writer.write_line("victims_out = " + base_ + ".victims");
        writer.commit();
      }
      tick(trigger ? Layer::kTickTrigger : Layer::kTickRefresh);
    }
    return ms_between(t0, Clock::now());
  }

  Reply take_reply() {
    Reply reply;
    const std::string out = base_ + ".out";
    if (fsys::exists(out)) {
      const adr::util::Config parsed = adr::util::Config::from_file(out);
      reply.ok = parsed.get_bool("ok", false);
      reply.target_reached = parsed.get_bool("target_reached", false);
      reply.purged_bytes =
          static_cast<std::uint64_t>(parsed.get_int("purged_bytes", 0));
      fsys::remove(out);
    }
    std::ifstream victims(base_ + ".victims");
    for (std::string line; std::getline(victims, line);) {
      reply.victims.push_back(line);
    }
    victims.close();
    std::error_code ec;
    fsys::remove(base_ + ".victims", ec);
    return reply;
  }

 private:
  adr::serve::Daemon& daemon_;
  Tracer& tracer_;
  adr::obs::Counter& checkpoints_;
  std::uint64_t seq_ = 0;
  std::string base_;
};

RunResult replay_daemon(const WorkloadSpec& spec, InputReader& input,
                        const RunOptions& options, Tracer& tracer) {
  RunResult res;
  const std::string wal_dir = options.run_dir + "/wal";
  fsys::remove_all(options.run_dir);
  fsys::create_directories(wal_dir);
  trace::Event ev;
  Record rec;

  // Input generation: the backfill population as the WAL's first records.
  trace::EventLogWriter writer(wal_dir);
  input.rewind();
  for (std::uint64_t i = 0; i < input.backfill() && input.next(rec); ++i) {
    to_event(rec, 0, ev);
    writer.append(ev);
  }

  adr::serve::DaemonOptions dopt;
  dopt.wal_dir = wal_dir;
  dopt.service = service_config(false);
  std::unique_ptr<adr::serve::Daemon> daemon;
  std::unique_ptr<DaemonClient> client;
  Tracer setup_tracer(false);
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    client.reset();
    daemon.reset();
    dopt.state_dir = options.run_dir + "/state-" + std::to_string(rep);
    if (rep > 0) {
      fsys::remove_all(options.run_dir + "/state-" + std::to_string(rep - 1));
    }
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<adr::serve::Daemon>(
        trace::UserRegistry::with_synthetic_users(spec.users), dopt);
    daemon->service().vfs().set_memory_budget_bytes(spec.vfs_budget_bytes);
    daemon->start();
    client = std::make_unique<DaemonClient>(*daemon, setup_tracer);
    while (daemon->events_applied() < input.backfill()) {
      const std::uint64_t before = daemon->events_applied();
      client->tick();
      if (daemon->events_applied() == before) {
        res.problems.push_back("daemon stalled replaying the backfill WAL");
        break;
      }
    }
    client->command({spec.sim_begin(), OpKind::kRefresh});
    res.setup_s.push_back(seconds_since(t0));
    if (!client->take_reply().ok) {
      res.problems.push_back("set-up evaluate got no ok reply");
    }
  }
  client = std::make_unique<DaemonClient>(*daemon, tracer);
  res.shards = daemon->service().pipeline().shard_count();

  const std::vector<Op> ops = schedule(spec);
  OpLog log(options, res);
  ReplayClock clock;

  const auto fire = [&](const Op& op) {
    // Drain what the feeder appended since the last cadence tick, so the
    // command tick answers at once (as a daemon caught up with its WAL).
    client->tick();
    const double latency = client->command(op);
    (op.kind == OpKind::kTrigger ? res.trigger_ms : res.refresh_ms)
        .push_back(latency);
    clock.pause();
    DaemonClient::Reply reply = client->take_reply();
    OpDigest d{op.kind, op.at};
    if (op.kind == OpKind::kTrigger) {
      d.victims = reply.victims.size();
      d.purged_bytes = reply.purged_bytes;
      d.victims_hash = victims_digest(reply.victims);
    }
    d.ranks_hash = rank_digest(daemon->service().ranks());
    log.record(d, reply.ok, reply.target_reached);
    clock.resume();
  };

  const CounterProbe probe;
  std::uint64_t appended = 0;
  std::uint64_t file_events = 0;
  std::size_t next_op = 0;
  input.seek_live();
  clock.start();
  while (input.next(rec)) {
    while (next_op < ops.size() && ops[next_op].at <= rec.ts) {
      fire(ops[next_op++]);
    }
    to_event(rec, 0, ev);
    if (is_file_record(rec)) ++file_events;
    try {
      Tracer::Scope span(tracer, Layer::kWalAppend);
      writer.append(ev);
      ++appended;
    } catch (const std::exception&) {
      ++res.failed;
    }
    ++res.attempted;
    ++res.live_events;
    if (appended % spec.tick_every_events == 0) client->tick();
  }
  while (next_op < ops.size()) fire(ops[next_op++]);
  client->tick();
  res.replay_s = clock.elapsed_s();
  res.rss_peak_bytes = adr::util::peak_rss_bytes();

  // Untimed from here on.
  probe.add_deltas(res.counts);
  res.counts["file_events"] = file_events;
  const std::uint64_t expected_applied = input.backfill() + appended;
  if (daemon->events_applied() != expected_applied) {
    const std::uint64_t applied = daemon->events_applied();
    res.failed += applied < expected_applied ? expected_applied - applied : 0;
    res.problems.push_back("daemon applied " + std::to_string(applied) +
                           " of " + std::to_string(expected_applied) +
                           " WAL events");
  }
  writer.flush();
  res.state["wal_bytes"] = static_cast<double>(tree_bytes(wal_dir));
  res.state["wal_records"] = static_cast<double>(writer.next_seq() - 1);
  // Checkpoint names carry a zero-padded seq: the greatest is the newest.
  fsys::path newest;
  for (const auto& e : fsys::directory_iterator(daemon->checkpoints_dir())) {
    if (e.is_directory() && e.path() > newest) newest = e.path();
  }
  res.state["checkpoint_bytes"] =
      newest.empty() ? 0.0 : static_cast<double>(tree_bytes(newest));
  log.finish(rank_digest(
      daemon->service().evaluate(spec.sim_end() + adr::util::days(1))));
  read_state(daemon->service().vfs(), res);
  return res;
}

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, InputReader& input,
                       const RunOptions& options, Tracer& tracer) {
  RunResult res = spec.kind == WorkloadKind::kServeWal && !options.reference
                      ? replay_daemon(spec, input, options, tracer)
                      : replay_service(spec, input, options, tracer);
  res.layers = tracer.stats();
  return res;
}

}  // namespace perfbench
