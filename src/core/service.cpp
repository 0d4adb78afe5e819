#include "core/service.hpp"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "retention/policy.hpp"
#include "trace/snapshot.hpp"
#include "util/bundle.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::core {

namespace {

namespace fsys = std::filesystem;

constexpr char kCheckpointFormat[] = "adr-checkpoint-v1";
constexpr char kMetaName[] = "meta.conf";
constexpr char kActivitiesName[] = "activities.csv";
constexpr char kSnapshotName[] = "snapshot.csv";

}  // namespace

Service::Service(trace::UserRegistry registry, ServiceConfig config)
    : registry_(std::move(registry)), config_(config) {
  activeness::EvaluationParams params;
  params.period_length_days = config_.lifetime_days;
  params.scheme = config_.scheme;
  params.max_periods = config_.max_periods;
  pipeline_.emplace(catalog_, params, config_.eval_mode, config_.eval_shards);
}

activeness::ActivityStore& Service::ensure_store() {
  if (!store_) {
    store_.emplace(registry_.size(), catalog_.size());
  }
  return *store_;
}

activeness::ActivityTypeId Service::register_operation_type(
    const std::string& name, double weight) {
  const auto id =
      catalog_.add({name, activeness::ActivityCategory::kOperation, weight});
  if (store_) store_->add_types(1);
  return id;
}

activeness::ActivityTypeId Service::register_outcome_type(
    const std::string& name, double weight) {
  const auto id =
      catalog_.add({name, activeness::ActivityCategory::kOutcome, weight});
  if (store_) store_->add_types(1);
  return id;
}

void Service::register_paper_types() {
  if (catalog_.size() != 0) {
    throw std::logic_error(
        "Service::register_paper_types: catalog already populated");
  }
  register_operation_type("job_submission", 1.0);
  register_outcome_type("publication", 1.0);
}

void Service::reserve(const std::string& path) { exemptions_.reserve(path); }

void Service::set_exemptions(retention::ExemptionList exemptions) {
  exemptions_ = std::move(exemptions);
}

void Service::record(trace::UserId user, activeness::ActivityTypeId type,
                     util::TimePoint t, double impact) {
  if (type >= catalog_.size())
    throw std::out_of_range("Service::record: unregistered activity type");
  const double weight = catalog_.spec(type).weight;
  ensure_store().append(user, type, activeness::Activity{t, weight * impact});
}

void Service::ingest_jobs(const trace::JobLog& jobs,
                          activeness::ActivityTypeId type, double weight) {
  activeness::ingest_jobs(ensure_store(), type, weight, jobs);
}

void Service::ingest_publications(const trace::PublicationLog& pubs,
                                  activeness::ActivityTypeId type,
                                  double weight) {
  activeness::ingest_publications(ensure_store(), type, weight, pubs);
}

bool Service::apply(const trace::Event& event) {
  auto& metrics = obs::MetricsRegistry::global();
  if (event.seq != 0 && event.seq <= last_applied_seq_) {
    metrics.counter("service.events_skipped").add();
    return false;
  }
  switch (event.kind) {
    case trace::EventKind::kJob:
    case trace::EventKind::kPublication: {
      const activeness::ActivityTypeId type =
          event.kind == trace::EventKind::kJob ? kJobActivityType
                                               : kPublicationActivityType;
      if (type >= catalog_.size()) {
        throw std::runtime_error(
            "Service::apply: activity types not registered (call "
            "register_paper_types first)");
      }
      // Impacts arrive pre-weighted from the feed side so a WAL replay and
      // a bulk trace ingest agree bit-for-bit.
      ensure_store().append(event.user, type,
                            activeness::Activity{event.timestamp,
                                                 event.impact});
      break;
    }
    case trace::EventKind::kAccess:
      // The acting user doubles as the residency owner hint: an access to
      // an evicted subtree faults it back instead of counting a miss.
      if (!vfs_.access(event.path, event.timestamp, event.user)) {
        metrics.counter("service.access_misses").add();
      }
      break;
    case trace::EventKind::kCreate: {
      fs::FileMeta meta;
      meta.owner = event.user;
      meta.size_bytes = event.size_bytes;
      meta.stripe_count = event.stripe_count;
      meta.atime = event.timestamp;
      meta.ctime = event.timestamp;
      vfs_.create(event.path, meta);
      break;
    }
    case trace::EventKind::kRemove:
      vfs_.remove(event.path, event.user);
      break;
  }
  if (event.seq != 0) {
    last_applied_seq_ = event.seq;
    metrics.gauge("service.applied_seq")
        .set(static_cast<std::int64_t>(event.seq));
  }
  metrics.counter("service.events_applied").add();
  return true;
}

void Service::prepare_ingest() {
  ensure_store().set_dirty_shards(pipeline_->shard_count());
}

void Service::load_snapshot(const trace::Snapshot& snapshot) {
  vfs_.import_snapshot(snapshot);
}

void Service::set_degraded(bool degraded) {
  if (degraded_ == degraded) return;
  degraded_ = degraded;
  obs::MetricsRegistry::global().counter("service.degrade_transitions").add();
}

const activeness::RankStore& Service::evaluate(util::TimePoint now) {
  activeness::ActivityStore& store = ensure_store();
  // The guard also checks the ingest queues: a daemon trigger repeated at
  // the same `now` must still fold in events producers enqueued since the
  // last advance.
  if (last_eval_time_ && *last_eval_time_ == now && !store.has_dirty() &&
      !store.has_pending_ingest()) {
    return ranks_;
  }
  util::FaultInjector::global().crash_point("service.evaluate");
  pipeline_->advance(store, now);
  ranks_ = activeness::RankStore(pipeline_->users());
  last_eval_time_ = now;
  return ranks_;
}

std::array<std::size_t, activeness::kGroupCount> Service::group_counts()
    const {
  return ranks_.group_counts();
}

activeness::UserActiveness Service::activeness_of(trace::UserId user) const {
  return ranks_.get(user);
}

util::Duration Service::effective_lifetime_of(trace::UserId user) const {
  const double mult = activeness::lifetime_multiplier(ranks_.get(user),
                                                      config_.lifetime_mode);
  return static_cast<util::Duration>(
      static_cast<double>(util::days(config_.lifetime_days)) * mult);
}

activeness::UserGroup Service::group_of(trace::UserId user) const {
  const std::vector<activeness::UserGroup>& groups = pipeline_->groups();
  return user < groups.size() ? groups[user]
                              : activeness::UserGroup::kBothInactive;
}

retention::PurgeReport Service::purge(util::TimePoint now) {
  const std::uint64_t target =
      config_.purge_target_utilization > 0.0
          ? retention::purge_target_bytes(vfs_,
                                          config_.purge_target_utilization)
          : 0;
  return purge(now, target);
}

retention::PurgeReport Service::purge(util::TimePoint now,
                                      std::uint64_t target_bytes) {
  evaluate(now);
  util::FaultInjector::global().crash_point("service.purge");
  retention::ActiveDrConfig config;
  config.initial_lifetime_days = config_.lifetime_days;
  config.retrospective_passes = config_.retrospective_passes;
  config.retrospective_decay = config_.retrospective_decay;
  config.lifetime_mode = config_.lifetime_mode;
  config.dry_run = config_.dry_run;
  config.record_victims = config_.record_victims;
  config.scan_mode = config_.scan_mode;
  retention::ActiveDrPolicy policy(config, registry_);
  if (!exemptions_.empty()) {
    retention::ExemptionList copy;
    for (const auto& p : exemptions_.reserved_paths()) copy.reserve(p);
    policy.set_exemptions(std::move(copy));
  }
  return policy.run(vfs_, now, target_bytes, pipeline_->plan());
}

retention::PurgeReport Service::purge_flt(util::TimePoint now) {
  const std::uint64_t target =
      config_.purge_target_utilization > 0.0
          ? retention::purge_target_bytes(vfs_,
                                          config_.purge_target_utilization)
          : 0;
  return purge_flt(now, target);
}

retention::PurgeReport Service::purge_flt(util::TimePoint now,
                                          std::uint64_t target_bytes) {
  retention::FltConfig config;
  config.lifetime_days = config_.lifetime_days;
  config.dry_run = config_.dry_run;
  config.record_victims = config_.record_victims;
  config.scan_mode = config_.scan_mode;
  retention::FltPolicy policy(config);
  policy.set_group_of([this](trace::UserId user) { return group_of(user); });
  return policy.run(vfs_, now, target_bytes);
}

std::uint64_t Service::save_checkpoint(const std::string& dir) {
  util::FaultInjector::global().crash_point("service.checkpoint");
  fsys::create_directories(dir);
  activeness::ActivityStore& store = ensure_store();
  // Fold queued events in first — a checkpoint must cover everything the
  // applied-seq watermark claims it covers.
  store.drain_ingest();

  {
    util::io::AtomicWriter writer(dir + "/" + kActivitiesName,
                                  {.fsync = util::io::default_fsync()});
    util::CsvWriter csv(writer.stream());
    csv.row("user", "type", "timestamp", "impact");
    for (trace::UserId user = 0;
         user < static_cast<trace::UserId>(store.user_count()); ++user) {
      for (activeness::ActivityTypeId type = 0; type < store.type_count();
           ++type) {
        for (const auto& activity : store.stream(user, type)) {
          csv.row(user, type, activity.timestamp, activity.impact);
        }
      }
    }
    writer.commit();
  }

  {
    // Streamed from the Vfs: the same bytes as
    // export_snapshot().save_csv(), without building the Snapshot.
    trace::SnapshotCsvWriter snapshot(dir + "/" + kSnapshotName);
    vfs_.visit_snapshot([&](const std::string& path, const fs::FileMeta& m) {
      snapshot.add(path, m.owner, m.stripe_count, m.size_bytes, m.atime);
    });
    snapshot.commit();
  }

  {
    util::io::AtomicWriter writer(dir + "/" + kMetaName,
                                  {.fsync = util::io::default_fsync()});
    writer.write_line(std::string("format = ") + kCheckpointFormat);
    writer.write_line("applied_seq = " + std::to_string(last_applied_seq_));
    writer.write_line("users = " + std::to_string(registry_.size()));
    writer.write_line("types = " + std::to_string(catalog_.size()));
    writer.commit();
  }

  std::uint64_t bytes = 0;
  for (const auto& member : util::io::commit_bundle(
           dir, {kMetaName, kActivitiesName, kSnapshotName})) {
    bytes += member.bytes;
  }
  obs::MetricsRegistry::global().counter("service.checkpoints").add();
  return bytes;
}

Service::RestoreStatus Service::restore_checkpoint(const std::string& dir) {
  RestoreStatus status;
  if (store_ && store_->total_activities() > 0) {
    throw std::logic_error(
        "Service::restore_checkpoint: service already holds state");
  }

  const util::io::BundleCheck bundle = util::io::verify_bundle(dir);
  if (!bundle.valid()) {
    status.error = bundle.state == util::io::BundleState::kUnsealed
                       ? "checkpoint bundle unsealed (crash mid-write?)"
                       : "checkpoint bundle invalid: " + bundle.error;
    return status;
  }

  // Parse everything before mutating anything: a failure below must leave
  // the service clean for a retry against an older checkpoint.
  util::Config meta;
  try {
    meta = util::Config::from_file(dir + "/" + kMetaName);
  } catch (const std::exception& e) {
    status.error = std::string("meta.conf unreadable: ") + e.what();
    return status;
  }
  if (meta.get_string("format", "") != kCheckpointFormat) {
    status.error = "meta.conf format is not " + std::string(kCheckpointFormat);
    return status;
  }
  const auto users = static_cast<std::size_t>(meta.get_int("users", -1));
  const auto types = static_cast<std::size_t>(meta.get_int("types", -1));
  if (users != registry_.size()) {
    status.error = "checkpoint has " + std::to_string(users) +
                   " users, registry has " + std::to_string(registry_.size());
    return status;
  }
  if (types > catalog_.size()) {
    status.error = "checkpoint references " + std::to_string(types) +
                   " activity types, only " + std::to_string(catalog_.size()) +
                   " registered";
    return status;
  }

  struct Row {
    trace::UserId user;
    activeness::ActivityTypeId type;
    activeness::Activity activity;
  };
  std::vector<Row> rows;
  const std::string activities_file = kActivitiesName;  // parse-error context
  try {
    const util::io::Artifact artifact =
        util::io::read_artifact(dir + "/" + kActivitiesName);
    if (artifact.state == util::io::ArtifactState::kCorrupt) {
      status.error = "activities.csv failed verification: " + artifact.error;
      return status;
    }
    std::istringstream in(artifact.content);
    util::CsvReader reader(in);
    if (!reader.read_header() || reader.column("user") == util::CsvReader::npos ||
        reader.column("type") == util::CsvReader::npos ||
        reader.column("timestamp") == util::CsvReader::npos ||
        reader.column("impact") == util::CsvReader::npos) {
      status.error = "activities.csv has no user/type/timestamp/impact header";
      return status;
    }
    while (auto row = reader.next()) {
      if (row->size() != 4) {
        status.error = "activities.csv row " + std::to_string(reader.line()) +
                       " malformed";
        return status;
      }
      const util::RowContext ctx{&activities_file, reader.line()};
      Row r;
      r.user = util::parse_u32((*row)[0], ctx, "user");
      r.type = util::parse_u32((*row)[1], ctx, "type");
      r.activity.timestamp = util::parse_i64((*row)[2], ctx, "timestamp");
      r.activity.impact = util::parse_f64((*row)[3], ctx, "impact");
      if (!std::isfinite(r.activity.impact)) {
        throw util::ParseError(ctx.describe("impact") +
                               ": non-finite impact: '" + (*row)[3] + "'");
      }
      if (r.user >= registry_.size() || r.type >= catalog_.size()) {
        status.error = "activities.csv row " + std::to_string(reader.line()) +
                       " out of range";
        return status;
      }
      rows.push_back(r);
    }
  } catch (const util::ParseError& e) {
    status.error = e.what();
    return status;
  } catch (const std::exception& e) {
    status.error = std::string("activities.csv unreadable: ") + e.what();
    return status;
  }

  trace::Snapshot snapshot;
  try {
    snapshot = trace::Snapshot::load_csv(dir + "/" + kSnapshotName);
  } catch (const std::exception& e) {
    status.error = std::string("snapshot.csv unreadable: ") + e.what();
    return status;
  }

  // Commit point: everything parsed, mutate in one pass. File order is
  // per-stream order, and sort_all() is stable, so equal-timestamp arrival
  // order — and with it rank/plan byte-identity — survives the round trip.
  activeness::ActivityStore& store = ensure_store();
  for (const Row& r : rows) store.add(r.user, r.type, r.activity);
  store.sort_all();
  vfs_.import_snapshot(snapshot);
  last_applied_seq_ =
      static_cast<std::uint64_t>(meta.get_int("applied_seq", 0));
  last_eval_time_.reset();

  status.ok = true;
  status.applied_seq = last_applied_seq_;
  obs::MetricsRegistry::global().counter("service.restores").add();
  return status;
}

}  // namespace adr::core
