#pragma once
// core::Service — the library's public entry point and the shared
// trigger/evaluate/purge orchestration layer (DESIGN.md §13).
//
// A Service owns the pieces a deployment needs: the user registry, the
// activity catalog and recorded activities, the ShardedEvaluator pipeline,
// the virtual file system (or, in a real deployment, the snapshot index of
// the scratch space), and the reservation list. Typical administrator flow
// (see examples/quickstart.cpp):
//
//   adr::core::Service service(registry, config);           // one-time setup
//   auto jobs = service.register_operation_type("job", 1.0);
//   auto pubs = service.register_outcome_type("publication", 1.0);
//   service.record(user, jobs, t, core_hours);               // keep tracing
//   service.load_snapshot(snapshot);                          // scratch state
//   service.reserve("/scratch/u1/keep.dat");                  // exemptions
//   auto report = service.purge(now);                         // per trigger
//
// Every emulator run (sim/emulator.cpp, the paper's year replay) builds one
// Service, sim/loadgen.cpp drives one under sustained load, `activedr
// serve` keeps one resident and feeds it from the WAL, and the one-shot CLI
// commands `evaluate` and `purge` build one per run. Every purge they run
// reads the Vfs's purge index.
//
// Three capabilities serve the daemon (the one-shot paths get them for
// free):
//
//  * apply(Event): a WAL record mutates exactly the state the bulk loaders
//    would have built — kJob/kPublication stream into the ActivityStore
//    (same type ids and impacts as ingest_jobs/ingest_publications),
//    kCreate/kAccess/kRemove hit the Vfs. Replay is idempotent: records at
//    or below last_applied_seq() are skipped, so a tail replayed twice is
//    a no-op.
//  * save_checkpoint()/restore_checkpoint(): full activity streams + Vfs
//    snapshot + applied-seq meta, sealed as a §10.5 bundle (MANIFEST
//    committed last). Restore + WAL-tail replay reproduces cold-replay
//    state byte-identically: activities.csv preserves per-stream order and
//    a stable sort_all() keeps equal-timestamp arrival order, so streams,
//    ranks, scan plans, and victims all match.
//  * an evaluate() cache guard that also checks pending ingest, so a
//    repeated-`now` trigger with events still queued in the per-shard
//    ingest queues is never skipped.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "activeness/rank_store.hpp"
#include "activeness/sharded.hpp"
#include "fs/vfs.hpp"
#include "retention/activedr_policy.hpp"
#include "retention/flt.hpp"
#include "trace/event_log.hpp"
#include "trace/user_registry.hpp"

namespace adr::core {

/// Everything a deployment configures once. The first block holds Eq. 7's
/// knobs, the retrospective policy, the purge target and the evaluation
/// fan-out; the second block the execution knobs of each policy run.
struct ServiceConfig {
  /// Initial file lifetime d (days); doubles as the activeness period
  /// length, as in the paper's evaluation.
  int lifetime_days = 90;
  /// Utilization the purge drives the scratch space down to (fraction of
  /// capacity). <= 0: no target — purge everything expired.
  double purge_target_utilization = 0.5;
  int retrospective_passes = 5;
  double retrospective_decay = 0.20;
  activeness::LifetimeMode lifetime_mode =
      activeness::LifetimeMode::kActiveCategoriesOnly;
  activeness::ExponentScheme scheme =
      activeness::ExponentScheme::kPaperExponent;
  int max_periods = 0;
  /// kFull re-evaluates everyone at every trigger — the reference the
  /// delta-aware default is checked against (activeness/sharded.hpp).
  activeness::EvalMode eval_mode = activeness::EvalMode::kIncremental;
  /// User-range segments the evaluation fans out over
  /// (activeness/sharded.hpp). 0 = one per available thread (max 16).
  std::size_t eval_shards = 0;

  /// ActiveDR's scan (kWalk is the reference); FLT always reads the index.
  retention::ScanMode scan_mode = retention::ScanMode::kIndexed;
  bool dry_run = false;
  bool record_victims = false;
};

/// WAL events carry no catalog ids, only kinds; these are the fixed type
/// ids kJob/kPublication map to — the paper_default() registration order
/// ("job_submission" first, "publication" second), which every trace-file
/// ingest path in the CLI also follows.
inline constexpr activeness::ActivityTypeId kJobActivityType = 0;
inline constexpr activeness::ActivityTypeId kPublicationActivityType = 1;

class Service {
 public:
  Service(trace::UserRegistry registry, ServiceConfig config);

  // -- one-time configuration -------------------------------------------
  activeness::ActivityTypeId register_operation_type(const std::string& name,
                                                     double weight = 1.0);
  activeness::ActivityTypeId register_outcome_type(const std::string& name,
                                                   double weight = 1.0);
  /// Register the paper's two types at their fixed ids (job_submission = 0,
  /// publication = 1) — required before apply() sees kJob/kPublication.
  /// Throws if types were already registered.
  void register_paper_types();

  /// Reserve a path (file or directory subtree) against purging.
  void reserve(const std::string& path);
  void set_exemptions(retention::ExemptionList exemptions);

  // -- activity tracing ---------------------------------------------------
  void record(trace::UserId user, activeness::ActivityTypeId type,
              util::TimePoint t, double impact);
  void ingest_jobs(const trace::JobLog& jobs, activeness::ActivityTypeId type,
                   double weight = 1.0);
  void ingest_publications(const trace::PublicationLog& pubs,
                           activeness::ActivityTypeId type,
                           double weight = 1.0);

  // -- WAL ingestion ------------------------------------------------------
  /// Apply one event log record. Returns false (and mutates nothing) when
  /// event.seq is non-zero and <= last_applied_seq() — the replay-
  /// idempotence guard. Events with seq 0 (direct, not from a log) always
  /// apply. kJob/kPublication impacts are applied as carried (the feed side
  /// already weighted them; see trace::make_job_event).
  bool apply(const trace::Event& event);
  std::uint64_t last_applied_seq() const { return last_applied_seq_; }

  /// Size the store's ingest/dirty sharding to the evaluator fan-out so
  /// producer threads can enqueue() concurrently with per-shard drains.
  /// Call before starting producers; idempotent.
  void prepare_ingest();

  // -- scratch state ------------------------------------------------------
  fs::Vfs& vfs() { return vfs_; }
  const fs::Vfs& vfs() const { return vfs_; }
  void load_snapshot(const trace::Snapshot& snapshot);

  // -- evaluation ---------------------------------------------------------
  /// Evaluate every registered user at `now` (Eqs. 1–6) and cache the
  /// result. The cache is bypassed whenever the store has dirty users *or*
  /// pending ingest-queue events, so a warm daemon trigger at an unchanged
  /// `now` still folds in everything fed since the last trigger.
  const activeness::RankStore& evaluate(util::TimePoint now);

  /// Classification counts G1..G4 from the latest evaluation.
  std::array<std::size_t, activeness::kGroupCount> group_counts() const;
  /// The activeness of one user per the latest evaluation (fresh defaults
  /// if the user was never evaluated).
  activeness::UserActiveness activeness_of(trace::UserId user) const;
  /// The file lifetime this user's files currently enjoy (Eq. 7 with this
  /// service's config), per the latest evaluation.
  util::Duration effective_lifetime_of(trace::UserId user) const;
  /// The group of one user per the latest evaluation; Both-Inactive before
  /// any evaluation and for ids outside the registry.
  activeness::UserGroup group_of(trace::UserId user) const;
  const activeness::RankStore& ranks() const { return ranks_; }

  // -- retention ----------------------------------------------------------
  /// One ActiveDR purge trigger at `now` (evaluates first if needed). The
  /// no-target overload derives the byte target from
  /// config().purge_target_utilization and the Vfs capacity; the explicit
  /// overload takes the target in bytes (0 = no target, purge all expired)
  /// — the daemon and `purge` pass retention::retain_target_bytes here.
  retention::PurgeReport purge(util::TimePoint now);
  retention::PurgeReport purge(util::TimePoint now,
                               std::uint64_t target_bytes);
  /// ActiveDR over a caller's scan plan (e.g. a saved rank store); never
  /// evaluates. The overloads above run this with the pipeline's plan.
  retention::PurgeReport purge(util::TimePoint now,
                               std::uint64_t target_bytes,
                               const activeness::ScanPlan& plan);
  /// The FLT baseline on the same state (mutates the vfs just like purge).
  /// Never evaluates; the report's by_group rows follow group_of(), i.e.
  /// the latest evaluation.
  retention::PurgeReport purge_flt(util::TimePoint now);
  retention::PurgeReport purge_flt(util::TimePoint now,
                                   std::uint64_t target_bytes);

  // -- checkpointing ------------------------------------------------------
  /// Write a recovery checkpoint into `dir` (created if needed) and seal it
  /// as a bundle: activities.csv (every stream, in stream order),
  /// snapshot.csv (Vfs export), meta.conf (applied seq, shape), MANIFEST
  /// last. A crash at any point leaves `dir` unsealed or stale — recovery
  /// skips it and falls back to an older checkpoint plus a longer WAL tail.
  /// Every member streams from the store and the Vfs. Returns the sum of
  /// the members' payload bytes.
  std::uint64_t save_checkpoint(const std::string& dir);

  struct RestoreStatus {
    bool ok = false;
    std::uint64_t applied_seq = 0;
    std::string error;
  };
  /// Load a checkpoint bundle into this (fresh) service: refuses unsealed
  /// or invalid bundles and shape mismatches via the returned status (the
  /// caller degrades to an older checkpoint or a full replay — damage is a
  /// result here, not an exception). On ok, last_applied_seq() is the
  /// checkpoint's applied seq; replay the WAL tail after it.
  RestoreStatus restore_checkpoint(const std::string& dir);

  // -- degradation (DESIGN.md §14.2) --------------------------------------
  /// Record that the daemon's health ladder entered (true) or left (false)
  /// its degraded rungs; counted in `service.degrade_transitions`. The
  /// pipeline already bounds per-trigger work by the dirty set in every
  /// state, so nothing about evaluation changes. Idempotent.
  void set_degraded(bool degraded);
  bool degraded() const { return degraded_; }

  // -- introspection -------------------------------------------------------
  activeness::ActivityStore& store() { return ensure_store(); }
  const activeness::ShardedEvaluator& pipeline() const { return *pipeline_; }
  const trace::UserRegistry& registry() const { return registry_; }
  const activeness::ActivityCatalog& catalog() const { return catalog_; }
  const ServiceConfig& config() const { return config_; }

 private:
  activeness::ActivityStore& ensure_store();
  /// The byte target config().purge_target_utilization asks for.
  std::uint64_t configured_target_bytes() const;

  trace::UserRegistry registry_;
  ServiceConfig config_;
  activeness::ActivityCatalog catalog_;
  std::optional<activeness::ActivityStore> store_;
  std::optional<activeness::ShardedEvaluator> pipeline_;

  fs::Vfs vfs_;
  retention::ExemptionList exemptions_;

  std::uint64_t last_applied_seq_ = 0;
  std::optional<util::TimePoint> last_eval_time_;
  activeness::RankStore ranks_;
  bool degraded_ = false;
};

}  // namespace adr::core
