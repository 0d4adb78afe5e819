#pragma once
// The ActiveDR data-retention procedure (§3.4).
//
// Given a scan plan (users bucketed into the four activeness groups, sorted
// ascending), a run proceeds group by group in ascending activeness order:
//
//   for each group in [Both Inactive, Outcome Active Only,
//                      Operation Active Only, Both Active]:
//     for pass in 0 .. retrospective_passes:          # pass 0 = normal scan
//       decayed multiplier = multiplier x (1 - decay)^pass
//       1. decision phase (parallel over users): for every non-exempt file
//          in the user's scratch directory, mark it a victim when
//          now − atime > initial_lifetime x decayed multiplier   (Eq. 7)
//       2. apply phase (sequential, ascending user order): purge victims
//          until the byte target is met; stop everything once it is.
//     if target met: stop; else move to the next group.
//
// If the target is still unmet after the Both Active group's passes, the run
// stops and reports target_reached = false (§3.4's "report to the
// administrator").
//
// The parallel-decision / ordered-apply split mirrors the paper's mpi4py
// implementation: ranks scan disjoint user shards concurrently (Fig. 12b–d)
// while the purge-target guarantee stays exact.
//
// Scan modes (ScanMode, DESIGN.md "Purge index"): the default indexed mode
// answers the Eq. 7 victim query as an atime range over the Vfs's purge
// index, and makes the retrospective passes *scan-once* — a group's
// candidates are materialized a single time at the fully-decayed cutoff
// (decay only widens the victim window, so each pass's victims are a prefix)
// and passes 1..5 just advance a per-user cursor. kWalk keeps the original
// per-pass directory re-walks as the reference the index is checked
// against; it refuses a Vfs with evicted users. Within a user, both modes
// purge oldest-first (atime, then path id), so they select identical
// victims.

#include <cstdint>
#include <string>

#include "activeness/classifier.hpp"
#include "retention/exemption.hpp"
#include "retention/policy.hpp"
#include "trace/user_registry.hpp"

namespace adr::retention {

struct ActiveDrConfig {
  /// Initial file lifetime d in days (Eq. 7); the paper uses the facility's
  /// FLT lifetime (90 days on Spider II).
  int initial_lifetime_days = 90;

  /// Number of retrospective re-scans of a group after its normal scan
  /// ("currently five times in our implementation").
  int retrospective_passes = 5;
  /// Per-pass rank decay ("currently 20%").
  double retrospective_decay = 0.20;

  /// Which reading of Eq. 7 to apply to inactive categories (DESIGN.md §5).
  activeness::LifetimeMode lifetime_mode =
      activeness::LifetimeMode::kActiveCategoriesOnly;
  /// Clamps for the lifetime multiplier.
  double min_multiplier = 1e-3;
  double max_multiplier = 1e6;

  /// Select and account victims without deleting anything (operators review
  /// the purge list first). Implies record_victims.
  bool dry_run = false;
  /// Record every victim path into PurgeReport::victim_paths.
  bool record_victims = false;

  /// kIndexed: scan the Vfs's atime-ordered purge index — candidates
  /// materialize once per group and retrospective passes advance a cursor
  /// (no re-walks). kWalk: the per-pass trie walk reference; run() throws
  /// std::logic_error on a Vfs with evicted users. Both modes produce
  /// identical PurgeReports: the same victims (per user, ascending atime
  /// with path-id tie-break) and the same exempted_files count (an exempt
  /// file counts once per scanned group, and only when expired at the
  /// group's widest fully-decayed cutoff — the candidate population the
  /// index materializes).
  ScanMode scan_mode = ScanMode::kIndexed;
};

class ActiveDrPolicy {
 public:
  ActiveDrPolicy(ActiveDrConfig config, const trace::UserRegistry& registry);

  /// Install the administrator's reservation list (optional).
  void set_exemptions(ExemptionList exemptions);
  const ExemptionList& exemptions() const { return exemptions_; }

  /// Purge at `now` until `target_purge_bytes` are freed (0 = no target:
  /// one normal pass over every group, purging everything expired under the
  /// adjusted lifetimes).
  PurgeReport run(fs::Vfs& vfs, util::TimePoint now,
                  std::uint64_t target_purge_bytes,
                  const activeness::ScanPlan& plan) const;

  /// The effective file lifetime (seconds) ActiveDR grants this user at the
  /// given retrospective pass — exposed for tests and the ablation benches.
  util::Duration effective_lifetime(const activeness::UserActiveness& ua,
                                    int pass) const;

  const ActiveDrConfig& config() const { return config_; }
  std::string name() const;

 private:
  ActiveDrConfig config_;
  const trace::UserRegistry* registry_;
  ExemptionList exemptions_;
};

}  // namespace adr::retention
