#include "cli/commands.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <fstream>
#include <ostream>
#include <string>

#include "activeness/sharded.hpp"
#include "activeness/rank_store.hpp"
#include "cli/flags.hpp"
#include "cli/serve_commands.hpp"
#include "obs/metrics.hpp"
#include "retention/ledger.hpp"
#include "sim/experiment.hpp"
#include "sim/chaos.hpp"
#include "sim/loadgen.hpp"
#include "util/bundle.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace adr::cli {

namespace {

namespace fsys = std::filesystem;

const char* kUsage = R"(activedr — activeness-based data retention (SC '21 reproduction)

usage: activedr <command> [--key value ...]

commands:
  synth     --out DIR [--users N] [--seed S]
            Generate a synthetic Titan-style trace bundle: users.csv,
            jobs.csv, pubs.csv, applog.csv, snapshot.csv, scenario.conf.

  evaluate  --users F --jobs F [--pubs F] --now YYYY-MM-DD
            [--period-days D] [--out ranks.csv]
            [--op-activities F1,F2,...] [--oc-activities F1,F2,...]
            [--eval-mode incremental|full] [--shards N]
            Evaluate every user's activeness (Eqs. 1-6) and print the
            classification; optionally save the rank store. Extra activity
            CSVs (header: user,timestamp,impact) register one additional
            operation/outcome type each — any Table 2 activity a site
            tracks.

  classify  --ranks F
            Print the Fig. 4 activeness matrix for a saved rank store.

  purge     --snapshot F --users F --now YYYY-MM-DD [--policy activedr|flt]
            [--ranks F] [--jobs F] [--pubs F] [--lifetime D]
            [--target FRACTION] [--exempt FILE]
            [--out-snapshot F] [--ledger F] [--dry-run] [--victims F]
            [--scan-mode auto|walk|indexed]
            [--eval-mode incremental|full] [--shards N]
            [--check-index]
            One retention pass over a snapshot. --target is the fraction of
            *current usage* to retain (0 disables the byte target). ActiveDR
            needs ranks: either --ranks (from `evaluate`) or --jobs/--pubs
            to evaluate inline at --now; FLT needs neither. --ledger appends
            the run to an audit CSV; --dry-run selects victims without
            deleting; --victims writes the purge list (one path per line).
            --scan-mode picks the victim scan: the maintained atime index
            or the legacy namespace walk (auto chooses per policy).
            --eval-mode picks how the inline evaluation runs: delta-aware
            (default) or the full re-evaluation oracle (see
            activeness/sharded.hpp; both modes rank identically).
            --shards fans the evaluation out over N user-range shards
            (0 = one per available thread; identical ranks and victims).
            --check-index cross-verifies the purge index against a full
            namespace walk after the run (exit 3 on mismatch).

  compare   --dir DIR --as-of YYYY-MM-DD [--lifetime D] [--target FRACTION]
            [--eval-mode incremental|full] [--shards N]
            The paper's §4.4 one-shot retention comparison (Figs. 9-11) on a
            `synth` bundle: both policies chase the same target from the
            state at --as-of.

  replay    --dir DIR [--lifetime D] [--interval D] [--target FRACTION]
            [--eval-mode incremental|full] [--shards N]
            Year-long FLT-vs-ActiveDR replay over a `synth` bundle.
            --eval-mode selects delta-aware (default) vs full
            re-evaluation at each purge trigger (identical results; full is
            the reference oracle). --shards N splits each evaluation into N
            user-range segments across the thread pool
            (activeness/sharded.hpp; same results).

  loadgen   [--load-rate EV_PER_SEC] [--load-duration SECONDS]
            [--trigger-interval S] [--p99-budget-ms MS]
            [--ramp-levels N] [--ramp-factor X] [--users N]
            [--producers N] [--shards N] [--seed S] [--json FILE]
            Sustained-load latency harness (DESIGN.md §12): concurrent
            producers enqueue synthetic trace events into the activity
            store's per-shard ingest queues at --load-rate while periodic
            evaluate/purge triggers are timed; the rate ramps by
            --ramp-factor per level until trigger p99 breaches the budget.
            Prints per-level p50/p99/p999 and the max sustainable rate;
            every level is checked rank-for-rank against a serial replay
            (exit 3 on divergence). --json writes the BENCH_load-shaped
            report.

  chaos     --dir DIR [--seed S] [--epochs N] [--duration SECONDS]
            [--users N] [--events-per-epoch N]
            [--classes kill,enospc,torn,flood,stall]
            Chaos-soak harness (DESIGN.md §14.4): each epoch draws one fault
            class from a seeded stream, runs a daemon through it, and checks
            the §14 invariants — post-fault ranks/victims byte-identical to
            a cold replay, exact-loss accounting under floods, and health
            back to ok before the epoch closes. --duration keeps cycling
            epochs until the wall-clock budget is spent. Exit 3 on any
            violated invariant; the failure replays from --seed.

  serve     --wal DIR --state DIR --users F [--snapshot F] [--lifetime D]
            [--eval-mode incremental|full] [--shards N]
            [--scan-mode auto|walk|indexed] [--checkpoint-every N]
            [--poll-ms MS] [--max-ticks N] [--metrics-interval TICKS]
            [--exempt FILE] [--no-seal-on-stop]
            [--ingest-queue-cap N] [--backpressure block|shed|spill]
            [--shed-budget N] [--spill-dir DIR] [--trigger-deadline-ms MS]
            Resident retention daemon (DESIGN.md §13): tails the --wal event
            log, keeps rank + purge-index state warm, answers control-file
            triggers from <state>/ctl with no rescan, and checkpoints every
            --checkpoint-every applied events. On restart it recovers from
            the newest valid checkpoint bundle plus the WAL tail — ranks and
            victims byte-identical to a cold one-shot run. SIGINT/SIGTERM
            stop it gracefully (seal WAL, final checkpoint, exit 0). With
            --metrics-out, the registry is re-exported atomically every
            --metrics-interval ticks while the daemon runs. --snapshot seeds
            the scratch state on a cold start (no checkpoint yet).
            Overload protection (DESIGN.md §14): --ingest-queue-cap bounds
            the per-shard ingest queues (--backpressure picks what a full
            queue does: block producers, shed up to --shed-budget counted
            events, or spill to a WAL-backed segment replayed when pressure
            clears); --trigger-deadline-ms arms the trigger watchdog — on
            breach the daemon degrades to incremental evaluation and, if
            breaches persist, defers triggers with jittered backoff instead
            of dying.

  feed      --wal DIR [--jobs F] [--pubs F] [--applog F] [--rotate N]
            [--seal]
            Append trace records to the daemon's event log as WAL events
            (jobs, then publications, then file ops — file order, the same
            order the one-shot loaders ingest). --seal closes the open
            segment with a CRC footer; --fsync makes appends durable.

  ctl       --state DIR --cmd trigger|evaluate|checkpoint|status|stop
            [--now YYYY-MM-DD | --now-unix SECONDS] [--retain FRACTION]
            [--policy activedr|flt] [--ranks-out F] [--victims-out F]
            [--timeout-ms MS]
            Send one control command to a running daemon and print its
            reply. `trigger` runs a purge at --now (--retain mirrors purge
            --target); `evaluate` refreshes ranks; --ranks-out /
            --victims-out ask the daemon to write those artifacts.

  info      --snapshot F
            Summarize a metadata snapshot.

  help      Show this text.

global options:
  --metrics-out FILE
            After the command finishes, dump the process metrics registry
            (counters, gauges, latency histograms, timer spans) as JSON.
  --parse-policy strict|permissive
            How trace/activity loaders treat bad input rows. strict (the
            default) aborts with a file:line:column error on the first bad
            row; permissive quarantines malformed, out-of-order, and
            duplicate rows to a `<input>.quarantine` sidecar CSV and keeps
            going, printing a summary at the end.
  --fsync   fsync artifacts (and their directory) inside every atomic
            write before the rename — full crash durability, not just
            crash atomicity.
  --fault-spec SPEC [--fault-seed N]
            Arm the deterministic fault injector for this run (testing the
            durability layer). SPEC is ';'-separated `point:action[@N][?P]`
            directives — see src/util/fault.hpp for the registered points.
            An injected crash exits with code 9, leaving the filesystem as
            the crash left it.
)";

// --parse-policy plus the shared LoadStats accumulator behind it. Every
// loader in a command threads the same options so the end-of-run summary
// covers the whole ingest.
struct IngestOptions {
  util::LoadStats stats;
  util::ParseOptions opts;

  explicit IngestOptions(const util::Config& config) {
    const std::string name = config.get_string("parse-policy", "strict");
    if (!util::parse_parse_policy(name, opts.policy)) {
      throw std::runtime_error("unknown --parse-policy: " + name +
                               " (expected strict or permissive)");
    }
    opts.stats = &stats;
  }

  void report(std::ostream& out) const {
    if (stats.quarantined() == 0) return;
    out << "Permissive ingest: quarantined " << stats.quarantined()
        << " rows (" << stats.malformed << " malformed, "
        << stats.out_of_order << " out-of-order, " << stats.duplicates
        << " duplicate); rows preserved in *.quarantine sidecars\n";
  }
};

// ---- synth ---------------------------------------------------------------

int cmd_synth(const util::Config& config, std::ostream& out) {
  const std::string dir = require_str(config, "out");
  fsys::create_directories(dir);

  synth::TitanParams params;
  params.users = static_cast<std::size_t>(config.get_int("users", 600));
  params.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));

  out << "Synthesizing scenario (" << params.users << " users, seed "
      << params.seed << ")...\n";
  const synth::TitanScenario scenario = synth::build_titan_scenario(params);

  scenario.registry.save_csv(dir + "/users.csv");
  scenario.jobs.save_csv(dir + "/jobs.csv");
  scenario.pubs.save_csv(dir + "/pubs.csv");
  scenario.replay.save_csv(dir + "/applog.csv");
  scenario.snapshot.save_csv(dir + "/snapshot.csv");
  {
    util::io::AtomicWriter conf(dir + "/scenario.conf",
                                {.fsync = util::io::default_fsync()});
    conf.write_line("# generated by `activedr synth`");
    conf.write_line("users = " + std::to_string(params.users));
    conf.write_line("seed = " + std::to_string(params.seed));
    conf.write_line("sim_begin = " + std::to_string(scenario.sim_begin));
    conf.write_line("sim_end = " + std::to_string(scenario.sim_end));
    conf.write_line("capacity_bytes = " +
                    std::to_string(scenario.capacity_bytes));
    conf.commit();
  }
  // Seal the directory as a §10.5 bundle: the MANIFEST commits last, so a
  // crash anywhere above leaves a visibly unsealed bundle, never a silent
  // mix of old and new trace files.
  util::io::commit_bundle(dir, {"users.csv", "jobs.csv", "pubs.csv",
                                "applog.csv", "snapshot.csv",
                                "scenario.conf"});

  util::Table table("Bundle written to " + dir);
  table.set_headers({"Artifact", "Records"});
  table.add_row({"users.csv", util::fmt_int(static_cast<std::int64_t>(
                                  scenario.registry.size()))});
  table.add_row({"jobs.csv", util::fmt_int(static_cast<std::int64_t>(
                                 scenario.jobs.size()))});
  table.add_row({"pubs.csv", util::fmt_int(static_cast<std::int64_t>(
                                 scenario.pubs.size()))});
  table.add_row({"applog.csv", util::fmt_int(static_cast<std::int64_t>(
                                   scenario.replay.size()))});
  table.add_row({"snapshot.csv", util::fmt_int(static_cast<std::int64_t>(
                                     scenario.snapshot.size()))});
  table.print(out);
  return 0;
}

// ---- evaluate / classify ---------------------------------------------------

void print_matrix(const activeness::RankStore& ranks, std::ostream& out) {
  const auto counts = ranks.group_counts();
  const double total = static_cast<double>(ranks.size());
  util::Table table("User activeness matrix (Fig. 4)");
  table.set_headers({"Group", "Users", "Share"});
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    table.add_row(
        {activeness::group_name(static_cast<activeness::UserGroup>(g)),
         util::fmt_int(static_cast<std::int64_t>(counts[g])),
         total > 0 ? util::format_percent(
                         static_cast<double>(counts[g]) / total, 1)
                   : "n/a"});
  }
  table.print(out);
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::string item = csv.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

int cmd_evaluate(const util::Config& config, std::ostream& out) {
  IngestOptions ingest(config);
  const auto registry =
      trace::UserRegistry::load_csv(require_str(config, "users"), ingest.opts);
  const auto jobs =
      trace::JobLog::load_csv(require_str(config, "jobs"), ingest.opts);
  const util::TimePoint now = require_date(config, "now");

  // Catalog: the paper's two types plus one extra type per activity CSV.
  activeness::ActivityCatalog catalog =
      activeness::ActivityCatalog::paper_default();
  const auto op_files = split_list(config.get_string("op-activities", ""));
  const auto oc_files = split_list(config.get_string("oc-activities", ""));
  std::vector<std::pair<activeness::ActivityTypeId, std::string>> extra;
  for (const auto& f : op_files) {
    extra.emplace_back(
        catalog.add({f, activeness::ActivityCategory::kOperation, 1.0}), f);
  }
  for (const auto& f : oc_files) {
    extra.emplace_back(
        catalog.add({f, activeness::ActivityCategory::kOutcome, 1.0}), f);
  }

  activeness::ActivityStore store(registry.size(), catalog.size());
  activeness::ingest_jobs(store, 0, 1.0, jobs);
  if (const auto pubs_path = config.get("pubs")) {
    const auto pubs = trace::PublicationLog::load_csv(*pubs_path, ingest.opts);
    activeness::ingest_publications(store, 1, 1.0, pubs);
  }
  for (const auto& [type, file] : extra) {
    const std::size_t n =
        activeness::ingest_activities_csv(store, type, 1.0, file, ingest.opts);
    out << "Ingested " << n << " activities from " << file << "\n";
  }
  store.sort_all();
  ingest.report(out);

  activeness::EvaluationParams params;
  params.period_length_days =
      static_cast<int>(config.get_int("period-days", 90));
  activeness::ShardedEvaluator pipeline(catalog, params,
                                        eval_mode_flag(config),
                                        eval_shards_flag(config));
  pipeline.advance(store, now);
  activeness::RankStore ranks(pipeline.users());

  out << "Evaluated " << ranks.size() << " users at "
      << util::format_date(now) << " (period "
      << params.period_length_days << " days)\n";
  print_matrix(ranks, out);

  if (const auto out_path = config.get("out")) {
    ranks.save_csv(*out_path);
    out << "Rank store written to " << *out_path << "\n";
  }
  return 0;
}

int cmd_classify(const util::Config& config, std::ostream& out) {
  const auto ranks =
      activeness::RankStore::load_csv(require_str(config, "ranks"));
  print_matrix(ranks, out);
  return 0;
}

// ---- purge -----------------------------------------------------------------

int cmd_purge(const util::Config& config, std::ostream& out) {
  IngestOptions ingest(config);
  const auto snapshot =
      trace::Snapshot::load_csv(require_str(config, "snapshot"), ingest.opts);
  const auto registry =
      trace::UserRegistry::load_csv(require_str(config, "users"), ingest.opts);
  const util::TimePoint now = require_date(config, "now");
  const int lifetime = static_cast<int>(config.get_int("lifetime", 90));
  const double retain_fraction = config.get_double("target", 0.5);
  const std::string policy_name =
      config.get_string("policy", "activedr");

  fs::Vfs vfs;
  vfs.import_snapshot(snapshot);
  const std::uint64_t target =
      retain_fraction > 0.0
          ? static_cast<std::uint64_t>(
                static_cast<double>(vfs.total_bytes()) * (1.0 - retain_fraction))
          : 0;

  const bool dry_run = config.get_bool("dry-run", false);
  const bool want_victims = config.contains("victims");
  const retention::ScanMode scan_mode = scan_mode_flag(config);
  // Validated up front (even for FLT, which never evaluates) so a typo
  // fails fast instead of being silently ignored.
  const activeness::EvalMode eval_mode = eval_mode_flag(config);
  const std::size_t eval_shards = eval_shards_flag(config);

  retention::PurgeReport report;
  if (policy_name == "flt") {
    retention::FltConfig flt_config;
    flt_config.lifetime_days = lifetime;
    flt_config.dry_run = dry_run;
    flt_config.record_victims = want_victims;
    flt_config.scan_mode = scan_mode;
    const retention::FltPolicy policy(flt_config);
    report = policy.run(vfs, now, target);
  } else if (policy_name == "activedr") {
    activeness::RankStore ranks;
    bool have_ranks = false;
    if (const auto ranks_path = config.get("ranks")) {
      // A damaged store must never order a purge: try_load_csv quarantines
      // corrupt/unparseable files, and when the trace inputs are also on the
      // command line the run degrades to a full inline re-evaluation — the
      // §10 recovery path — instead of failing the retention window.
      auto loaded = activeness::RankStore::try_load_csv(*ranks_path);
      if (loaded.ok) {
        ranks = std::move(loaded.store);
        have_ranks = true;
      } else if (config.contains("jobs")) {
        out << "WARNING: rank store " << *ranks_path << " unusable ("
            << loaded.error << ")";
        if (!loaded.quarantined_to.empty()) {
          out << "; quarantined to " << loaded.quarantined_to;
        }
        out << "; falling back to inline re-evaluation from traces\n";
      } else {
        throw std::runtime_error("rank store " + *ranks_path + " unusable (" +
                                 loaded.error +
                                 ") and no --jobs to re-evaluate from");
      }
    }
    if (!have_ranks && config.contains("jobs")) {
      // Inline evaluation at --now through the incremental pipeline — the
      // single-binary path for sites that don't persist rank stores, and the
      // fallback when a persisted store failed verification.
      const auto jobs =
          trace::JobLog::load_csv(require_str(config, "jobs"), ingest.opts);
      const activeness::ActivityCatalog catalog =
          activeness::ActivityCatalog::paper_default();
      activeness::ActivityStore store(registry.size(), catalog.size());
      activeness::ingest_jobs(store, 0, 1.0, jobs);
      if (const auto pubs_path = config.get("pubs")) {
        const auto pubs =
            trace::PublicationLog::load_csv(*pubs_path, ingest.opts);
        activeness::ingest_publications(store, 1, 1.0, pubs);
      }
      activeness::ShardedEvaluator pipeline(
          catalog, activeness::EvaluationParams{lifetime}, eval_mode,
          eval_shards);
      pipeline.advance(store, now);
      ranks = activeness::RankStore(pipeline.users());
      have_ranks = true;
    }
    if (!have_ranks) {
      throw std::runtime_error(
          "activedr policy needs --ranks or --jobs (for inline evaluation)");
    }
    retention::ActiveDrConfig adr_config;
    adr_config.initial_lifetime_days = lifetime;
    adr_config.dry_run = dry_run;
    adr_config.record_victims = want_victims;
    adr_config.scan_mode = scan_mode;
    retention::ActiveDrPolicy policy(adr_config, registry);
    if (const auto exempt = config.get("exempt")) {
      policy.set_exemptions(retention::ExemptionList::load(*exempt));
    }
    const auto plan = activeness::build_scan_plan(ranks.all());
    report = policy.run(vfs, now, target, plan);
  } else {
    throw std::runtime_error("unknown --policy: " + policy_name +
                             " (expected activedr or flt)");
  }

  ingest.report(out);
  report.print(out);
  if (report.dry_run) {
    out << "DRY RUN: nothing was deleted; " << report.victim_paths.size()
        << " victims selected\n";
  }
  out << "State after purge: " << vfs.file_count() << " files, "
      << util::format_bytes(static_cast<double>(vfs.total_bytes())) << "\n";
  if (const auto victims_path = config.get("victims")) {
    std::ofstream victims_out(*victims_path);
    if (!victims_out) {
      throw std::runtime_error("cannot write " + *victims_path);
    }
    for (const auto& path : report.victim_paths) victims_out << path << "\n";
    out << report.victim_paths.size() << " victim paths written to "
        << *victims_path << "\n";
  }

  if (const auto out_path = config.get("out-snapshot")) {
    vfs.export_snapshot().save_csv(*out_path);
    out << "Surviving snapshot written to " << *out_path << "\n";
  }
  if (const auto ledger_path = config.get("ledger")) {
    retention::PurgeLedger ledger(*ledger_path);
    ledger.append(report);
    out << "Run appended to ledger " << *ledger_path << " ("
        << ledger.load().size() << " entries)\n";
  }
  if (config.get_bool("check-index", false)) {
    std::string error;
    if (!vfs.verify_purge_index(&error)) {
      out << "PURGE INDEX INCONSISTENT: " << error << "\n";
      return 3;
    }
    out << "Purge index verified: " << vfs.purge_index().entry_count()
        << " entries consistent with the namespace\n";
  }
  return report.target_reached ? 0 : 2;
}

// ---- replay ----------------------------------------------------------------

synth::TitanScenario load_bundle(const std::string& dir,
                                 const util::ParseOptions& opts);

int cmd_replay(const util::Config& config, std::ostream& out) {
  IngestOptions ingest(config);
  const synth::TitanScenario scenario =
      load_bundle(require_str(config, "dir"), ingest.opts);
  ingest.report(out);

  sim::ExperimentConfig experiment;
  experiment.lifetime_days = static_cast<int>(config.get_int("lifetime", 90));
  experiment.purge_interval_days =
      static_cast<int>(config.get_int("interval", 7));
  experiment.purge_target_utilization = config.get_double("target", 0.5);
  experiment.eval_mode = eval_mode_flag(config);
  experiment.eval_shards = eval_shards_flag(config);

  out << "Replaying " << util::format_date(scenario.sim_begin) << " .. "
      << util::format_date(scenario.sim_end) << " (" << scenario.replay.size()
      << " entries) under FLT and ActiveDR...\n";
  const sim::ComparisonResult result =
      sim::run_comparison(scenario, experiment);

  util::Table table("Replay summary");
  table.set_headers({"Metric", "FLT", "ActiveDR"});
  table.add_row(
      {"File misses",
       util::fmt_int(static_cast<std::int64_t>(result.flt.total_misses)),
       util::fmt_int(static_cast<std::int64_t>(result.activedr.total_misses))});
  table.add_row(
      {"Days with >5% misses",
       util::fmt_int(static_cast<std::int64_t>(
           sim::days_above(result.flt.daily, 0.05))),
       util::fmt_int(static_cast<std::int64_t>(
           sim::days_above(result.activedr.daily, 0.05)))});
  table.add_row(
      {"Final bytes",
       util::format_bytes(static_cast<double>(result.flt.final_bytes)),
       util::format_bytes(static_cast<double>(result.activedr.final_bytes))});
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    table.add_row(
        {std::string("Affected users: ") +
             activeness::group_name(static_cast<activeness::UserGroup>(g)),
         util::fmt_int(static_cast<std::int64_t>(
             result.flt.groups[g].unique_affected_users)),
         util::fmt_int(static_cast<std::int64_t>(
             result.activedr.groups[g].unique_affected_users))});
  }
  table.print(out);
  return 0;
}

// ---- compare ----------------------------------------------------------------

synth::TitanScenario load_bundle(const std::string& dir,
                                 const util::ParseOptions& opts) {
  // A sealed bundle must verify as a *set* before any member is parsed; an
  // unsealed directory (hand-assembled, pre-manifest era) falls back to the
  // per-file footer checks inside each loader.
  const util::io::BundleCheck bundle_check = util::io::verify_bundle(dir);
  if (bundle_check.state == util::io::BundleState::kInvalid) {
    throw std::runtime_error("bundle " + dir +
                             " failed verification: " + bundle_check.error);
  }
  const util::Config bundle = util::Config::from_file(dir + "/scenario.conf");
  synth::TitanScenario scenario;
  scenario.registry = trace::UserRegistry::load_csv(dir + "/users.csv", opts);
  scenario.jobs = trace::JobLog::load_csv(dir + "/jobs.csv", opts);
  scenario.pubs = trace::PublicationLog::load_csv(dir + "/pubs.csv", opts);
  scenario.replay = trace::AppLog::load_csv(dir + "/applog.csv", opts);
  scenario.snapshot = trace::Snapshot::load_csv(dir + "/snapshot.csv", opts);
  scenario.sim_begin = bundle.get_int("sim_begin", 0);
  scenario.sim_end = bundle.get_int("sim_end", 0);
  scenario.capacity_bytes =
      static_cast<std::uint64_t>(bundle.get_int("capacity_bytes", 0));
  if (scenario.sim_begin >= scenario.sim_end) {
    throw std::runtime_error("scenario.conf: bad sim window");
  }
  return scenario;
}

int cmd_compare(const util::Config& config, std::ostream& out) {
  IngestOptions ingest(config);
  const synth::TitanScenario scenario =
      load_bundle(require_str(config, "dir"), ingest.opts);
  ingest.report(out);
  const util::TimePoint as_of = require_date(config, "as-of");
  if (as_of <= scenario.sim_begin || as_of >= scenario.sim_end) {
    throw std::runtime_error("--as-of must fall inside the bundle's replay "
                             "window " +
                             util::format_date(scenario.sim_begin) + " .. " +
                             util::format_date(scenario.sim_end));
  }

  sim::ExperimentConfig experiment;
  experiment.lifetime_days = static_cast<int>(config.get_int("lifetime", 90));
  experiment.purge_target_utilization = config.get_double("target", 0.5);
  experiment.eval_mode = eval_mode_flag(config);
  experiment.eval_shards = eval_shards_flag(config);

  out << "One-shot retention comparison at " << util::format_date(as_of)
      << " (lifetime " << experiment.lifetime_days << "d, retain "
      << util::format_percent(experiment.purge_target_utilization, 0)
      << " of usage)\n";
  const sim::SnapshotRetentionResult result =
      sim::run_snapshot_retention(scenario, experiment, as_of);

  util::Table table("Per-group outcome");
  table.set_headers({"Group", "Users", "FLT purged", "ActiveDR purged",
                     "FLT affected", "ActiveDR affected"});
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    const auto group = static_cast<activeness::UserGroup>(g);
    table.add_row(
        {activeness::group_name(group),
         util::fmt_int(static_cast<std::int64_t>(result.group_counts[g])),
         util::format_bytes(
             static_cast<double>(result.flt.group(group).purged_bytes)),
         util::format_bytes(
             static_cast<double>(result.activedr.group(group).purged_bytes)),
         util::fmt_int(static_cast<std::int64_t>(
             result.flt.group(group).users_affected)),
         util::fmt_int(static_cast<std::int64_t>(
             result.activedr.group(group).users_affected))});
  }
  table.print(out);
  out << "Shared target: "
      << util::format_bytes(
             static_cast<double>(result.flt.target_purge_bytes))
      << "; FLT " << (result.flt.target_reached ? "reached" : "MISSED")
      << ", ActiveDR "
      << (result.activedr.target_reached ? "reached" : "MISSED") << "\n";
  return 0;
}

// ---- info ------------------------------------------------------------------

int cmd_info(const util::Config& config, std::ostream& out) {
  IngestOptions ingest(config);
  const auto snapshot =
      trace::Snapshot::load_csv(require_str(config, "snapshot"), ingest.opts);
  ingest.report(out);

  std::map<trace::UserId, std::uint64_t> bytes_by_user;
  util::OnlineStats sizes;
  util::TimePoint newest = 0;
  util::TimePoint oldest = std::numeric_limits<util::TimePoint>::max();
  for (const auto& e : snapshot.entries()) {
    bytes_by_user[e.owner] += e.size_bytes;
    sizes.add(static_cast<double>(e.size_bytes));
    newest = std::max(newest, e.atime);
    oldest = std::min(oldest, e.atime);
  }

  util::Table table("Snapshot summary");
  table.set_headers({"Metric", "Value"});
  table.add_row({"Files", util::fmt_int(static_cast<std::int64_t>(
                              snapshot.size()))});
  table.add_row({"Total size", util::format_bytes(static_cast<double>(
                                   snapshot.total_bytes()))});
  table.add_row({"Owners", util::fmt_int(static_cast<std::int64_t>(
                               bytes_by_user.size()))});
  table.add_row({"Mean file size", util::format_bytes(sizes.mean())});
  table.add_row({"Largest file", util::format_bytes(sizes.max())});
  if (!snapshot.empty()) {
    table.add_row({"Oldest atime", util::format_date(oldest)});
    table.add_row({"Newest atime", util::format_date(newest)});
  }
  table.print(out);

  // Top-5 owners by bytes.
  std::vector<std::pair<std::uint64_t, trace::UserId>> top;
  for (const auto& [user, bytes] : bytes_by_user) top.emplace_back(bytes, user);
  std::sort(top.rbegin(), top.rend());
  util::Table owners("Largest owners");
  owners.set_headers({"User id", "Bytes"});
  for (std::size_t i = 0; i < top.size() && i < 5; ++i) {
    owners.add_row({util::fmt_int(top[i].second),
                    util::format_bytes(static_cast<double>(top[i].first))});
  }
  owners.print(out);
  return 0;
}

// ---- loadgen ---------------------------------------------------------------

int cmd_loadgen(const util::Config& config, std::ostream& out) {
  sim::LoadGenConfig c;
  c.users = static_cast<std::size_t>(
      config.get_int("users", static_cast<std::int64_t>(c.users)));
  c.files_per_user = static_cast<std::size_t>(config.get_int(
      "files-per-user", static_cast<std::int64_t>(c.files_per_user)));
  c.seed = static_cast<std::uint64_t>(
      config.get_int("seed", static_cast<std::int64_t>(c.seed)));
  c.producers = static_cast<std::size_t>(
      config.get_int("producers", static_cast<std::int64_t>(c.producers)));
  c.shards = static_cast<std::size_t>(config.get_int("shards", 0));
  c.events_per_sec = config.get_double("load-rate", c.events_per_sec);
  c.duration_seconds = config.get_double("load-duration", c.duration_seconds);
  c.trigger_interval_seconds =
      config.get_double("trigger-interval", c.trigger_interval_seconds);
  c.p99_budget_ms = config.get_double("p99-budget-ms", c.p99_budget_ms);
  c.ramp_levels = static_cast<std::size_t>(
      config.get_int("ramp-levels", static_cast<std::int64_t>(c.ramp_levels)));
  c.ramp_factor = config.get_double("ramp-factor", c.ramp_factor);

  const sim::LoadResult result = sim::run_load(c);

  util::Table table("Sustained load ramp (" + std::to_string(result.shards) +
                    " shards)");
  table.set_headers({"Target ev/s", "Achieved", "Triggers", "p50 ms", "p99 ms",
                     "p999 ms", "Identical", "Sustainable"});
  char buf[64];
  const auto f3 = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return std::string(buf);
  };
  for (const sim::LoadLevelResult& level : result.levels) {
    table.add_row({f3(level.target_rate), f3(level.achieved_rate),
                   util::fmt_int(static_cast<std::int64_t>(level.triggers)),
                   f3(level.p50_ms), f3(level.p99_ms), f3(level.p999_ms),
                   level.ranks_identical ? "yes" : "NO (BUG)",
                   level.sustainable ? "yes" : "no"});
  }
  table.print(out);
  out << "max sustainable rate: " << result.max_sustainable_rate
      << " events/sec\n"
      << "ranks identical to serial replay: "
      << (result.ranks_identical ? "yes" : "NO (BUG)") << "\n";

  if (const auto json_path = config.get("json")) {
    std::ofstream json(*json_path);
    json << "{\n  \"bench\": \"load_harness\",\n  \"shards\": "
         << result.shards << ",\n  \"levels\": [\n";
    for (std::size_t i = 0; i < result.levels.size(); ++i) {
      const sim::LoadLevelResult& level = result.levels[i];
      json << "    {\"target_rate\": " << level.target_rate
           << ", \"achieved_rate\": " << level.achieved_rate
           << ", \"p50_ms\": " << level.p50_ms
           << ", \"p99_ms\": " << level.p99_ms
           << ", \"p999_ms\": " << level.p999_ms
           << ", \"ranks_identical\": "
           << (level.ranks_identical ? "true" : "false")
           << ", \"sustainable\": " << (level.sustainable ? "true" : "false")
           << "}" << (i + 1 < result.levels.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"max_sustainable_rate\": " << result.max_sustainable_rate
         << ",\n  \"ranks_identical\": "
         << (result.ranks_identical ? "true" : "false") << "\n}\n";
    out << "wrote " << *json_path << "\n";
  }
  return result.ranks_identical ? 0 : 3;
}

// ---- chaos -----------------------------------------------------------------

int cmd_chaos(const util::Config& config, std::ostream& out) {
  sim::ChaosConfig c;
  c.dir = require_str(config, "dir");
  c.seed = static_cast<std::uint64_t>(
      config.get_int("seed", static_cast<std::int64_t>(c.seed)));
  c.epochs =
      static_cast<int>(config.get_int("epochs", c.epochs));
  c.duration_s = config.get_double("duration", c.duration_s);
  c.users = static_cast<std::size_t>(
      config.get_int("users", static_cast<std::int64_t>(c.users)));
  c.events_per_epoch = static_cast<std::size_t>(config.get_int(
      "events-per-epoch", static_cast<std::int64_t>(c.events_per_epoch)));
  if (const auto classes = config.get("classes")) {
    for (const auto& cls : util::csv_split(*classes)) {
      if (!cls.empty()) c.classes.push_back(cls);
    }
  }

  const sim::ChaosReport report = sim::run_chaos(c, out);
  out << "epochs: " << report.epochs_run << ", identity checks: "
      << report.identity_checks << ", recoveries: " << report.recoveries
      << "\n";
  for (const auto& [cls, n] : report.faults_injected) {
    out << "  " << cls << ": " << n << "\n";
  }
  if (!report.ok) {
    out << "chaos soak FAILED: " << report.error << "\n";
    return 3;
  }
  return 0;
}

}  // namespace

namespace {

// --metrics-out: dump the registry after any command, even a failing one —
// the metrics of a run that errored out are often the interesting ones.
void maybe_dump_metrics(const util::Config& config, std::ostream& err) {
  const auto path = config.get("metrics-out");
  if (!path) return;
  std::ofstream metrics_out(*path);
  if (!metrics_out) {
    err << "activedr: cannot write --metrics-out file " << *path << "\n";
    return;
  }
  metrics_out << obs::MetricsRegistry::global().to_json() << "\n";
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 64;  // EX_USAGE
  }
  const std::string command = argv[1];
  const util::Config config = util::Config::from_args(argc - 1, argv + 1);

  // Global durability/testing knobs, applied before any command IO. Both are
  // process-wide state, restored on exit so in-process callers (tests) don't
  // leak configuration into each other.
  bool fault_armed = false;
  if (const auto spec = config.get("fault-spec")) {
    try {
      util::FaultInjector::global().configure(
          *spec, static_cast<std::uint64_t>(config.get_int("fault-seed", 0)));
      fault_armed = true;
    } catch (const std::invalid_argument& e) {
      err << "activedr: bad --fault-spec: " << e.what() << "\n";
      return 64;
    }
  }
  const bool prior_fsync = util::io::default_fsync();
  if (config.get_bool("fsync", false)) util::io::set_default_fsync(true);

  int rc = 64;
  try {
    if (command == "synth") rc = cmd_synth(config, out);
    else if (command == "evaluate") rc = cmd_evaluate(config, out);
    else if (command == "classify") rc = cmd_classify(config, out);
    else if (command == "purge") rc = cmd_purge(config, out);
    else if (command == "replay") rc = cmd_replay(config, out);
    else if (command == "compare") rc = cmd_compare(config, out);
    else if (command == "info") rc = cmd_info(config, out);
    else if (command == "loadgen") rc = cmd_loadgen(config, out);
    else if (command == "chaos") rc = cmd_chaos(config, out);
    else if (command == "serve") rc = cmd_serve(config, out);
    else if (command == "feed") rc = cmd_feed(config, out);
    else if (command == "ctl") rc = cmd_ctl(config, out);
    else if (command == "help" || command == "--help" || command == "-h") {
      out << kUsage;
      rc = 0;
    } else {
      err << "unknown command: " << command << "\n\n" << kUsage;
      rc = 64;
    }
  } catch (const util::CrashInjected& e) {
    // Simulated hard crash: report and stop *without* cleanup, leaving the
    // filesystem exactly as the crash left it for recovery testing.
    err << "activedr " << command << ": " << e.what() << "\n";
    rc = 9;
  } catch (const std::exception& e) {
    err << "activedr " << command << ": " << e.what() << "\n";
    rc = 1;
  }
  maybe_dump_metrics(config, err);
  if (fault_armed) util::FaultInjector::global().clear();
  util::io::set_default_fsync(prior_fsync);
  return rc;
}

}  // namespace adr::cli
