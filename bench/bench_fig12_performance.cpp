// Figure 12: performance evaluation.
//  (a) memory consumption and loading time of the activity traces,
//  (b) activeness-evaluation and purge-decision time,
//  (c/d) snapshot-scanning time, sequential vs parallel shards.
//
// Paper shape: trace loading is hundreds of MB / ~1.5 min at full Titan
// scale; activeness evaluation is sub-second; purge decisions for ~1M files
// take seconds; the snapshot scan parallelizes across ranks.
//
// Part (a) prints a table from real RSS probes; parts (b)-(d) are
// google-benchmark micro/macro benches.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <fstream>
#include <iostream>

#include "activeness/sharded.hpp"
#include "common/scenario_cache.hpp"
#include "obs/metrics.hpp"
#include "util/memory.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

adr::bench::BenchOptions g_options;

const adr::synth::TitanScenario& scenario() {
  return adr::bench::shared_scenario(g_options.titan);
}

// One evaluation pipeline over its own copy of the scenario's activities.
struct Pipeline {
  Pipeline(const adr::activeness::ActivityCatalog& catalog,
           const adr::activeness::EvaluationParams& params,
           adr::activeness::EvalMode mode, std::size_t shards = 0)
      : store(adr::bench::scenario_store(scenario())),
        eval(catalog, params, mode, shards) {}

  /// The scan plan at `t`; advances only when `t` moved.
  const adr::activeness::ScanPlan& plan_at(adr::util::TimePoint t) {
    if (!eval.evaluated() || eval.last_now() != t) eval.advance(store, t);
    return eval.plan();
  }

  adr::activeness::ActivityStore store;
  adr::activeness::ShardedEvaluator eval;
};

// ---- Fig. 12a: trace loading memory/time (printed, not benchmarked) ------
void print_fig12a() {
  using namespace adr;
  util::Table table("Fig. 12a: trace loading memory and time");
  table.set_headers({"Trace", "Records", "Memory", "Load time"});

  const auto t0 = std::chrono::steady_clock::now();
  util::RssDelta scenario_delta;
  const synth::TitanScenario& s = scenario();
  const double synth_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  table.add_row({"scenario (all traces)",
                 util::fmt_int(static_cast<std::int64_t>(
                     s.jobs.size() + s.pubs.size() + s.replay.size() +
                     s.snapshot.size())),
                 util::format_bytes(static_cast<double>(scenario_delta.bytes())),
                 util::format_duration_seconds(synth_seconds)});

  {
    util::RssDelta delta;
    const auto t1 = std::chrono::steady_clock::now();
    auto store = adr::bench::scenario_store(s);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
            .count();
    // Small stores fit in already-resident heap pages (RSS delta 0);
    // report the logical footprint in that case.
    const double bytes = std::max<double>(
        static_cast<double>(delta.bytes()),
        static_cast<double>(store.total_activities() *
                            sizeof(adr::activeness::Activity)));
    table.add_row({"activity store (jobs+pubs)",
                   util::fmt_int(static_cast<std::int64_t>(
                       store.total_activities())),
                   util::format_bytes(bytes),
                   util::format_duration_seconds(secs)});
  }
  {
    util::RssDelta delta;
    const auto t1 = std::chrono::steady_clock::now();
    fs::Vfs vfs;
    vfs.import_snapshot(s.snapshot);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
            .count();
    table.add_row(
        {"snapshot -> prefix tree (" +
             util::fmt_int(static_cast<std::int64_t>(vfs.index().node_count())) +
             " nodes)",
         util::fmt_int(static_cast<std::int64_t>(vfs.file_count())),
         util::format_bytes(static_cast<double>(vfs.index().memory_bytes())),
         util::format_duration_seconds(secs)});
  }
  table.print(std::cout);
}

// ---- Fig. 12b: activeness evaluation + purge decision --------------------
void BM_ActivenessEvaluation(benchmark::State& state) {
  const auto& s = scenario();
  const auto store = adr::bench::scenario_store(s);
  const adr::activeness::ActivityCatalog catalog =
      adr::activeness::ActivityCatalog::paper_default();
  adr::activeness::EvaluationParams params;
  params.period_length_days = static_cast<int>(state.range(0));
  params.now = s.sim_begin;
  const adr::activeness::Evaluator evaluator(catalog, params);
  for (auto _ : state) {
    auto users = evaluator.evaluate_all(store);
    benchmark::DoNotOptimize(users);
  }
  state.counters["users"] = static_cast<double>(s.registry.size());
}
BENCHMARK(BM_ActivenessEvaluation)->Arg(7)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_PurgeDecision(benchmark::State& state) {
  // Decision phase cost: one full ActiveDR run (no target -> single pass
  // over every user directory) on a freshly imported snapshot. Arg 0 scans
  // via the atime-ordered purge index, arg 1 via the legacy trie walk.
  const auto& s = scenario();
  const auto store = adr::bench::scenario_store(s);
  adr::activeness::EvaluationParams params;
  params.period_length_days = 90;
  params.now = s.sim_begin;
  const adr::activeness::ActivityCatalog catalog =
      adr::activeness::ActivityCatalog::paper_default();
  const adr::activeness::Evaluator evaluator(catalog, params);
  const auto plan = adr::activeness::build_scan_plan(evaluator.evaluate_all(store));
  adr::retention::ActiveDrConfig config;
  config.scan_mode = state.range(0) == 0 ? adr::retention::ScanMode::kIndexed
                                         : adr::retention::ScanMode::kWalk;
  const adr::retention::ActiveDrPolicy policy(config, s.registry);
  for (auto _ : state) {
    state.PauseTiming();
    adr::fs::Vfs vfs;
    vfs.import_snapshot(s.snapshot);
    state.ResumeTiming();
    auto report = policy.run(vfs, s.sim_begin, 0, plan);
    benchmark::DoNotOptimize(report);
  }
  state.counters["files"] = static_cast<double>(s.snapshot.size());
}
BENCHMARK(BM_PurgeDecision)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"walk"})
    ->Unit(benchmark::kMillisecond);

// ---- Eval-phase regression harness: full vs incremental pipeline ----------
// A replay year of daily evaluation triggers driven through the
// ShardedEvaluator pipeline under both eval modes. The incremental pipeline must
// produce the exact same ranks and scan-plan orderings as full
// re-evaluation at every trigger, and its cumulative eval-phase wall time
// must beat full mode by >= MIN_EVAL_SPEEDUP (the delta-aware pipeline only
// re-ranks users whose streams changed or whose rank is live).
//
// Cadence and period length are where the delta pipeline's premise lives:
//  * daily triggers — utilization-triggered purges fire often relative to
//    how often any one user acts, so only a few dozen of the hundred-plus
//    weekly-active users show up in each single-day delta window;
//  * monthly activeness periods (d = 30) — with Fig. 5's skew the bulk of
//    the population is then *provably frozen* between triggers: zero ranks
//    pinned by pigeonhole, a stale newest period, or a static inter-
//    activity gap wider than two periods, exactly the certificates the
//    skip rule monetizes. (At d = 90 most synthetic users stay rank-live
//    inside every window and both modes must re-rank them; the comparison
//    still runs, it just measures mostly-shared work.)
struct EvalModeComparison {
  double full_seconds = 0.0;
  double incremental_seconds = 0.0;
  double speedup = 0.0;
  std::size_t triggers = 0;
  bool ranks_identical = true;
};

bool same_plans(const adr::activeness::ScanPlan& a,
                const adr::activeness::ScanPlan& b) {
  for (std::size_t g = 0; g < adr::activeness::kGroupCount; ++g) {
    if (a.groups[g].size() != b.groups[g].size()) return false;
    for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
      const auto& x = a.groups[g][i];
      const auto& y = b.groups[g][i];
      if (x.user != y.user || x.op.sort_key() != y.op.sort_key() ||
          x.oc.sort_key() != y.oc.sort_key() ||
          x.last_activity != y.last_activity) {
        return false;
      }
    }
  }
  return true;
}

EvalModeComparison run_eval_mode_comparison(int reps) {
  using namespace adr;
  const auto& s = scenario();
  const activeness::ActivityCatalog catalog =
      activeness::ActivityCatalog::paper_default();
  activeness::EvaluationParams params;
  // Monthly activeness periods (see the header comment): short periods are
  // where the frozen-zero certificates bite on this population.
  params.period_length_days = 30;

  EvalModeComparison cmp;

  // Identity pass (untimed): advance both modes in lockstep and compare
  // every plan. Kept separate from the timed reps — the lockstep walk and
  // the per-trigger plan comparison thrash both pipelines' working sets,
  // which would bias the timing of whichever mode runs second.
  {
    Pipeline full(catalog, params, activeness::EvalMode::kFull);
    Pipeline inc(catalog, params, activeness::EvalMode::kIncremental);
    std::size_t triggers = 0;
    for (util::TimePoint t = s.sim_begin; t <= s.sim_end;
         t += util::days(1)) {
      const auto& full_plan = full.plan_at(t);
      const auto& inc_plan = inc.plan_at(t);
      ++triggers;
      if (!same_plans(full_plan, inc_plan)) cmp.ranks_identical = false;
    }
    cmp.triggers = triggers;
  }

  // Timed reps: each mode drives its own fresh pipeline through the whole
  // replay year; best-of-reps per mode. seconds() counts only this
  // pipeline's advance() wall time.
  const auto run_mode = [&](activeness::EvalMode mode) {
    Pipeline pipeline(catalog, params, mode);
    for (util::TimePoint t = s.sim_begin; t <= s.sim_end;
         t += util::days(1)) {
      benchmark::DoNotOptimize(pipeline.plan_at(t));
    }
    return pipeline.eval.seconds();
  };
  for (int rep = 0; rep < reps; ++rep) {
    const double full_secs = run_mode(activeness::EvalMode::kFull);
    const double inc_secs = run_mode(activeness::EvalMode::kIncremental);
    if (rep == 0 || full_secs < cmp.full_seconds) cmp.full_seconds = full_secs;
    if (rep == 0 || inc_secs < cmp.incremental_seconds) {
      cmp.incremental_seconds = inc_secs;
    }
  }
  cmp.speedup = cmp.incremental_seconds > 0.0
                    ? cmp.full_seconds / cmp.incremental_seconds
                    : 0.0;

  util::Table table("Eval phase: full vs incremental pipeline (daily triggers)");
  table.set_headers({"Mode", "Best time (year)", "Triggers"});
  table.add_row({"full (re-evaluate everyone)",
                 util::format_duration_seconds(cmp.full_seconds),
                 util::fmt_int(static_cast<std::int64_t>(cmp.triggers))});
  table.add_row({"incremental (delta-aware)",
                 util::format_duration_seconds(cmp.incremental_seconds),
                 util::fmt_int(static_cast<std::int64_t>(cmp.triggers))});
  table.print(std::cout);
  std::printf("eval speedup: %.2fx, rank/plan identity: %s\n", cmp.speedup,
              cmp.ranks_identical ? "yes" : "NO (BUG)");
  return cmp;
}

// ---- Shard-scaling harness: 1 shard vs N shards ---------------------------
// The same daily-trigger replay year driven through the sharded pipeline
// (activeness/sharded.hpp) at S = 1 and S = N. Sharding must be invisible in
// the results — identical plans at every trigger and identical purge victims
// off the final plan — and at S >= 4 the concurrent advance must beat the
// single pipeline by >= MIN_SHARD_SPEEDUP (gated in tools/run_bench.sh,
// which fails loudly if this harness reports S < 4 on a machine with >= 4
// cores). N is --shards if given; otherwise at least 4 whenever the
// hardware has >= 4 cores, even if ACTIVEDR_THREADS shrank the pool — the
// gate exists to exercise the parallel advance, so it must not silently
// collapse to a configuration the gate then skips. Only on < 4-core boxes
// does N fall back to the (small) default shard count, and the floor is
// informational only.
struct ShardComparison {
  std::size_t shards = 1;
  double shard_1_seconds = 0.0;
  double shard_n_seconds = 0.0;
  double speedup = 0.0;
  std::size_t triggers = 0;
  bool ranks_identical = true;
  bool victims_identical = true;
};

ShardComparison run_shard_comparison(int reps, std::size_t shards_override) {
  using namespace adr;
  const auto& s = scenario();
  const activeness::ActivityCatalog catalog =
      activeness::ActivityCatalog::paper_default();
  activeness::EvaluationParams params;
  params.period_length_days = 30;  // same cadence premise as the eval bench

  ShardComparison cmp;
  if (shards_override != 0) {
    cmp.shards = shards_override;
  } else {
    cmp.shards = activeness::ShardedEvaluator::default_shard_count();
    if (std::thread::hardware_concurrency() >= 4) {
      cmp.shards = std::max<std::size_t>(cmp.shards, 4);
    }
  }

  // Identity pass (untimed): lockstep daily triggers, every plan compared;
  // then a dry-run purge off each final plan must pick the same victims.
  {
    Pipeline one(catalog, params, activeness::EvalMode::kIncremental, 1);
    Pipeline many(catalog, params, activeness::EvalMode::kIncremental,
                  cmp.shards);
    std::size_t triggers = 0;
    for (util::TimePoint t = s.sim_begin; t <= s.sim_end;
         t += util::days(1)) {
      const auto& plan_1 = one.plan_at(t);
      const auto& plan_n = many.plan_at(t);
      ++triggers;
      if (!same_plans(plan_1, plan_n)) cmp.ranks_identical = false;
    }
    cmp.triggers = triggers;

    fs::Vfs vfs_1, vfs_n;
    vfs_1.import_snapshot(s.snapshot);
    vfs_n.import_snapshot(s.snapshot);
    retention::ActiveDrConfig config;
    config.dry_run = true;
    const retention::ActiveDrPolicy policy(config, s.registry);
    const std::uint64_t target = retention::purge_target_bytes(vfs_1, 0.25);
    auto report_1 = policy.run(vfs_1, s.sim_end, target, one.plan_at(s.sim_end));
    auto report_n = policy.run(vfs_n, s.sim_end, target, many.plan_at(s.sim_end));
    cmp.victims_identical =
        report_1.victim_paths == report_n.victim_paths &&
        report_1.purged_bytes == report_n.purged_bytes;
  }

  // Timed reps: each shard count drives its own fresh pipeline through the
  // replay year; best-of-reps. seconds() counts only this pipeline's
  // advance() wall time (wake filter + segment advances + plan splice).
  const auto run_shards = [&](std::size_t shards) {
    Pipeline pipeline(catalog, params, activeness::EvalMode::kIncremental,
                      shards);
    for (util::TimePoint t = s.sim_begin; t <= s.sim_end;
         t += util::days(1)) {
      benchmark::DoNotOptimize(pipeline.plan_at(t));
    }
    return pipeline.eval.seconds();
  };
  for (int rep = 0; rep < reps; ++rep) {
    const double one_secs = run_shards(1);
    const double many_secs = run_shards(cmp.shards);
    if (rep == 0 || one_secs < cmp.shard_1_seconds) {
      cmp.shard_1_seconds = one_secs;
    }
    if (rep == 0 || many_secs < cmp.shard_n_seconds) {
      cmp.shard_n_seconds = many_secs;
    }
  }
  cmp.speedup = cmp.shard_n_seconds > 0.0
                    ? cmp.shard_1_seconds / cmp.shard_n_seconds
                    : 0.0;

  util::Table table("Eval phase: 1 shard vs " + std::to_string(cmp.shards) +
                    " shards (daily triggers)");
  table.set_headers({"Shards", "Best time (year)", "Triggers"});
  table.add_row({"1 (single pipeline)",
                 util::format_duration_seconds(cmp.shard_1_seconds),
                 util::fmt_int(static_cast<std::int64_t>(cmp.triggers))});
  table.add_row({std::to_string(cmp.shards) + " (parallel advance)",
                 util::format_duration_seconds(cmp.shard_n_seconds),
                 util::fmt_int(static_cast<std::int64_t>(cmp.triggers))});
  table.print(std::cout);
  std::printf(
      "shard speedup: %.2fx at %zu shards, plan identity: %s, "
      "victim identity: %s\n",
      cmp.speedup, cmp.shards, cmp.ranks_identical ? "yes" : "NO (BUG)",
      cmp.victims_identical ? "yes" : "NO (BUG)");
  return cmp;
}

// ---- Perf regression harness: walk vs indexed purge trigger ---------------
// A realistic purge trigger timed under both scan modes against identical
// state: the initial snapshot plus half a replay year of accesses (so
// atimes are mixed — recently-touched files survive, stale ones expire),
// purging toward an aggressive utilization target that drives the policy
// through its groups and retrospective passes. Emits machine-readable JSON
// that tools/run_bench.sh diffs against the committed baseline; the indexed
// mode must select the exact same victims >= 3x faster than the per-pass
// walk.
struct ScanModeRun {
  double best_seconds = 0.0;
  std::vector<std::string> victims;  // sorted
  std::uint64_t purged_bytes = 0;
};

ScanModeRun run_purge_trigger(adr::fs::Vfs& vfs,
                              const adr::activeness::ScanPlan& plan,
                              adr::util::TimePoint now, std::uint64_t target,
                              adr::retention::ScanMode mode, int reps) {
  using namespace adr;
  const auto& s = scenario();
  retention::ActiveDrConfig config;
  config.dry_run = true;  // selection cost only; both modes see equal state
  config.scan_mode = mode;
  const retention::ActiveDrPolicy policy(config, s.registry);

  // Dry runs never mutate, so every rep (and both modes) share this vfs.
  ScanModeRun run;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto report = policy.run(vfs, now, target, plan);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep == 0 || secs < run.best_seconds) run.best_seconds = secs;
    if (rep == 0) {
      run.victims = std::move(report.victim_paths);
      std::sort(run.victims.begin(), run.victims.end());
      run.purged_bytes = report.purged_bytes;
    }
  }
  return run;
}

void run_scan_mode_comparison(const std::string& json_path,
                              const EvalModeComparison& eval_cmp,
                              const ShardComparison& shard_cmp) {
  using namespace adr;
  const auto& s = scenario();

  // Shared purge-trigger state: snapshot + the first half-year of replayed
  // accesses (no purges in between — both modes must see identical atimes).
  const util::TimePoint mid = s.sim_begin + (s.sim_end - s.sim_begin) / 2;
  fs::Vfs vfs;
  vfs.import_snapshot(s.snapshot);
  vfs.set_capacity_bytes(s.capacity_bytes);
  for (const auto& entry : s.replay.entries()) {
    if (entry.timestamp >= mid) break;
    if (entry.op == trace::FileOp::kCreate) {
      fs::FileMeta meta;
      meta.owner = entry.user;
      meta.stripe_count = entry.stripe_count;
      meta.size_bytes = entry.size_bytes;
      meta.atime = entry.timestamp;
      meta.ctime = entry.timestamp;
      vfs.create(entry.path, meta);
    } else {
      vfs.access(entry.path, entry.timestamp);
    }
  }

  const auto store = adr::bench::scenario_store(s);
  activeness::EvaluationParams params;
  params.period_length_days = 90;
  params.now = mid;
  const activeness::ActivityCatalog catalog =
      activeness::ActivityCatalog::paper_default();
  const activeness::Evaluator evaluator(catalog, params);
  const auto plan = activeness::build_scan_plan(evaluator.evaluate_all(store));

  // Purge down to 25% utilization: demanding enough that the run descends
  // into retrospective passes (where the walk re-scans and scan-once pays).
  const std::uint64_t target = retention::purge_target_bytes(vfs, 0.25);

  const ScanModeRun walk =
      run_purge_trigger(vfs, plan, mid, target, retention::ScanMode::kWalk, 3);
  const ScanModeRun indexed = run_purge_trigger(
      vfs, plan, mid, target, retention::ScanMode::kIndexed, 3);
  const bool identical = walk.victims == indexed.victims &&
                         walk.purged_bytes == indexed.purged_bytes;
  const double speedup =
      indexed.best_seconds > 0.0 ? walk.best_seconds / indexed.best_seconds
                                 : 0.0;

  util::Table table("Purge trigger: walk vs indexed scan (25% target)");
  table.set_headers({"Mode", "Best time", "Victims", "Purged"});
  table.add_row({"walk (per-pass re-scan)",
                 util::format_duration_seconds(walk.best_seconds),
                 util::fmt_int(static_cast<std::int64_t>(walk.victims.size())),
                 util::format_bytes(static_cast<double>(walk.purged_bytes))});
  table.add_row(
      {"indexed (scan-once)",
       util::format_duration_seconds(indexed.best_seconds),
       util::fmt_int(static_cast<std::int64_t>(indexed.victims.size())),
       util::format_bytes(static_cast<double>(indexed.purged_bytes))});
  table.print(std::cout);
  std::printf("speedup: %.2fx, victim sets identical: %s\n", speedup,
              identical ? "yes" : "NO (BUG)");

  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"fig12_purge_trigger\",\n"
      << "  \"users\": " << s.registry.size() << ",\n"
      << "  \"seed\": " << g_options.titan.seed << ",\n"
      << "  \"files\": " << vfs.file_count() << ",\n"
      << "  \"walk_seconds\": " << walk.best_seconds << ",\n"
      << "  \"indexed_seconds\": " << indexed.best_seconds << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"victims\": " << indexed.victims.size() << ",\n"
      << "  \"purged_bytes\": " << indexed.purged_bytes << ",\n"
      << "  \"victim_sets_identical\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"eval_triggers\": " << eval_cmp.triggers << ",\n"
      << "  \"eval_full_seconds\": " << eval_cmp.full_seconds << ",\n"
      << "  \"eval_incremental_seconds\": " << eval_cmp.incremental_seconds
      << ",\n"
      << "  \"eval_speedup\": " << eval_cmp.speedup << ",\n"
      << "  \"eval_ranks_identical\": "
      << (eval_cmp.ranks_identical ? "true" : "false") << ",\n"
      << "  \"shards\": " << shard_cmp.shards << ",\n"
      << "  \"shard_1_seconds\": " << shard_cmp.shard_1_seconds << ",\n"
      << "  \"shard_n_seconds\": " << shard_cmp.shard_n_seconds << ",\n"
      << "  \"shard_speedup\": " << shard_cmp.speedup << ",\n"
      << "  \"shard_ranks_identical\": "
      << (shard_cmp.ranks_identical ? "true" : "false") << ",\n"
      << "  \"shard_victims_identical\": "
      << (shard_cmp.victims_identical ? "true" : "false") << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
}

// ---- Fig. 12c/d: snapshot scanning, sequential vs sharded ----------------
void BM_SnapshotScanSequential(benchmark::State& state) {
  const auto& s = scenario();
  adr::fs::Vfs vfs;
  vfs.import_snapshot(s.snapshot);
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    vfs.for_each([&](const std::string&, const adr::fs::FileMeta& meta) {
      bytes += meta.size_bytes;
    });
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_SnapshotScanSequential)->Unit(benchmark::kMillisecond);

void BM_SnapshotScanSharded(benchmark::State& state) {
  // The mpi4py-style decomposition: each shard scans the user directories
  // it owns (users are disjoint subtrees, so shards never contend).
  const auto& s = scenario();
  adr::fs::Vfs vfs;
  vfs.import_snapshot(s.snapshot);
  for (auto _ : state) {
    std::atomic<std::uint64_t> bytes{0};
    adr::util::global_pool().parallel_for(
        0, s.registry.size(), [&](std::size_t u) {
          std::uint64_t mine = 0;
          vfs.for_each_under(
              s.registry.home_dir(static_cast<adr::trace::UserId>(u)),
              [&](const std::string&, const adr::fs::FileMeta& meta) {
                mine += meta.size_bytes;
              });
          bytes.fetch_add(mine, std::memory_order_relaxed);
        });
    benchmark::DoNotOptimize(bytes.load());
  }
  state.counters["shards"] =
      static_cast<double>(adr::util::global_pool().size() + 1);
}
BENCHMARK(BM_SnapshotScanSharded)->Unit(benchmark::kMillisecond);

// ---- supporting microbenches: the prefix tree -----------------------------
void BM_TrieLookup(benchmark::State& state) {
  const auto& s = scenario();
  adr::fs::Vfs vfs;
  vfs.import_snapshot(s.snapshot);
  const auto& entries = s.snapshot.entries();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto* meta = vfs.stat(entries[i % entries.size()].path);
    benchmark::DoNotOptimize(meta);
    ++i;
  }
}
BENCHMARK(BM_TrieLookup);

void BM_TrieInsertErase(benchmark::State& state) {
  adr::fs::PathTrie trie;
  adr::fs::FileMeta meta;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string path =
        "/scratch/u/p/r/file_" + std::to_string(i++ % 4096) + ".dat";
    trie.insert(path, meta);
    trie.erase(path);
  }
}
BENCHMARK(BM_TrieInsertErase);

// ---- Fig. 12b companion: registry-driven phase breakdown ------------------
// Every evaluator/policy/vfs/thread-pool call above reported into the global
// metrics registry; a single snapshot at the end attributes where the
// benchmark's wall time actually went, per `component.phase` span, with the
// matching work counters alongside.
void print_phase_breakdown() {
  using namespace adr;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();

  util::Table spans("Phase breakdown (timer spans, whole bench run)");
  spans.set_headers({"Span", "Count", "Total", "Mean", "Max"});
  for (const auto& [name, h] : snap.spans) {
    if (h.count == 0) continue;
    spans.add_row(
        {name, util::fmt_int(static_cast<std::int64_t>(h.count)),
         util::format_duration_seconds(h.sum_seconds),
         util::format_duration_seconds(h.sum_seconds /
                                       static_cast<double>(h.count)),
         util::format_duration_seconds(h.max_seconds)});
  }
  spans.print(std::cout);

  util::Table counters("Work counters");
  counters.set_headers({"Counter", "Value"});
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    counters.add_row({name, util::fmt_int(static_cast<std::int64_t>(value))});
  }
  counters.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  g_options = adr::bench::BenchOptions::from_args(argc, argv);
  const adr::util::Config raw = adr::util::Config::from_args(argc, argv);
  adr::bench::print_banner(
      "Figure 12: ActiveDR performance (memory, evaluation, scan)", "Fig. 12",
      g_options);
  print_fig12a();
  const EvalModeComparison eval_cmp = run_eval_mode_comparison(3);
  const ShardComparison shard_cmp = run_shard_comparison(
      3, static_cast<std::size_t>(raw.get_int("shards", 0)));
  run_scan_mode_comparison(raw.get_string("bench-json", "BENCH_fig12.json"),
                           eval_cmp, shard_cmp);

  // Hand benchmark only the flags it understands.
  int bench_argc = 1;
  benchmark::Initialize(&bench_argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_phase_breakdown();
  return 0;
}
