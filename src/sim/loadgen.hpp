#pragma once
// Sustained-load latency harness (DESIGN.md §12).
//
// act-style characterization: storage-policy engines are described by the
// event rate they can *sustain* while periodic work stays inside a latency
// budget, not by one-shot wall time. A load run drives concurrent
// trace-event ingestion into an ActivityStore (producer threads ->
// per-shard ingest queues) at a configured events/sec while the calling
// thread fires evaluate/purge triggers (ShardedEvaluator advance + dry-run
// indexed ActiveDR purge) at a fixed cadence, recording each trigger's wall
// time into an obs::Histogram. A ramp raises the rate level by level until
// the trigger p99 breaches the budget (or ingestion itself falls behind);
// the last sustained level is the max sustainable rate.
//
// Determinism: the event stream (users, types, timestamps, impacts) is a
// pure function of (seed, rate, duration) — only the interleaving with
// triggers is wall-clock dependent. Correctness is checked per level by
// replaying the identical stream serially (single-threaded appends, one
// full evaluation at the same final instant) and comparing ranks and scan
// plans element for element.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "activeness/sharded.hpp"
#include "util/time.hpp"

namespace adr::sim {

struct LoadGenConfig {
  std::size_t users = 600;
  std::size_t files_per_user = 20;  ///< synthetic purge population per user
  std::uint64_t seed = 42;
  std::size_t producers = 2;  ///< concurrent ingest threads
  /// Evaluation shards (activeness/sharded.hpp): 0 = default_shard_count().
  std::size_t shards = 0;
  activeness::EvalMode eval_mode = activeness::EvalMode::kIncremental;
  int period_length_days = 30;

  double events_per_sec = 4000.0;  ///< first ramp level's target rate
  double duration_seconds = 1.0;   ///< wall time per level
  double trigger_interval_seconds = 0.1;
  /// A level is sustainable while trigger p99 stays at or under this.
  double p99_budget_ms = 50.0;
  std::size_t ramp_levels = 4;
  double ramp_factor = 2.0;

  /// Per-level serial-replay identity check (skippable for pure timing).
  bool check_identity = true;
  /// Fire a dry-run indexed ActiveDR purge inside every trigger.
  bool with_purge = true;

  /// Simulated-clock anchor: events span [sim_begin, sim_begin + span].
  util::TimePoint sim_begin = 1'600'000'000;
  int sim_span_days = 30;
};

struct LoadLevelResult {
  double target_rate = 0.0;
  double achieved_rate = 0.0;  ///< enqueue throughput actually reached
  std::size_t events = 0;
  std::size_t triggers = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  double wall_seconds = 0.0;
  bool ranks_identical = true;
  bool sustainable = true;
};

struct LoadResult {
  std::vector<LoadLevelResult> levels;
  /// Highest target rate whose level stayed inside the p99 budget with
  /// ingestion keeping pace (0 when even the first level broke it).
  double max_sustainable_rate = 0.0;
  /// AND over every level's serial-replay comparison.
  bool ranks_identical = true;
  std::size_t shards = 1;  ///< resolved shard count the run used
};

/// One fixed-rate level: producers + trigger loop + final evaluation +
/// (optionally) the serial-replay identity check.
LoadLevelResult run_load_level(const LoadGenConfig& config, double rate);

/// Full ramp: levels at events_per_sec x ramp_factor^i until one is
/// unsustainable (that level is included in `levels`) or ramp_levels ran.
LoadResult run_load(const LoadGenConfig& config);

}  // namespace adr::sim
