#pragma once
// Closed-loop replay of one workload on one thread: each event, trigger or
// refresh is issued when the simulated clock reaches it, and the replay
// waits for the answer before going on.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workload.hpp"

namespace perfbench {

struct RunOptions {
  /// Plain reference configuration (full evaluation, walk scans, one
  /// shard, no residency budget) instead of the program's defaults.
  bool reference = false;
  /// Digests to check every op against (nullptr: check nothing).
  const Digests* expected = nullptr;
  /// Scratch directory for the daemon's WAL and state (serve_wal).
  std::string run_dir;
};

struct RunResult {
  std::vector<double> setup_s;
  double replay_s = 0.0;
  std::uint64_t live_events = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> trigger_ms;
  std::vector<double> refresh_ms;
  std::uint64_t rss_peak_bytes = 0;
  std::size_t shards = 0;
  Digests digests;
  /// Anything that makes the run's outputs untrustworthy.
  std::vector<std::string> problems;

  /// Exact counts over the timed replay (program counters and outputs).
  std::map<std::string, std::uint64_t> counts;
  /// Program state read after the replay.
  std::map<std::string, double> state;
  std::array<Tracer::LayerStats, static_cast<std::size_t>(Layer::kCount)>
      layers{};
};

/// Runs the workload; the input reader must hold the workload's inputs.
RunResult run_workload(const WorkloadSpec& spec, InputReader& input,
                       const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
