#pragma once
// Shared plumbing for the bench binaries: CLI options (--users, --seed,
// --lifetime, ...), a per-process scenario cache (lifetime sweeps reuse one
// synthesized scenario), and the standard header every bench prints so
// bench_output.txt records the run's provenance.

#include <array>
#include <string>

#include "activeness/sharded.hpp"
#include "sim/experiment.hpp"
#include "synth/titan_model.hpp"
#include "util/config.hpp"

namespace adr::bench {

struct BenchOptions {
  synth::TitanParams titan;
  sim::ExperimentConfig experiment;

  /// Parse standard flags: --users N --seed S --lifetime D --interval D
  /// --target F --scale F (scale multiplies the user count).
  static BenchOptions from_args(int argc, char** argv);
};

/// Build (or fetch the cached) scenario for the given parameters. Cached by
/// (users, seed) within the process.
const synth::TitanScenario& shared_scenario(const synth::TitanParams& params);

/// The scenario's activity store: job submissions as type 0, publications
/// as type 1 (ActivityCatalog::paper_default()), both at weight 1.0, sorted.
activeness::ActivityStore scenario_store(const synth::TitanScenario& scenario);

/// Users per activeness group, G(1)..G(4), when the evaluation pipeline
/// ranks the scenario at `t` under `params`.
std::array<std::size_t, activeness::kGroupCount> group_counts_at(
    const synth::TitanScenario& scenario,
    const activeness::EvaluationParams& params, util::TimePoint t);

/// Print the standard bench banner.
void print_banner(const std::string& title, const std::string& paper_ref,
                  const BenchOptions& options);

/// "G(1)".."G(4)" labels in paper order for table headers.
const char* group_label(std::size_t group_index);

}  // namespace adr::bench
