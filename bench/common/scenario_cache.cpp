#include "common/scenario_cache.hpp"

#include <cstdio>
#include <map>
#include <memory>

#include "util/logging.hpp"

namespace adr::bench {

BenchOptions BenchOptions::from_args(int argc, char** argv) {
  const util::Config config = util::Config::from_args(argc, argv);
  BenchOptions opts;
  opts.titan.users = static_cast<std::size_t>(config.get_int("users", 600));
  const double scale = config.get_double("scale", 1.0);
  opts.titan.users = static_cast<std::size_t>(
      static_cast<double>(opts.titan.users) * scale);
  if (opts.titan.users < 8) opts.titan.users = 8;
  opts.titan.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  opts.experiment.lifetime_days =
      static_cast<int>(config.get_int("lifetime", 90));
  opts.experiment.purge_interval_days =
      static_cast<int>(config.get_int("interval", 7));
  opts.experiment.purge_target_utilization = config.get_double("target", 0.5);
  return opts;
}

const synth::TitanScenario& shared_scenario(
    const synth::TitanParams& params) {
  static std::map<std::pair<std::size_t, std::uint64_t>,
                  std::unique_ptr<synth::TitanScenario>>
      cache;
  const auto key = std::make_pair(params.users, params.seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, std::make_unique<synth::TitanScenario>(
                               synth::build_titan_scenario(params)))
             .first;
  }
  return *it->second;
}

activeness::ActivityStore scenario_store(
    const synth::TitanScenario& scenario) {
  activeness::ActivityStore store(scenario.registry.size(), 2);
  activeness::ingest_jobs(store, 0, 1.0, scenario.jobs);
  activeness::ingest_publications(store, 1, 1.0, scenario.pubs);
  store.sort_all();
  return store;
}

std::array<std::size_t, activeness::kGroupCount> group_counts_at(
    const synth::TitanScenario& scenario,
    const activeness::EvaluationParams& params, util::TimePoint t) {
  const activeness::ActivityCatalog catalog =
      activeness::ActivityCatalog::paper_default();
  activeness::ActivityStore store = scenario_store(scenario);
  activeness::ShardedEvaluator pipeline(catalog, params);
  pipeline.advance(store, t);
  std::array<std::size_t, activeness::kGroupCount> counts{};
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    counts[g] =
        pipeline.plan().group(static_cast<activeness::UserGroup>(g)).size();
  }
  return counts;
}

void print_banner(const std::string& title, const std::string& paper_ref,
                  const BenchOptions& options) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s (SC '21, Zhang et al.)\n", paper_ref.c_str());
  std::printf(
      "Scenario: %zu users, seed %llu, lifetime %dd, trigger every %dd, "
      "purge target %.0f%%\n",
      options.titan.users,
      static_cast<unsigned long long>(options.titan.seed),
      options.experiment.lifetime_days, options.experiment.purge_interval_days,
      options.experiment.purge_target_utilization * 100.0);
  std::printf("================================================================\n");
}

const char* group_label(std::size_t group_index) {
  static const char* labels[] = {"Both Active", "Operation Active Only",
                                 "Outcome Active Only", "Both Inactive"};
  return group_index < 4 ? labels[group_index] : "?";
}

}  // namespace adr::bench
