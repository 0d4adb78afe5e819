// Related-work shootout (§2): all four retention strategy families on the
// same year replay —
//   * FLT (strict, the deployed baseline),
//   * value-based (Wijnhoven/Turczyk-style weighted file scoring — the
//     family the paper excludes for lacking a value consensus),
//   * scratch-as-a-cache (Monti et al. — excluded for its load/offload
//     burden),
//   * ActiveDR.
// Columns quantify the paper's exclusion arguments: the cache approach's
// restore traffic and modeled user wait, and how each policy distributes
// pain across the activeness groups.

#include <iostream>

#include "common/scenario_cache.hpp"
#include "retention/cache_policy.hpp"
#include "retention/value_policy.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace adr;
  bench::BenchOptions options = bench::BenchOptions::from_args(argc, argv);
  bench::print_banner(
      "Related work: the four retention families head-to-head", "§2",
      options);

  const synth::TitanScenario& scenario = bench::shared_scenario(options.titan);
  const sim::ExperimentConfig& config = options.experiment;
  // Value and ScratchCache run their policy on the run's Service: its Vfs,
  // and its latest evaluation for per-group attribution.
  const auto service_step = [](auto& policy) {
    return [&policy](core::Service& service, util::TimePoint now,
                     std::uint64_t target) {
      policy.set_group_of(
          [&service](trace::UserId user) { return service.group_of(user); });
      return policy.run(service.vfs(), now, target);
    };
  };

  std::vector<sim::EmulationResult> results;
  results.push_back(sim::run_flt_strict(scenario, config));
  {
    retention::ValuePolicy value(retention::ValueConfig{});
    results.push_back(
        sim::emulate(scenario, config, value.name(), service_step(value)));
  }
  {
    retention::ScratchCachePolicy cache(retention::ScratchCacheConfig{});
    sim::ExperimentConfig untargeted = config;  // the cache ignores targets
    untargeted.purge_target_utilization = 0.0;
    results.push_back(sim::emulate(scenario, untargeted, cache.name(),
                                   service_step(cache)));
  }
  results.push_back(sim::run_activedr(scenario, config));

  util::Table table("Year replay, one row per strategy");
  table.set_headers({"Policy", "Misses", "Days >5%", "Final util",
                     "Restored", "Restore wait (h)", "Active users hit"});
  for (const auto& r : results) {
    std::size_t active_hit = 0;
    for (std::size_t g = 0; g < 3; ++g) {
      active_hit += r.groups[g].unique_affected_users;
    }
    table.add_row(
        {r.policy, util::fmt_int(static_cast<std::int64_t>(r.total_misses)),
         util::fmt_int(static_cast<std::int64_t>(
             sim::days_above(r.daily, 0.05))),
         util::format_percent(static_cast<double>(r.final_bytes) /
                              static_cast<double>(scenario.capacity_bytes)),
         util::format_bytes(static_cast<double>(r.archive.restored_bytes)),
         util::fmt_double(r.archive.restore_hours, 1),
         util::fmt_int(static_cast<std::int64_t>(active_hit))});
  }
  table.print(std::cout);
  std::cout
      << "Shape check (the paper's §2 arguments, quantified):\n"
         "  * scratch-as-a-cache restores orders of magnitude more bytes —\n"
         "    the load/offload burden that got it excluded;\n"
         "  * value-based lands between FLT and ActiveDR but needs the\n"
         "    weight/threshold configuration the paper calls impractical;\n"
         "  * ActiveDR minimizes misses for active users at the same "
         "target.\n";
  return 0;
}
