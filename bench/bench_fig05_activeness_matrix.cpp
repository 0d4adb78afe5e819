// Figure 5: user activeness matrix — the share of users in each activeness
// group G(1)..G(4) when the evaluation period length d is 7/30/60/90 days.
//
// Paper shape: G(1) 0.4%..0.9% (growing with d), G(2) 1.1%..3.5% (growing),
// G(3) 3.4%..2.9% (slightly shrinking), G(4) 95.0%..92.7%.

#include <iostream>

#include "common/scenario_cache.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace adr;
  bench::BenchOptions options = bench::BenchOptions::from_args(argc, argv);
  bench::print_banner("Figure 5: user activeness matrix vs period length",
                      "Fig. 5", options);

  const synth::TitanScenario& scenario = bench::shared_scenario(options.titan);
  const double n = static_cast<double>(scenario.registry.size());

  util::Table table("Users per activeness group (evaluated at replay start)");
  table.set_headers({"Period length", "G(1) Both Active", "G(2) Op Only",
                     "G(3) Outcome Only", "G(4) Both Inactive"});
  for (const int d : {7, 30, 60, 90}) {
    activeness::EvaluationParams params;
    params.period_length_days = d;
    const auto counts =
        bench::group_counts_at(scenario, params, scenario.sim_begin);
    std::vector<std::string> row{std::to_string(d) + " days"};
    for (const std::size_t count : counts) {
      row.push_back(util::fmt_int(static_cast<std::int64_t>(count)) + " (" +
                    util::format_percent(static_cast<double>(count) / n, 1) +
                    ")");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "Paper reference: G(1) 0.4-0.9%, G(2) 1.1-3.5%, "
               "G(3) 3.4-2.9%, G(4) 95.0-92.7%\n";
  return 0;
}
