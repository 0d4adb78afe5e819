// Custom activity types: §3.1/Table 2 — administrators choose what counts
// as an operation or an outcome, with weights. Here a site tracks shell
// logins and data transfers as operations, and dataset publications plus
// completed workflow campaigns as outcomes.

#include <iostream>

#include "core/service.hpp"

using namespace adr;

int main() {
  const util::TimePoint now = util::from_civil(2026, 7, 1);

  core::Service service(trace::UserRegistry::with_synthetic_users(3, "user"),
                        core::ServiceConfig{});

  // One-time setup (Table 2): impacts are administrator-defined.
  const auto logins =
      service.register_operation_type("shell_login", /*weight=*/0.1);
  const auto transfers =
      service.register_operation_type("data_transfer_gib", /*weight=*/1.0);
  const auto datasets =
      service.register_outcome_type("dataset_published", /*weight=*/25.0);
  const auto campaigns =
      service.register_outcome_type("campaign_completed", /*weight=*/100.0);

  // user0: logs in daily and moves data, with transfers ramping up.
  for (int day = 1; day <= 270; ++day) {
    service.record(0, logins, now - util::days(day), 1.0);
    const double gib = day <= 90 ? 50.0 : 20.0;  // recent 90d ramp-up
    if (day % 3 == 0) service.record(0, transfers, now - util::days(day), gib);
  }
  // user1: few operations, but shipped a dataset and finished a campaign.
  service.record(1, transfers, now - util::days(200), 5.0);
  service.record(1, datasets, now - util::days(45), 1.0);
  service.record(1, campaigns, now - util::days(40), 1.0);
  // user2: silent.

  const auto& ranks = service.evaluate(now);
  std::cout << "Classification with site-specific activity types:\n";
  for (trace::UserId u = 0; u < 3; ++u) {
    const auto ua = ranks.get(u);
    std::cout << "  " << service.registry().name(u) << " -> "
              << activeness::group_name(activeness::classify(ua))
              << "  (op " << ua.op.value() << ", outcome " << ua.oc.value()
              << (ua.fresh() ? ", fresh account" : "") << ")\n";
  }

  // The lifetime multiplier each user would get at the next purge (Eq. 7).
  std::cout << "\nEffective file lifetimes (initial 90 days):\n";
  for (trace::UserId u = 0; u < 3; ++u) {
    const double mult = activeness::lifetime_multiplier(
        ranks.get(u), activeness::LifetimeMode::kActiveCategoriesOnly);
    std::cout << "  " << service.registry().name(u) << ": "
              << static_cast<int>(90 * mult) << " days\n";
  }
  (void)logins;
  (void)transfers;
  (void)datasets;
  (void)campaigns;
  return 0;
}
