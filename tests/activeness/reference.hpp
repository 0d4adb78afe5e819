#pragma once
// Shared helpers for the evaluation-pipeline identity suites: random
// populations, exact comparisons, and the plain reference model every
// pipeline output is checked against — Evaluator::evaluate_all +
// build_scan_plan at the trigger instant, with no caches, skip
// certificates, segments or splices.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "activeness/sharded.hpp"
#include "util/rng.hpp"

namespace adr::activeness::oracle {

inline constexpr util::TimePoint kT0 = 1'700'000'000;
inline constexpr util::Duration kDay = 86'400;

inline void expect_same_rank(const Rank& a, const Rank& b, const char* what) {
  EXPECT_EQ(a.has_data, b.has_data) << what;
  EXPECT_EQ(a.zero, b.zero) << what;
  EXPECT_EQ(a.log_phi, b.log_phi) << what;
}

inline void expect_same_activeness(const UserActiveness& a,
                                   const UserActiveness& b) {
  EXPECT_EQ(a.user, b.user);
  expect_same_rank(a.op, b.op, "op");
  expect_same_rank(a.oc, b.oc, "oc");
  EXPECT_EQ(a.last_activity, b.last_activity);
}

inline void expect_same_plan(const ScanPlan& a, const ScanPlan& b) {
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    ASSERT_EQ(a.groups[g].size(), b.groups[g].size()) << "group " << g;
    for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
      EXPECT_EQ(a.groups[g][i].user, b.groups[g][i].user)
          << "group " << g << " position " << i;
      expect_same_activeness(a.groups[g][i], b.groups[g][i]);
    }
  }
}

/// A random population: most users sparse (many end up at Φ = 0 or fresh),
/// a few dense enough to hold a positive rank.
inline ActivityStore random_store(std::uint64_t seed, std::size_t users) {
  ActivityStore store(users, 2);
  util::Rng rng(seed);
  for (trace::UserId u = 0; u < users; ++u) {
    const double archetype = rng.uniform();
    if (archetype < 0.15) continue;  // fresh: no activity at all
    const bool dense = archetype > 0.8;
    const int events = dense ? static_cast<int>(rng.uniform_int(30, 80))
                             : static_cast<int>(rng.uniform_int(1, 6));
    for (int e = 0; e < events; ++e) {
      const util::TimePoint ts =
          kT0 - static_cast<util::Duration>(rng.uniform(0, 700) * kDay);
      const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
      store.add(u, type, Activity{ts, rng.uniform(0.1, 50.0)});
    }
  }
  store.sort_all();
  return store;
}

inline EvaluationParams params_for(int period_days, StaleHandling stale,
                                   ExponentScheme scheme,
                                   int max_periods = 0) {
  EvaluationParams p;
  p.period_length_days = period_days;
  p.stale = stale;
  p.scheme = scheme;
  p.max_periods = max_periods;
  return p;
}

/// The reference evaluation of `store` at `now`.
struct Reference {
  std::vector<UserActiveness> users;
  std::vector<UserGroup> groups;
  ScanPlan plan;
};

/// Finalizes `store` first if bulk rows are pending, as the pipeline does:
/// the indexed and the streaming Eq. 1–5 paths agree only up to summation
/// order.
inline Reference reference_at(const ActivityCatalog& catalog,
                              EvaluationParams params, ActivityStore& store,
                              util::TimePoint now) {
  if (!store.finalized()) store.sort_all();
  params.now = now;
  Reference ref;
  ref.users = Evaluator(catalog, params).evaluate_all(store);
  for (const UserActiveness& ua : ref.users) {
    ref.groups.push_back(classify(ua));
  }
  ref.plan = build_scan_plan(ref.users);
  return ref;
}

/// Users, groups and plan of `pipeline` equal the reference exactly.
inline void expect_matches(const Reference& ref,
                           const ShardedEvaluator& pipeline) {
  ASSERT_EQ(pipeline.users().size(), ref.users.size());
  for (std::size_t u = 0; u < ref.users.size(); ++u) {
    expect_same_activeness(ref.users[u], pipeline.users()[u]);
    EXPECT_EQ(ref.groups[u], pipeline.groups()[u]) << "user " << u;
  }
  expect_same_plan(ref.plan, pipeline.plan());
}

}  // namespace adr::activeness::oracle
