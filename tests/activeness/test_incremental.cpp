// The tentpole guarantee of the incremental pipeline: at every trigger its
// ranks, classifications and scan plan order are *identical* to the plain
// reference (Evaluator::evaluate_all + build_scan_plan) — across randomized
// populations, trigger cadences, streaming appends, and both stale-handling
// policies. Plus the delta bookkeeping: only users whose rank can have
// changed are re-evaluated.

#include <gtest/gtest.h>

#include <vector>

#include "reference.hpp"

namespace adr::activeness {
namespace {

using namespace oracle;

TEST(EvalMode, ParseAndFormat) {
  EvalMode mode = EvalMode::kFull;
  EXPECT_TRUE(parse_eval_mode("incremental", mode));
  EXPECT_EQ(mode, EvalMode::kIncremental);
  EXPECT_TRUE(parse_eval_mode("full", mode));
  EXPECT_EQ(mode, EvalMode::kFull);
  EXPECT_FALSE(parse_eval_mode("auto", mode));
  EXPECT_FALSE(parse_eval_mode("turbo", mode));
  EXPECT_EQ(mode, EvalMode::kFull);
  EXPECT_STREQ(to_string(EvalMode::kFull), "full");
  EXPECT_STREQ(to_string(EvalMode::kIncremental), "incremental");
}

TEST(IncrementalEvaluator, MatchesFullAcrossRandomizedTriggerSweeps) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    for (const StaleHandling stale :
         {StaleHandling::kClampOldest, StaleHandling::kDrop}) {
      const EvaluationParams params =
          params_for(90, stale, ExponentScheme::kPaperExponent,
                     stale == StaleHandling::kDrop ? 4 : 0);
      ActivityStore store = random_store(seed, 120);
      ShardedEvaluator inc(catalog, params, EvalMode::kIncremental);
      util::Rng cadence(seed ^ 0xfeed);
      util::TimePoint t = kT0 - 400 * kDay;
      for (int trigger = 0; trigger < 12; ++trigger) {
        t += static_cast<util::Duration>(cadence.uniform_int(3, 40)) * kDay;
        const AdvanceStats stats = inc.advance(store, t);
        expect_matches(reference_at(catalog, params, store, t), inc);
        if (trigger > 0) {
          EXPECT_FALSE(stats.full_rebuild)
              << "forward advance must stay incremental";
        }
      }
    }
  }
}

TEST(IncrementalEvaluator, StreamingAppendsMatchFullEvaluation) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore live(60, 2);  // starts empty; events stream in
  ActivityStore mirror(60, 2);
  ShardedEvaluator inc(catalog, params, EvalMode::kIncremental);
  util::Rng rng(77);
  util::TimePoint t = kT0;
  for (int trigger = 0; trigger < 10; ++trigger) {
    // A burst of appends with timestamps at or before the next trigger.
    const util::TimePoint next = t + 7 * kDay;
    const int burst = static_cast<int>(rng.uniform_int(0, 25));
    for (int e = 0; e < burst; ++e) {
      const auto user = static_cast<trace::UserId>(rng.uniform_int(0, 59));
      const ActivityTypeId type = rng.uniform() < 0.6 ? 0 : 1;
      const Activity activity{
          t + static_cast<util::Duration>(rng.uniform_int(0, 7 * kDay)),
          rng.uniform(0.5, 20.0)};
      live.append(user, type, activity);
      mirror.add(user, type, activity);
    }
    t = next;
    inc.advance(live, t);

    // Reference: a from-scratch evaluation over the same events, loaded in
    // bulk.
    expect_matches(reference_at(catalog, params, mirror, t), inc);
  }
}

TEST(IncrementalEvaluator, ReevaluatesOnlyTheDirtyUser) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store(10, 2);
  // user 0: two activities long ago -> rank 0 (empty newest periods),
  // last_activity far behind every trigger. Everyone else: fresh.
  store.add(0, 0, Activity{kT0 - 600 * kDay, 5.0});
  store.add(0, 0, Activity{kT0 - 580 * kDay, 5.0});
  store.sort_all();

  ShardedEvaluator inc(catalog, params, EvalMode::kIncremental);
  const AdvanceStats first = inc.advance(store, kT0);
  EXPECT_TRUE(first.full_rebuild);

  // One streamed event for user 3; nobody else can have changed.
  store.append(3, 1, Activity{kT0 + kDay, 2.0});
  const AdvanceStats second = inc.advance(store, kT0 + 2 * kDay);
  EXPECT_FALSE(second.full_rebuild);
  EXPECT_EQ(second.users_dirty, 1u);
  EXPECT_EQ(second.users_reevaluated, 1u);
  EXPECT_EQ(second.users_skipped, 9u);
  EXPECT_TRUE(inc.users()[3].oc.has_data);

  // Quiet interval: nothing is dirty, nobody needs a re-rank.
  const AdvanceStats third = inc.advance(store, kT0 + 30 * kDay);
  EXPECT_EQ(third.users_dirty, 0u);
  // user 3's single recent activity holds a positive rank, so it cannot be
  // skipped (m grows with t_c); everyone else can.
  EXPECT_EQ(third.users_reevaluated, 1u);
  EXPECT_EQ(third.users_skipped, 9u);
}

TEST(IncrementalEvaluator, BackwardsTimeForcesFullRebuild) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store = random_store(5, 50);
  ShardedEvaluator inc(catalog, params, EvalMode::kIncremental);
  inc.advance(store, kT0);
  const AdvanceStats back = inc.advance(store, kT0 - 100 * kDay);
  EXPECT_TRUE(back.full_rebuild);
  expect_matches(reference_at(catalog, params, store, kT0 - 100 * kDay), inc);
}

TEST(IncrementalEvaluator, PlanPatchingMovesUsersAcrossGroups) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  // Random background population, except user 7 who starts fresh (so the
  // burst below provably flips their group).
  ActivityStore store(80, 2);
  ActivityStore mirror(80, 2);
  util::Rng rng(9);
  for (trace::UserId u = 0; u < 80; ++u) {
    if (u == 7) continue;
    const int events = static_cast<int>(rng.uniform_int(0, 8));
    for (int e = 0; e < events; ++e) {
      const Activity a{
          kT0 - static_cast<util::Duration>(rng.uniform(0, 700) * kDay),
          rng.uniform(0.1, 50.0)};
      const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
      store.add(u, type, a);
      mirror.add(u, type, a);
    }
  }
  store.sort_all();
  ShardedEvaluator inc(catalog, params, EvalMode::kIncremental);
  inc.advance(store, kT0);
  EXPECT_EQ(inc.group_of(7), UserGroup::kBothInactive);  // fresh

  // A dense recent burst flips user 7 to operation-active.
  std::vector<Activity> burst;
  for (int e = 0; e < 40; ++e) {
    burst.push_back(Activity{kT0 + e * (kDay / 2), 10.0 + e});
  }
  for (const Activity& a : burst) {
    store.append(7, 0, a);
    mirror.add(7, 0, a);
  }
  const AdvanceStats stats = inc.advance(store, kT0 + 25 * kDay);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_TRUE(inc.users()[7].op.active());
  EXPECT_EQ(inc.group_of(7), UserGroup::kOperationActiveOnly);

  expect_matches(reference_at(catalog, params, mirror, kT0 + 25 * kDay), inc);
}

TEST(IncrementalEvaluator, CappedWindowStaticGapFreezesUser) {
  // A max_periods cap used to disable the static-gap certificate outright
  // (the capped window can slide past an old gap), so this user was
  // re-ranked at every trigger forever. The capped variant proves the zero
  // durable when the gap ends at/after ts_{n-1} - (P-4)·d: here a 35-day
  // gap against d = 7 days and P = 6 — the gap's empty period stays inside
  // every future window until the newest activity itself goes stale.
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      7, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent, 6);
  ActivityStore store(1, 2);
  for (const int age_days : {41, 40, 39, 38, 3, 2, 1}) {
    store.add(0, 0, Activity{kT0 - age_days * kDay, 2.0});
  }
  store.sort_all();

  ShardedEvaluator inc(catalog, params, EvalMode::kIncremental);
  inc.advance(store, kT0);
  EXPECT_TRUE(inc.users()[0].op.zero);  // the gap's empty period zeroes op

  // The first delta advance runs the skip rules once — the newest activity
  // is still inside period 1, the totals are positive, and n >= m, so only
  // the gap certificate can fire — and memoizes the durable skip.
  AdvanceStats stats = inc.advance(store, kT0 + 3 * kDay);
  EXPECT_EQ(stats.users_reevaluated, 0u);
  EXPECT_EQ(stats.users_skipped, 1u);
  EXPECT_EQ(inc.frozen_users(), 1u);

  // The frozen skip holds at every later trigger (> 2·plen beyond the
  // last activity included) without diverging from a full evaluation.
  for (const int days : {7, 30, 200}) {
    const util::TimePoint t = kT0 + days * kDay;
    stats = inc.advance(store, t);
    EXPECT_EQ(stats.users_reevaluated, 0u) << "at +" << days << "d";
    expect_matches(reference_at(catalog, params, store, t), inc);
  }
}

TEST(IncrementalEvaluator, SecondsAccumulatePerInstance) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore a = random_store(1, 60);
  ActivityStore b = random_store(2, 60);
  ShardedEvaluator first(catalog, params);
  ShardedEvaluator second(catalog, params);
  first.advance(a, kT0);
  EXPECT_GT(first.seconds(), 0.0);
  EXPECT_EQ(second.seconds(), 0.0);  // untouched instance: no bleed-through
  second.advance(b, kT0);
  EXPECT_GT(second.seconds(), 0.0);
}

}  // namespace
}  // namespace adr::activeness
