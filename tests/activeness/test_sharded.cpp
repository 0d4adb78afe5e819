// Sharding invariance: splitting the pipeline into user-range segments must
// be invisible in every output — ranks, classifications, scan plans, purge
// victims — across randomized timelines with streaming appends and
// backwards-time rebuilds, and in the metric names it reports. Plus the
// sharded bookkeeping itself: the partition map and the wake filter.

#include "activeness/sharded.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "reference.hpp"
#include "retention/activedr_policy.hpp"

namespace adr::activeness {
namespace {

using namespace oracle;

TEST(ShardMap, PartitionsEveryUserExactlyOnce) {
  for (const std::size_t users : {1u, 3u, 10u, 97u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u, 150u}) {
      const ShardMap map(users, shards);
      EXPECT_EQ(map.users(), users);
      EXPECT_EQ(map.shards(), shards);
      EXPECT_EQ(map.begin(0), 0u);
      EXPECT_EQ(map.end(shards - 1), users);
      std::size_t covered = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        ASSERT_LE(map.begin(s), map.end(s)) << "users=" << users
                                            << " shards=" << shards;
        covered += map.end(s) - map.begin(s);
        for (trace::UserId u = map.begin(s); u < map.end(s); ++u) {
          ASSERT_EQ(map.shard_of(u), s)
              << "user " << u << " users=" << users << " shards=" << shards;
        }
      }
      EXPECT_EQ(covered, users);
    }
  }
  // Zero shards is clamped to one, never a division by zero.
  const ShardMap degenerate(5, 0);
  EXPECT_EQ(degenerate.shards(), 1u);
  EXPECT_EQ(degenerate.end(0), 5u);
}

TEST(ShardMap, EmptyMapRoutesEverythingToShardZero) {
  // users == 0 used to divide by zero in shard_of; an empty map owns no
  // users but still answers (default-constructed stores, zero-user synth).
  for (const std::size_t shards : {1u, 2u, 16u}) {
    const ShardMap empty(0, shards);
    EXPECT_EQ(empty.users(), 0u);
    EXPECT_EQ(empty.shard_of(0), 0u);
    EXPECT_EQ(empty.shard_of(41), 0u);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(empty.begin(s), 0u);
      EXPECT_EQ(empty.end(s), 0u);
    }
  }
  const ShardMap degenerate(0, 0);  // both axes degenerate at once
  EXPECT_EQ(degenerate.shards(), 1u);
  EXPECT_EQ(degenerate.shard_of(7), 0u);
}

TEST(ShardMap, MoreShardsThanUsersLeavesTrailingShardsEmpty) {
  for (const std::size_t users : {1u, 2u, 5u}) {
    for (const std::size_t shards : {7u, 16u, 64u}) {
      const ShardMap map(users, shards);
      std::size_t nonempty = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        ASSERT_LE(map.begin(s), map.end(s));
        if (map.begin(s) != map.end(s)) ++nonempty;
        for (trace::UserId u = map.begin(s); u < map.end(s); ++u) {
          ASSERT_EQ(map.shard_of(u), s) << "users=" << users
                                        << " shards=" << shards;
        }
      }
      EXPECT_EQ(nonempty, users);  // each owner shard holds exactly one user
      EXPECT_EQ(map.end(shards - 1), users);
    }
  }
}

// The tentpole guarantee: for every shard count, the pipeline's users,
// groups, scan plan, and purge victims are element-for-element identical to
// the plain reference's — across 200 randomized timelines mixing streaming
// appends, future-dated events, and backwards-time jumps.
TEST(ShardedEvaluator, MatchesSinglePipelineAcrossShardCountsAndTimelines) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  constexpr std::size_t kUsers = 80;
  const trace::UserRegistry registry =
      trace::UserRegistry::with_synthetic_users(kUsers);
  int timelines = 0;
  for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const EvaluationParams params = params_for(
          seed % 2 == 0 ? 30 : 90,
          seed % 3 == 0 ? StaleHandling::kDrop : StaleHandling::kClampOldest,
          ExponentScheme::kPaperExponent, seed % 3 == 0 ? 5 : 0);
      ActivityStore store = random_store(seed, kUsers);
      ShardedEvaluator sharded(catalog, params, EvalMode::kIncremental, shards);
      Reference ref;
      util::Rng rng(seed * 7919 + shards);
      util::TimePoint t = kT0 - 200 * kDay;
      for (int trigger = 0; trigger < 8; ++trigger) {
        if (trigger > 0 && rng.uniform() < 0.15) {
          // Backwards jump: every shard must rebuild, then stay identical.
          t -= static_cast<util::Duration>(rng.uniform_int(5, 60)) * kDay;
        } else {
          t += static_cast<util::Duration>(rng.uniform_int(3, 30)) * kDay;
        }
        const int burst = static_cast<int>(rng.uniform_int(0, 15));
        for (int e = 0; e < burst; ++e) {
          const auto user =
              static_cast<trace::UserId>(rng.uniform_int(0, kUsers - 1));
          const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
          // Mostly at-or-before t; sometimes future-dated, so a later
          // trigger has to reveal it through the chrono window (and wake
          // the owning shard even though its dirty queue is empty by then).
          const util::Duration off =
              static_cast<util::Duration>(rng.uniform_int(0, 20 * kDay)) -
              10 * kDay;
          const Activity a{t + off, rng.uniform(0.5, 20.0)};
          store.append(user, type, a);
        }
        sharded.advance(store, t);
        ref = reference_at(catalog, params, store, t);
        expect_matches(ref, sharded);
      }

      // Purge-victim identity at the final instant: a dry run with a byte
      // target makes the victim list depend on scan order, not just on the
      // victim set.
      fs::Vfs vfs_reference, vfs_sharded;
      util::Rng files(seed ^ 0xabc);
      for (trace::UserId u = 0; u < kUsers; ++u) {
        for (int f = 0; f < 2; ++f) {
          fs::FileMeta meta;
          meta.owner = u;
          meta.size_bytes = 64 + static_cast<std::uint64_t>(
                                     files.uniform_int(0, 100));
          meta.atime =
              t - static_cast<util::Duration>(files.uniform_int(0, 400)) *
                      kDay;
          meta.ctime = meta.atime;
          const std::string path =
              registry.home_dir(u) + "/f" + std::to_string(f);
          vfs_reference.create(path, meta);
          vfs_sharded.create(path, meta);
        }
      }
      retention::ActiveDrConfig config;
      config.dry_run = true;
      const retention::ActiveDrPolicy policy(config, registry);
      const std::uint64_t target = vfs_reference.total_bytes() / 3;
      const retention::PurgeReport a =
          policy.run(vfs_reference, t, target, ref.plan);
      const retention::PurgeReport b =
          policy.run(vfs_sharded, t, target, sharded.plan());
      EXPECT_EQ(a.victim_paths, b.victim_paths)
          << "shards=" << shards << " seed=" << seed;
      ++timelines;
    }
  }
  EXPECT_EQ(timelines, 200);
}

TEST(ShardedEvaluator, WakesOnlyDirtyShards) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store(16, 2);  // everyone fresh: durable skips all around
  store.sort_all();
  ShardedEvaluator sharded(catalog, params, EvalMode::kIncremental, 4);
  obs::Counter& advances =
      obs::MetricsRegistry::global().counter("shard.advances");

  sharded.advance(store, kT0);  // first advance: every shard rebuilds
  EXPECT_EQ(sharded.shards_advanced(), 4u);
  sharded.advance(store, kT0 + 7 * kDay);  // delta: every user freezes
  EXPECT_EQ(sharded.shards_advanced(), 4u);
  const std::uint64_t settled = advances.value();

  // Fully quiescent trigger: nothing dirty, no chrono events, everyone
  // frozen — no shard runs, and the cached plan stays served.
  sharded.advance(store, kT0 + 14 * kDay);
  EXPECT_EQ(sharded.shards_advanced(), 0u);
  EXPECT_EQ(advances.value(), settled);
  EXPECT_TRUE(sharded.evaluated());

  // One streamed event wakes exactly its owner's shard (user 9 -> shard 2).
  ASSERT_EQ(sharded.shard_map().shard_of(9), 2u);
  store.append(9, 0, Activity{kT0 + 15 * kDay, 4.0});
  sharded.advance(store, kT0 + 21 * kDay);
  EXPECT_EQ(sharded.shards_advanced(), 1u);
  EXPECT_EQ(advances.value(), settled + 1);
  EXPECT_EQ(sharded.shard_stats(2).users_reevaluated, 1u);
  EXPECT_EQ(sharded.shard_stats(0).users_skipped, 4u);  // slept through it
  EXPECT_TRUE(sharded.users()[9].op.has_data);
  EXPECT_EQ(sharded.group_of(9), UserGroup::kOperationActiveOnly);
}

/// Names of the activeness-layer counters and spans one scripted timeline
/// reports at `shards` segments: a rebuild, a delta trigger with one
/// streamed event, and a quiescent trigger. threadpool.* metrics are left
/// out — they follow the thread count, not S.
std::set<std::string> reported_names(std::size_t shards) {
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store = random_store(7, 40);
  ShardedEvaluator pipeline(catalog, params, EvalMode::kIncremental, shards);
  pipeline.advance(store, kT0);
  store.append(3, 0, Activity{kT0 + kDay, 2.0});
  pipeline.advance(store, kT0 + 7 * kDay);
  pipeline.advance(store, kT0 + 14 * kDay);

  std::set<std::string> names;
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (value > 0 && name.rfind("threadpool.", 0) != 0) names.insert(name);
  }
  for (const auto& [name, h] : snap.spans) {
    if (h.count > 0 && name.rfind("threadpool.", 0) != 0) {
      names.insert("span:" + name);
    }
  }
  return names;
}

// The metrics contract does not depend on the shard count: the same
// timeline reports the same span and counter names at S = 1 and S = 4,
// including the rebuild's evaluator.evaluate_all span.
TEST(ShardedEvaluator, SpanAndCounterNamesMatchAcrossShardCounts) {
  const std::set<std::string> one = reported_names(1);
  const std::set<std::string> four = reported_names(4);
  EXPECT_EQ(one, four);
  EXPECT_TRUE(one.count("span:evaluator.evaluate_all"));
  EXPECT_TRUE(one.count("span:incremental.advance"));
  EXPECT_TRUE(one.count("incremental.full_rebuilds"));
  EXPECT_TRUE(one.count("shard.advances"));
}

TEST(ShardedEvaluator, DefaultShardCountTracksPoolAndCap) {
  const std::size_t n = ShardedEvaluator::default_shard_count();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
}

}  // namespace
}  // namespace adr::activeness
