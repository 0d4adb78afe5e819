// Per-shard ingest queues (DESIGN.md §12): producers enqueue trace events
// concurrently with an advancing ShardedEvaluator; each shard's advance
// drains only its own queue, so the final ranks must be byte-identical to a
// serial replay of the same events. The suite name matches the TSan CI
// job's "Shard|ThreadPool" filter — these tests are where the
// producer/evaluator interleavings actually happen.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "activeness/sharded.hpp"
#include "reference.hpp"

namespace adr::activeness {
namespace {

using namespace oracle;

/// Identical base population for the concurrent run and its serial replay.
ActivityStore base_store(std::uint64_t seed, std::size_t users) {
  ActivityStore store(users, 2);
  util::Rng rng(seed);
  for (trace::UserId u = 0; u < users; ++u) {
    if (rng.uniform() < 0.2) continue;  // fresh users stay empty
    const int events = static_cast<int>(rng.uniform_int(1, 20));
    for (int e = 0; e < events; ++e) {
      const util::TimePoint ts =
          kT0 - static_cast<util::Duration>(rng.uniform(0, 400) * kDay);
      store.add(u, rng.uniform() < 0.7 ? 0 : 1,
                Activity{ts, rng.uniform(0.1, 50.0)});
    }
  }
  store.sort_all();
  return store;
}

struct Event {
  trace::UserId user;
  ActivityTypeId type;
  Activity activity;
};

/// Deterministic ingest stream: timestamps march forward from kT0 so the
/// interleaved advances reveal them progressively.
std::vector<Event> make_events(std::uint64_t seed, std::size_t users,
                               std::size_t count) {
  util::Rng rng(seed);
  std::vector<Event> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    events[i].user = static_cast<trace::UserId>(rng.bounded(users));
    events[i].type = rng.uniform() < 0.5 ? 0 : 1;
    events[i].activity.timestamp =
        kT0 + static_cast<util::Duration>(
                  30.0 * kDay * static_cast<double>(i) /
                  static_cast<double>(count));
    events[i].activity.impact = rng.uniform(0.1, 50.0);
  }
  return events;
}

EvaluationParams short_params() {
  EvaluationParams p;
  p.period_length_days = 30;
  return p;
}

TEST(ShardIngestQueues, EnqueueRoutesToOwnerShard) {
  constexpr std::size_t kUsers = 64;
  constexpr std::size_t kShards = 4;
  ActivityStore store = base_store(11, kUsers);
  store.set_dirty_shards(kShards);
  store.take_dirty(0), store.take_dirty(1), store.take_dirty(2),
      store.take_dirty(3);
  const ShardMap map(kUsers, kShards);

  const trace::UserId user = map.begin(2);  // definitely owned by shard 2
  store.enqueue(user, 0, Activity{kT0 + kDay, 1.0});
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(store.has_pending_ingest(s), s == 2) << "shard " << s;
  }
  EXPECT_TRUE(store.has_pending_ingest());

  EXPECT_EQ(store.drain_ingest(2), 1u);
  EXPECT_FALSE(store.has_pending_ingest());
  // The drain applied the event through append(): the owner shard is dirty
  // again and the stream grew.
  EXPECT_TRUE(store.has_dirty(2));
  EXPECT_EQ(store.stream(user, 0).back().timestamp, kT0 + kDay);
}

TEST(ShardIngestQueues, EnqueueValidatesUserAndType) {
  ActivityStore store(8, 2);
  EXPECT_THROW(store.enqueue(8, 0, Activity{kT0, 1.0}), std::out_of_range);
  EXPECT_THROW(store.enqueue(0, 2, Activity{kT0, 1.0}), std::out_of_range);
}

TEST(ShardIngestQueues, PerShardDrainRequiresFinalizedStore) {
  ActivityStore store(8, 2);  // never sorted: not finalized
  store.set_dirty_shards(2);
  store.enqueue(0, 0, Activity{kT0, 1.0});
  EXPECT_THROW(store.drain_ingest(0), std::logic_error);
  // The global drain finalizes first, then applies everything.
  EXPECT_EQ(store.drain_ingest(), 1u);
  EXPECT_TRUE(store.finalized());
  EXPECT_FALSE(store.has_pending_ingest());
}

TEST(ShardIngestQueues, WakeFilterSeesPendingIngest) {
  constexpr std::size_t kUsers = 64;
  constexpr std::size_t kShards = 4;
  ActivityStore store = base_store(22, kUsers);
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  ShardedEvaluator evaluator(catalog, short_params(), EvalMode::kIncremental,
                             kShards);
  evaluator.advance(store, kT0);
  evaluator.advance(store, kT0 + kDay);

  const ShardMap map(kUsers, kShards);
  const trace::UserId user = map.begin(1);
  const util::TimePoint ts = kT0 + 2 * kDay;
  store.enqueue(user, 0, Activity{ts, 5.0});

  // The event sits only in shard 1's ingest queue — it is not in the
  // chronological index yet, so the wake filter can only see it through
  // has_pending_ingest. Its effect must be visible in the refreshed rank.
  evaluator.advance(store, kT0 + 3 * kDay);
  EXPECT_GE(evaluator.shards_advanced(), 1u);
  EXPECT_EQ(evaluator.users()[user].last_activity, ts);
}

// N producer threads enqueue a deterministic stream round-robin while the
// main thread keeps advancing the sharded evaluator mid-flight. After a
// final advance past the stream's last timestamp, every rank and the full
// scan plan must equal a single-threaded replay of the same events. Run
// under TSan in CI (filter "Shard|ThreadPool").
TEST(ShardIngestQueues, ConcurrentProducersMatchSerialReplay) {
  constexpr std::size_t kUsers = 96;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kEvents = 4000;
  const std::vector<Event> events = make_events(33, kUsers, kEvents);
  const ActivityCatalog catalog = ActivityCatalog::paper_default();

  ActivityStore store = base_store(44, kUsers);
  ShardedEvaluator evaluator(catalog, short_params(), EvalMode::kIncremental,
                             kShards);
  // Warm start before producers exist: the first advance re-buckets the
  // store single-threaded.
  evaluator.advance(store, kT0);

  std::atomic<std::size_t> enqueued{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < events.size(); i += kProducers) {
        store.enqueue(events[i].user, events[i].type, events[i].activity);
        enqueued.fetch_add(1, std::memory_order_release);
      }
    });
  }

  util::TimePoint now = kT0;
  while (enqueued.load(std::memory_order_acquire) < events.size()) {
    now += kDay;
    evaluator.advance(store, now);
  }
  for (std::thread& t : producers) t.join();
  const util::TimePoint final_now = std::max(now, kT0 + 40 * kDay);
  evaluator.advance(store, final_now);

  ActivityStore serial = base_store(44, kUsers);
  for (const Event& e : events) serial.append(e.user, e.type, e.activity);
  expect_matches(reference_at(catalog, short_params(), serial, final_now),
                 evaluator);
}

}  // namespace
}  // namespace adr::activeness
