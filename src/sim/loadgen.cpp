#include "sim/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "activeness/activity.hpp"
#include "activeness/evaluator.hpp"
#include "activeness/sharded.hpp"
#include "core/service.hpp"
#include "fs/vfs.hpp"
#include "obs/metrics.hpp"
#include "retention/policy.hpp"
#include "trace/user_registry.hpp"
#include "util/rng.hpp"

namespace adr::sim {
namespace {

using Clock = std::chrono::steady_clock;

struct LoadEvent {
  trace::UserId user = 0;
  activeness::ActivityTypeId type = 0;
  activeness::Activity activity;
};

// The level's full event stream, pre-generated so producers only pace and
// enqueue. Deterministic in (seed, rate, duration); timestamps are spread
// uniformly (in generation order) across the simulated span so triggers at
// intermediate sim instants always see a mix of past and future events.
std::vector<LoadEvent> make_events(const LoadGenConfig& config, double rate) {
  const double raw = rate * config.duration_seconds;
  const std::size_t n = raw < 1.0 ? 1 : static_cast<std::size_t>(raw);
  util::Rng rng(config.seed ^
                (static_cast<std::uint64_t>(rate) * 0x9E3779B97F4A7C15ULL));
  const auto span = static_cast<double>(util::days(config.sim_span_days));
  std::vector<LoadEvent> events(n);
  for (std::size_t i = 0; i < n; ++i) {
    LoadEvent& e = events[i];
    e.user = static_cast<trace::UserId>(rng.bounded(config.users));
    e.type = rng.bernoulli(0.5) ? 0 : 1;
    e.activity.timestamp =
        config.sim_begin +
        static_cast<util::Duration>(span * static_cast<double>(i) /
                                    static_cast<double>(n));
    e.activity.impact = rng.uniform(0.5, 50.0);
  }
  return events;
}

// Synthetic purge population: files_per_user files per home directory with
// atimes spread over the 400 days before the simulated clock starts, so the
// dry-run purge inside each trigger has real candidate work to index.
fs::Vfs make_vfs(const LoadGenConfig& config,
                 const trace::UserRegistry& registry) {
  fs::Vfs vfs;
  util::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 0xD1CEB00CULL);
  for (trace::UserId u = 0; u < registry.size(); ++u) {
    const std::string home = registry.home_dir(u);
    for (std::size_t f = 0; f < config.files_per_user; ++f) {
      fs::FileMeta meta;
      meta.owner = u;
      meta.size_bytes = static_cast<std::uint64_t>(
          rng.uniform_int(std::int64_t{1} << 10, std::int64_t{1} << 24));
      meta.atime = config.sim_begin - static_cast<util::Duration>(
                                          rng.uniform(0.0, 400.0) *
                                          static_cast<double>(util::kSecondsPerDay));
      meta.ctime = meta.atime - util::days(1);
      vfs.create(home + "/f" + std::to_string(f), meta);
    }
  }
  return vfs;
}

bool same_activeness(const activeness::UserActiveness& a,
                     const activeness::UserActiveness& b) {
  return a.user == b.user && a.op.sort_key() == b.op.sort_key() &&
         a.oc.sort_key() == b.oc.sort_key() &&
         a.last_activity == b.last_activity;
}

// Ranks and plan order must match exactly. Equal-timestamp events may reach
// the store in a different order concurrently than serially, but every rank
// input (per-period impact sums, gaps, last activity) is order-invariant
// within a timestamp, so byte-identity is the contract, not an approximation.
bool same_outputs(const activeness::ShardedEvaluator& a,
                  const activeness::ShardedEvaluator& b) {
  const auto& ua = a.users();
  const auto& ub = b.users();
  if (ua.size() != ub.size()) return false;
  for (std::size_t i = 0; i < ua.size(); ++i) {
    if (!same_activeness(ua[i], ub[i])) return false;
  }
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    const auto& ga = a.plan().groups[g];
    const auto& gb = b.plan().groups[g];
    if (ga.size() != gb.size()) return false;
    for (std::size_t i = 0; i < ga.size(); ++i) {
      if (!same_activeness(ga[i], gb[i])) return false;
    }
  }
  return true;
}

}  // namespace

LoadLevelResult run_load_level(const LoadGenConfig& config, double rate) {
  LoadLevelResult result;
  result.target_rate = rate;

  // The harness drives the same core::Service the daemon keeps resident:
  // producers enqueue into its store, triggers are evaluate()+purge() — the
  // exact warm-trigger path `activedr serve` answers from.
  core::ServiceConfig service_config;
  service_config.lifetime_days = config.period_length_days;
  service_config.eval_mode = config.eval_mode;
  service_config.eval_shards = config.shards;
  service_config.dry_run = true;
  core::Service service(trace::UserRegistry::with_synthetic_users(config.users),
                        service_config);
  service.register_paper_types();
  service.vfs() = make_vfs(config, service.registry());
  const std::uint64_t purge_target =
      retention::purge_target_bytes(service.vfs(), 0.75);

  const std::vector<LoadEvent> events = make_events(config, rate);

  // Warm start before any producer exists: sizes the ingest/dirty sharding
  // and lets the first advance run set_dirty_shards() while single-threaded —
  // shard re-bucketing must never race an enqueue.
  service.prepare_ingest();
  service.evaluate(config.sim_begin);
  activeness::ActivityStore& store = service.store();

  obs::Histogram& trigger_hist =
      obs::MetricsRegistry::global().histogram("loadgen.trigger_seconds");
  trigger_hist.reset();

  const std::size_t producers = std::max<std::size_t>(1, config.producers);
  std::atomic<std::size_t> enqueued{0};
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      // Producer p owns events p, p+P, p+2P, ... all paced against the one
      // global schedule (event i due at start + i/rate), so the aggregate
      // arrival rate is `rate` regardless of P. Sleeping every 64th event
      // keeps pacing overhead negligible; falling behind just runs flat
      // out, which shows up as achieved_rate < target_rate.
      std::size_t handled = 0;
      for (std::size_t i = p; i < events.size(); i += producers) {
        if ((handled++ & 63U) == 0) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / rate)));
        }
        const LoadEvent& e = events[i];
        store.enqueue(e.user, e.type, e.activity);
        enqueued.fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Trigger loop on the calling thread. The simulated clock advances a
  // fixed step per trigger sized so the whole span is swept in roughly
  // duration / interval triggers.
  const double expected_triggers = std::max(
      1.0, config.duration_seconds / std::max(config.trigger_interval_seconds,
                                              1e-3));
  const util::Duration sim_step = std::max<util::Duration>(
      util::hours(1),
      static_cast<util::Duration>(
          static_cast<double>(util::days(config.sim_span_days)) /
          expected_triggers));

  util::TimePoint sim_now = config.sim_begin;
  std::size_t tick = 0;
  while (enqueued.load(std::memory_order_acquire) < events.size()) {
    ++tick;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(tick) *
                        config.trigger_interval_seconds)));
    sim_now += sim_step;
    const Clock::time_point t0 = Clock::now();
    if (config.with_purge) {
      service.purge(sim_now, purge_target);
    } else {
      service.evaluate(sim_now);
    }
    trigger_hist.observe(
        std::chrono::duration<double>(Clock::now() - t0).count());
    ++result.triggers;
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Closing trigger past the span's end: drains every queue, reveals every
  // event, and fixes the instant the identity check replays to.
  const util::TimePoint sim_final =
      std::max(sim_now, config.sim_begin + util::days(config.sim_span_days)) +
      util::days(1);
  {
    const Clock::time_point t0 = Clock::now();
    if (config.with_purge) {
      service.purge(sim_final, purge_target);
    } else {
      service.evaluate(sim_final);
    }
    trigger_hist.observe(
        std::chrono::duration<double>(Clock::now() - t0).count());
    ++result.triggers;
  }

  result.events = events.size();
  result.achieved_rate = result.wall_seconds > 0.0
                             ? static_cast<double>(events.size()) /
                                   result.wall_seconds
                             : 0.0;
  result.p50_ms = trigger_hist.quantile(0.50) * 1e3;
  result.p99_ms = trigger_hist.quantile(0.99) * 1e3;
  result.p999_ms = trigger_hist.quantile(0.999) * 1e3;
  result.max_ms = trigger_hist.max_seconds() * 1e3;

  if (config.check_identity) {
    // Serial replay: same events in generation order through plain
    // append(), one full single-shard evaluation at the same final
    // instant. Concurrent and serial runs must agree rank for rank.
    const activeness::ActivityCatalog catalog =
        activeness::ActivityCatalog::paper_default();
    activeness::EvaluationParams params;
    params.period_length_days = config.period_length_days;
    activeness::ActivityStore serial(config.users, catalog.size());
    for (const LoadEvent& e : events) {
      serial.append(e.user, e.type, e.activity);
    }
    activeness::ShardedEvaluator reference(catalog, params,
                                           activeness::EvalMode::kFull, 1);
    reference.advance(serial, sim_final);
    result.ranks_identical = same_outputs(service.pipeline(), reference);
  }

  // Sustainable = the latency budget held AND ingestion kept (close to)
  // pace. The 0.8 slack absorbs scheduler jitter on loaded runners without
  // masking a real ingest wall.
  result.sustainable = result.ranks_identical &&
                       result.p99_ms <= config.p99_budget_ms &&
                       result.achieved_rate >= 0.8 * rate;
  return result;
}

LoadResult run_load(const LoadGenConfig& config) {
  LoadGenConfig level_config = config;
  level_config.shards =
      config.shards == 0 ? activeness::ShardedEvaluator::default_shard_count()
                         : config.shards;

  LoadResult out;
  out.shards = level_config.shards;
  const std::size_t levels = std::max<std::size_t>(1, config.ramp_levels);
  double rate = std::max(1.0, config.events_per_sec);
  for (std::size_t level = 0; level < levels; ++level) {
    const LoadLevelResult r = run_load_level(level_config, rate);
    out.levels.push_back(r);
    out.ranks_identical = out.ranks_identical && r.ranks_identical;
    if (!r.sustainable) break;
    out.max_sustainable_rate = r.target_rate;
    rate *= std::max(1.1, config.ramp_factor);
  }
  return out;
}

}  // namespace adr::sim
