#include "sim/scale.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "activeness/sharded.hpp"
#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "retention/policy.hpp"
#include "trace/user_registry.hpp"
#include "util/memory.hpp"

namespace adr::sim {
namespace {

using Clock = std::chrono::steady_clock;

synth::StreamSynthConfig synth_config(const ScaleConfig& config) {
  synth::StreamSynthConfig s;
  s.users = config.users;
  s.seed = config.seed;
  s.sim_span_days = config.sim_span_days;
  s.initial_files_per_user = config.initial_files_per_user;
  s.backfill_days = config.backfill_days;
  s.events_per_user_day = config.events_per_user_day;
  return s;
}

/// One harness over either event source; `next` yields false when done.
template <typename NextFn>
ScaleResult drive(const ScaleConfig& config, NextFn&& next_event) {
  ScaleResult result;
  result.users = config.users;

  core::ServiceConfig service_config;
  service_config.lifetime_days = config.lifetime_days;
  service_config.eval_shards = config.shards;
  service_config.dry_run = config.dry_run;
  service_config.record_victims = config.record_victims;
  core::Service service(
      trace::UserRegistry::with_synthetic_users(config.users), service_config);
  service.register_paper_types();
  service.vfs().set_memory_budget_bytes(config.memory_budget_bytes);

  service.prepare_ingest();
  const synth::StreamSynthConfig synth_cfg = synth_config(config);
  service.evaluate(synth_cfg.sim_begin);
  activeness::ActivityStore& store = service.store();
  result.shards = service.pipeline().shard_count();

  obs::Histogram& trigger_hist =
      obs::MetricsRegistry::global().histogram("scale.trigger_seconds");
  trigger_hist.reset();
  obs::Counter& faults =
      obs::MetricsRegistry::global().counter("vfs.faults");
  const std::uint64_t faults_before = faults.value();

  const auto trigger_step = static_cast<util::Duration>(
      std::max(1.0, config.trigger_every_days *
                        static_cast<double>(util::kSecondsPerDay)));
  util::TimePoint next_trigger = synth_cfg.sim_begin + trigger_step;
  const util::TimePoint sim_end =
      synth_cfg.sim_begin + util::days(config.sim_span_days);

  const auto fire = [&](util::TimePoint at) {
    const std::uint64_t target =
        retention::purge_target_bytes(service.vfs(), 0.75);
    const Clock::time_point t0 = Clock::now();
    const retention::PurgeReport report = service.purge(at, target);
    trigger_hist.observe(
        std::chrono::duration<double>(Clock::now() - t0).count());
    ++result.triggers;
    result.purged_bytes += report.purged_bytes;
    result.purged_files += report.purged_files;
    if (config.record_victims) {
      result.victims_per_trigger.push_back(report.victim_paths);
    }
  };

  const Clock::time_point start = Clock::now();
  {
    // One outer span per run: closing it samples proc.rss_* exactly once
    // on top of the per-trigger samples from purge()'s own spans.
    obs::TimerSpan run_span("scale.run");
    synth::StreamEvent e;
    while (next_event(e)) {
      while (e.timestamp >= next_trigger && next_trigger < sim_end) {
        fire(next_trigger);
        next_trigger += trigger_step;
      }
      switch (e.kind) {
        case synth::StreamEventKind::kJobSubmit:
          if (config.streamed) {
            store.enqueue(e.user, core::kJobActivityType,
                          {e.timestamp, e.impact});
          } else {
            store.append(e.user, core::kJobActivityType,
                         {e.timestamp, e.impact});
          }
          break;
        case synth::StreamEventKind::kPublication:
          if (config.streamed) {
            store.enqueue(e.user, core::kPublicationActivityType,
                          {e.timestamp, e.impact});
          } else {
            store.append(e.user, core::kPublicationActivityType,
                         {e.timestamp, e.impact});
          }
          break;
        case synth::StreamEventKind::kFileCreate: {
          fs::FileMeta meta;
          meta.owner = e.user;
          meta.size_bytes = e.size_bytes;
          meta.atime = e.timestamp;
          meta.ctime = e.timestamp;
          meta.stripe_count = 1;
          service.vfs().create(synth::StreamSynth::path_of(e.user, e.ordinal),
                               meta);
          ++result.files_created;
          break;
        }
        case synth::StreamEventKind::kFileAccess:
          // Owner hint: under a budget the target subtree may be evicted.
          // A miss is expected when a purge already removed the ordinal.
          service.vfs().access(synth::StreamSynth::path_of(e.user, e.ordinal),
                               e.timestamp, e.user);
          break;
      }
      ++result.events;
    }
    // Closing trigger past the span end: drains the ingest queues and
    // fixes the instant the identity fingerprint is taken at.
    fire(sim_end + util::days(1));
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.events) / result.wall_seconds
          : 0.0;
  result.trigger_p50_ms = trigger_hist.quantile(0.50) * 1e3;
  result.trigger_p99_ms = trigger_hist.quantile(0.99) * 1e3;
  result.trigger_max_ms = trigger_hist.max_seconds() * 1e3;
  result.rss_peak_bytes = util::rss_peak();
  result.vfs_resident_bytes = service.vfs().resident_bytes_estimate();
  result.vfs_spilled_bytes = service.vfs().spilled_bytes();
  result.evicted_users = service.vfs().evicted_user_count();
  result.residency_faults = faults.value() - faults_before;

  // Rank fingerprint: one line per user, exact keys — memcmp-equality
  // across runs is the identity contract.
  const auto& users = service.pipeline().users();
  result.rank_fingerprint.reserve(users.size());
  for (const auto& ua : users) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%u:%.21Lg:%.21Lg:%lld", ua.user,
                  ua.op.sort_key(), ua.oc.sort_key(),
                  static_cast<long long>(ua.last_activity));
    result.rank_fingerprint.push_back(buf);
  }
  return result;
}

}  // namespace

ScaleResult run_scale(const ScaleConfig& config) {
  if (config.streamed) {
    synth::StreamSynth stream(synth_config(config));
    return drive(config,
                 [&](synth::StreamEvent& e) { return stream.next(e); });
  }
  const std::vector<synth::StreamEvent> events =
      synth::StreamSynth::materialize(synth_config(config));
  std::size_t i = 0;
  return drive(config, [&](synth::StreamEvent& e) {
    if (i >= events.size()) return false;
    e = events[i++];
    return true;
  });
}

ScaleIdentityResult check_scale_identity(const ScaleConfig& config,
                                         std::uint64_t budget_bytes) {
  ScaleIdentityResult out;

  // 1. The event stream itself: heap-merged next() order must equal the
  // sorted materialized order, field for field.
  {
    const synth::StreamSynthConfig synth_cfg = synth_config(config);
    const std::vector<synth::StreamEvent> mat =
        synth::StreamSynth::materialize(synth_cfg);
    synth::StreamSynth stream(synth_cfg);
    synth::StreamEvent e;
    std::size_t i = 0;
    out.events_identical = true;
    while (stream.next(e)) {
      if (i >= mat.size() || e.timestamp != mat[i].timestamp ||
          e.user != mat[i].user || e.kind != mat[i].kind ||
          e.ordinal != mat[i].ordinal || e.impact != mat[i].impact ||
          e.size_bytes != mat[i].size_bytes) {
        out.events_identical = false;
        break;
      }
      ++i;
    }
    out.events_identical = out.events_identical && i == mat.size();
  }

  // 2. End-to-end: streamed ingest under the budget vs materialized replay
  // with residency off — ranks and purge victims must match exactly.
  ScaleConfig streamed = config;
  streamed.streamed = true;
  streamed.memory_budget_bytes = budget_bytes;
  streamed.record_victims = true;
  ScaleConfig materialized = config;
  materialized.streamed = false;
  materialized.memory_budget_bytes = 0;
  materialized.record_victims = true;

  const ScaleResult a = run_scale(streamed);
  const ScaleResult b = run_scale(materialized);
  out.triggers = a.triggers;
  out.ranks_identical = a.rank_fingerprint == b.rank_fingerprint;
  out.victims_identical = a.victims_per_trigger == b.victims_per_trigger;
  return out;
}

}  // namespace adr::sim
