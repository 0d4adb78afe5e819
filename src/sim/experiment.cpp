#include "sim/experiment.hpp"

namespace adr::sim {

namespace {

EmulationResult emulate_flt(const synth::TitanScenario& scenario,
                            const ExperimentConfig& config) {
  return emulate(
      scenario, config,
      retention::FltPolicy(retention::FltConfig{config.lifetime_days}).name(),
      [](core::Service& service, util::TimePoint now, std::uint64_t target) {
        return service.purge_flt(now, target);
      });
}

}  // namespace

ComparisonResult run_comparison(const synth::TitanScenario& scenario,
                                const ExperimentConfig& config) {
  ComparisonResult result;
  ExperimentConfig flt = config;
  if (config.flt_strict) flt.purge_target_utilization = 0.0;
  result.flt = emulate_flt(scenario, flt);
  result.activedr = run_activedr(scenario, config);
  // Group populations at the final evaluation (identical for both runs).
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    result.final_group_counts[g] = result.activedr.groups[g].users_in_group;
  }
  return result;
}

EmulationResult run_flt_strict(const synth::TitanScenario& scenario,
                               const ExperimentConfig& config) {
  ExperimentConfig strict = config;
  strict.purge_target_utilization = 0.0;  // purge every expired file
  return emulate_flt(scenario, strict);
}

fs::Vfs build_state_at(const synth::TitanScenario& scenario,
                       util::TimePoint as_of, int facility_lifetime_days,
                       int purge_interval_days) {
  fs::Vfs vfs;
  vfs.import_snapshot(scenario.snapshot);
  vfs.set_capacity_bytes(scenario.capacity_bytes);

  const retention::FltPolicy facility_flt(
      retention::FltConfig{facility_lifetime_days});
  const util::Duration interval = util::days(purge_interval_days);
  util::TimePoint next_trigger = scenario.sim_begin + interval;

  for (const auto& entry : scenario.replay.entries()) {
    if (entry.timestamp > as_of) break;
    while (entry.timestamp >= next_trigger && next_trigger <= as_of) {
      facility_flt.run(vfs, next_trigger, 0);
      next_trigger += interval;
    }
    fs::FileMeta meta;
    meta.owner = entry.user;
    meta.stripe_count = entry.stripe_count;
    meta.size_bytes = entry.size_bytes;
    meta.atime = entry.timestamp;
    meta.ctime = entry.timestamp;
    if (entry.op == trace::FileOp::kCreate) {
      vfs.create(entry.path, meta);
    } else if (!vfs.access(entry.path, entry.timestamp)) {
      // The facility's users restore what the purge took (re-transmission);
      // the state at `as_of` reflects what they actually kept working with.
      vfs.create(entry.path, meta);
    }
  }
  while (next_trigger <= as_of) {
    facility_flt.run(vfs, next_trigger, 0);
    next_trigger += interval;
  }
  return vfs;
}

SnapshotRetentionResult run_snapshot_retention(
    const synth::TitanScenario& scenario, const ExperimentConfig& config,
    util::TimePoint as_of) {
  const fs::Vfs state = build_state_at(scenario, as_of);
  const trace::Snapshot snapshot = state.export_snapshot();

  core::Service service(scenario.registry, service_config(config));
  ingest_scenario(service, scenario);
  service.evaluate(as_of);

  SnapshotRetentionResult result;
  result.group_counts = service.group_counts();

  // Both policies chase the same byte target from identical states. The
  // paper defines this experiment's "total capacity" as the synthesized
  // size of all files in the snapshot itself (§4.1.3), so a 50% target
  // means: purge half of what is currently there.
  const std::uint64_t target = static_cast<std::uint64_t>(
      static_cast<double>(state.total_bytes()) *
      (1.0 - config.purge_target_utilization));
  const auto reset_state = [&] {
    service.vfs().clear();
    service.load_snapshot(snapshot);
    service.vfs().set_capacity_bytes(state.capacity_bytes());
  };
  reset_state();
  result.flt = service.purge_flt(as_of, target);
  reset_state();
  result.activedr = service.purge(as_of, target);
  return result;
}

EmulationResult run_activedr(const synth::TitanScenario& scenario,
                             const ExperimentConfig& config) {
  return emulate(
      scenario, config,
      retention::ActiveDrPolicy(
          retention::ActiveDrConfig{config.lifetime_days}, scenario.registry)
          .name(),
      [](core::Service& service, util::TimePoint now, std::uint64_t target) {
        return service.purge(now, target);
      });
}

}  // namespace adr::sim
