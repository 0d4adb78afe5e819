#pragma once
// Daemon health state machine and trigger watchdog (DESIGN.md §14.2–14.3).
//
// The resident daemon must degrade instead of dying: when a trigger phase
// (evaluate, purge, checkpoint) blows its deadline, the HealthMonitor walks
// the degradation ladder —
//
//   ok ──breach──▶ degraded ──consecutive breaches──▶ overloaded
//    ◀─recover──            ◀─────────recover────────
//                                    │ begin_drain()
//                                    ▼
//                                draining            (terminal)
//
//  * degraded — reported (status, Service::set_degraded) but changes no
//    work schedule: the evaluation pipeline already bounds every forward
//    trigger by the dirty set. Further breaches climb to overloaded.
//  * overloaded — new trigger commands are deferred with jittered
//    exponential backoff (the .cmd file stays in place; status/stop keep
//    working). Recovery needs `recover_after_ok` consecutive in-deadline
//    phases per step back down.
//  * draining — shutdown started: finish in-flight work, seal the WAL,
//    write the final checkpoint. Entered once, never left.
//
// Observability: counters serve.watchdog_breaches, serve.health_transitions,
// serve.trigger_deferrals; gauge serve.health (0 = ok .. 3 = draining).

#include <cstdint>
#include <string>

#include "util/backoff.hpp"

namespace adr::serve {

enum class HealthState { kOk, kDegraded, kOverloaded, kDraining };

const char* to_string(HealthState state);

struct WatchdogConfig {
  /// Per-phase deadline in milliseconds; 0 disables the watchdog (phases
  /// are still timed, never judged).
  std::uint64_t trigger_deadline_ms = 0;
  /// Consecutive breaches before ok → degraded.
  int degrade_after = 1;
  /// Consecutive breaches (counted from entering degraded) before
  /// degraded → overloaded.
  int overload_after = 2;
  /// Consecutive in-deadline phases per recovery step (overloaded →
  /// degraded → ok).
  int recover_after = 2;
  /// Jittered exponential backoff for deferred triggers while overloaded.
  util::BackoffPolicy defer_backoff{
      .max_attempts = 1 << 20,  // deferral never "exhausts"
      .initial_delay_ms = 50.0,
      .multiplier = 2.0,
      .max_delay_ms = 2000.0,
      .jitter = 0.5,
  };
};

class HealthMonitor {
 public:
  explicit HealthMonitor(WatchdogConfig config);

  HealthState state() const { return state_; }
  const WatchdogConfig& config() const { return config_; }

  /// Record one completed trigger phase. Returns true when the phase
  /// breached the deadline (and the ladder may have stepped up). While
  /// draining, observations are recorded but the state never changes.
  bool observe_phase(const char* phase, double elapsed_ms);

  /// Shutdown started: enter kDraining (terminal).
  void begin_drain();

  /// While overloaded: the jittered delay before the next deferred trigger
  /// attempt (grows exponentially per consecutive deferral). Counted in
  /// serve.trigger_deferrals.
  double defer_delay_ms();

  std::uint64_t breaches() const { return breaches_; }
  std::uint64_t transitions() const { return transitions_; }

 private:
  void transition_to(HealthState next, const char* why);

  WatchdogConfig config_;
  HealthState state_ = HealthState::kOk;
  util::Backoff defer_;
  int consecutive_breaches_ = 0;
  int consecutive_ok_ = 0;
  int deferrals_in_row_ = 0;
  std::uint64_t breaches_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace adr::serve
