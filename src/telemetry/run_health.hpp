/// \file run_health.hpp
/// \brief Run-health heartbeat and anomaly flagging over the per-step
/// metrics stream.
///
/// Long RBC campaigns die slowly before they die loudly: GMRES iteration
/// counts creep up, the pressure residual stops improving, checkpoint writes
/// start retrying. RunHealth watches the per-step samples the Telemetry
/// context feeds it, keeps a 16-step trailing window (an iteration spike is
/// more than 3x the window's mean and at least 8 iterations above it), and
///  * emits a one-line heartbeat digest (step rate, iterations, residuals,
///    Nusselt number, workspace-arena high water) at info level every
///    `heartbeat` steps;
///  * flags anomalies — iteration-count spikes and residual stagnation at
///    warn level, checkpoint write retries at error level (the run is one
///    failed retry away from losing its newest state) — and counts each
///    class into a `health.flags.<class>` counter (iteration_spike,
///    residual_stagnation, checkpoint_retry) plus the `health.anomalies`
///    aggregate, exactly once per detection, so the NDJSON stream records
///    when and how a run went sideways in machine-readable form (the
///    campaign status fold rolls these up fleet-wide).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace felis::telemetry {

struct HealthConfig {
  std::int64_t heartbeat = 10;   ///< digest every N steps (0 disables)
  usize stagnation_run = 6;      ///< consecutive non-improving residuals
};

/// One step's health-relevant sample (a narrow view of the step record).
struct StepSample {
  std::int64_t step = 0;
  double wall_seconds = 0;    ///< telemetry-clock time at end of step
  double step_seconds = 0;
  double cfl = 0;
  int pressure_iterations = 0;
  double pressure_residual = 0;
  double nusselt = 0;         ///< 0 when the case layer is not attached
  double arena_bytes = 0;     ///< workspace-arena high water
};

class RunHealth {
 public:
  /// `metrics` receives the `health.*` anomaly counters; may be null (tests).
  explicit RunHealth(HealthConfig config, MetricsRegistry* metrics = nullptr);

  /// Ingest one step: update the window, flag anomalies, refresh the digest
  /// and (every `heartbeat` steps) log it at info level.
  void on_step(const StepSample& sample);

  /// Checkpoint write needed `retries` extra attempts (flagged at error
  /// level: the rotation's durability margin is being consumed).
  void flag_checkpoint_retries(int retries, const std::string& path);

  /// Most recent heartbeat digest line (empty before the first step).
  const std::string& last_digest() const { return digest_; }

  std::int64_t anomaly_count() const { return anomalies_; }

 private:
  void detect_anomalies(const StepSample& sample);
  void make_digest(const StepSample& sample);
  void count(const char* metric_name);

  HealthConfig config_;
  MetricsRegistry* metrics_;
  std::deque<StepSample> window_;
  usize stagnant_steps_ = 0;
  double prev_residual_ = 0;
  std::int64_t anomalies_ = 0;
  std::string digest_;
};

}  // namespace felis::telemetry
