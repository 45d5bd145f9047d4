/// \file run_health.hpp
/// \brief Run-health heartbeat and anomaly flagging over the rank's step
/// record.
///
/// Long RBC campaigns die slowly before they die loudly: GMRES iteration
/// counts creep up, the pressure residual stops improving, checkpoint writes
/// start retrying. RunHealth reads each step's values from the Telemetry's
/// StepRecord, keeps a 16-step trailing window (an iteration spike is more
/// than 3x the window's mean and at least 8 iterations above it), and
///  * emits a one-line heartbeat digest (step rate, iterations, residuals,
///    Nusselt number, workspace-arena high water) at info level every
///    `heartbeat` steps;
///  * flags anomalies — iteration-count spikes and residual stagnation at
///    warn level, checkpoint write retries at error level (the run is one
///    failed retry away from losing its newest state) — and counts each
///    class into its record member (`health.flags.iteration_spike`,
///    `residual_stagnation`, `checkpoint_retry` in the stream) plus the
///    `health.anomalies` sum, exactly once per detection, so the NDJSON
///    stream records when and how a run went sideways in machine-readable
///    form (the campaign status fold rolls these up fleet-wide).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/types.hpp"
#include "telemetry/step_record.hpp"

namespace felis::telemetry {

struct HealthConfig {
  std::int64_t heartbeat = 10;   ///< digest every N steps (0 disables)
  usize stagnation_run = 6;      ///< consecutive non-improving residuals
};

class RunHealth {
 public:
  /// Reads its inputs from `record` and counts its detections into it;
  /// `record` must outlive this object.
  RunHealth(HealthConfig config, StepRecord& record);

  /// Ingest the record's newest step: update the window, flag anomalies,
  /// refresh the digest and (every `heartbeat` steps) log it at info level.
  void on_step();

  /// Checkpoint write needed `retries` extra attempts (flagged at error
  /// level: the rotation's durability margin is being consumed).
  void flag_checkpoint_retries(int retries, const std::string& path);

  /// Most recent heartbeat digest line (empty before the first step).
  const std::string& last_digest() const { return digest_; }

 private:
  /// What the trailing window keeps of each step.
  struct Sample {
    double wall_seconds = 0;
    int pressure_iterations = 0;
  };

  void detect_anomalies();
  void make_digest();
  void count(std::int64_t& flag);

  HealthConfig config_;
  StepRecord& record_;
  std::deque<Sample> window_;
  usize stagnant_steps_ = 0;
  double prev_residual_ = 0;
  std::string digest_;
};

}  // namespace felis::telemetry
