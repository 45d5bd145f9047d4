#include "telemetry/run_health.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/logger.hpp"

namespace felis::telemetry {

namespace {

// Iteration spike: more than kSpikeFactor times the trailing mean and at
// least kSpikeMargin iterations above it, over a kWindow-step window.
constexpr double kSpikeFactor = 3.0;
constexpr int kSpikeMargin = 8;
constexpr usize kWindow = 16;

}  // namespace

RunHealth::RunHealth(HealthConfig config, MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {}

void RunHealth::count(const char* metric_name) {
  ++anomalies_;
  if (metrics_) {
    // Per-class counter plus the aggregate: each detection increments its
    // health.flags.<class> exactly once, so downstream consumers (step
    // records, the campaign status fold) get a machine-readable anomaly
    // breakdown without parsing log lines.
    metrics_->add(metric_name, 1);
    metrics_->add("health.anomalies", 1);
  }
}

void RunHealth::on_step(const StepSample& sample) {
  detect_anomalies(sample);
  window_.push_back(sample);
  while (window_.size() > kWindow) window_.pop_front();
  make_digest(sample);
  if (config_.heartbeat > 0 && sample.step % config_.heartbeat == 0)
    FELIS_LOG_INFO(digest_);
}

void RunHealth::detect_anomalies(const StepSample& sample) {
  // Iteration spike: the current pressure solve took far more iterations
  // than the trailing mean. Needs a few steps of history to mean anything.
  if (window_.size() >= 4) {
    double mean = 0;
    for (const StepSample& s : window_) mean += s.pressure_iterations;
    mean /= static_cast<double>(window_.size());
    const double threshold = std::max(kSpikeFactor * mean, mean + kSpikeMargin);
    if (sample.pressure_iterations > threshold) {
      count("health.flags.iteration_spike");
      FELIS_LOG_WARN("health: pressure iteration spike at step ", sample.step,
                     ": ", sample.pressure_iterations, " iterations vs ",
                     std::llround(mean), " trailing mean");
    }
  }
  // Residual stagnation: the final pressure residual has not improved for a
  // run of consecutive steps (a drifting preconditioner or a projection
  // basis gone bad shows up here before the solver hard-fails).
  if (prev_residual_ > 0 && sample.pressure_residual >= prev_residual_) {
    ++stagnant_steps_;
    if (stagnant_steps_ == config_.stagnation_run) {
      count("health.flags.residual_stagnation");
      FELIS_LOG_WARN("health: pressure residual stagnant for ",
                     stagnant_steps_, " steps at step ", sample.step,
                     " (residual ", sample.pressure_residual, ")");
    }
  } else {
    stagnant_steps_ = 0;
  }
  prev_residual_ = sample.pressure_residual;
}

void RunHealth::flag_checkpoint_retries(int retries, const std::string& path) {
  count("health.flags.checkpoint_retry");
  FELIS_LOG_ERROR("health: checkpoint write to ", path, " needed ", retries,
                  " retr", retries == 1 ? "y" : "ies",
                  " — I/O is degrading; the rotation's durability margin is "
                  "being spent");
}

void RunHealth::make_digest(const StepSample& sample) {
  // Step rate over the trailing window (wall-clock of first..last sample).
  double rate = 0;
  if (window_.size() >= 2) {
    const double span = window_.back().wall_seconds - window_.front().wall_seconds;
    if (span > 0) rate = static_cast<double>(window_.size() - 1) / span;
  }
  std::ostringstream os;
  os << "health: step " << sample.step << " | " << std::fixed
     << std::setprecision(2) << rate << " steps/s | p_it "
     << sample.pressure_iterations << " | p_res " << std::scientific
     << std::setprecision(2) << sample.pressure_residual << " | cfl "
     << std::fixed << std::setprecision(3) << sample.cfl;
  if (sample.nusselt != 0)
    os << " | Nu " << std::setprecision(3) << sample.nusselt;
  os << " | arena " << std::setprecision(2) << sample.arena_bytes / 1.0e6
     << " MB";
  if (anomalies_ > 0) os << " | anomalies " << anomalies_;
  digest_ = os.str();
}

}  // namespace felis::telemetry
