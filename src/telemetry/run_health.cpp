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

RunHealth::RunHealth(HealthConfig config, StepRecord& record)
    : config_(config), record_(record) {}

void RunHealth::count(std::int64_t& flag) {
  // Per-class count plus the sum: each detection increments its class
  // exactly once, so downstream consumers (step records, the campaign status
  // fold) get a machine-readable anomaly breakdown without parsing log lines.
  ++flag;
  ++record_.anomalies;
}

void RunHealth::on_step() {
  detect_anomalies();
  window_.push_back({record_.wall_seconds, record_.pressure_iterations});
  while (window_.size() > kWindow) window_.pop_front();
  make_digest();
  if (config_.heartbeat > 0 && record_.step % config_.heartbeat == 0)
    FELIS_LOG_INFO(digest_);
}

void RunHealth::detect_anomalies() {
  const StepRecord& r = record_;
  // Iteration spike: the current pressure solve took far more iterations
  // than the trailing mean. Needs a few steps of history to mean anything.
  if (window_.size() >= 4) {
    double mean = 0;
    for (const Sample& s : window_) mean += s.pressure_iterations;
    mean /= static_cast<double>(window_.size());
    const double threshold = std::max(kSpikeFactor * mean, mean + kSpikeMargin);
    if (r.pressure_iterations > threshold) {
      count(record_.iteration_spikes);
      FELIS_LOG_WARN("health: pressure iteration spike at step ", r.step, ": ",
                     r.pressure_iterations, " iterations vs ",
                     std::llround(mean), " trailing mean");
    }
  }
  // Residual stagnation: the final pressure residual has not improved for a
  // run of consecutive steps (a drifting preconditioner or a projection
  // basis gone bad shows up here before the solver hard-fails).
  if (prev_residual_ > 0 && r.pressure_residual >= prev_residual_) {
    ++stagnant_steps_;
    if (stagnant_steps_ == config_.stagnation_run) {
      count(record_.residual_stagnations);
      FELIS_LOG_WARN("health: pressure residual stagnant for ",
                     stagnant_steps_, " steps at step ", r.step,
                     " (residual ", r.pressure_residual, ")");
    }
  } else {
    stagnant_steps_ = 0;
  }
  prev_residual_ = r.pressure_residual;
}

void RunHealth::flag_checkpoint_retries(int retries, const std::string& path) {
  count(record_.checkpoint_retry_flags);
  FELIS_LOG_ERROR("health: checkpoint write to ", path, " needed ", retries,
                  " retr", retries == 1 ? "y" : "ies",
                  " — I/O is degrading; the rotation's durability margin is "
                  "being spent");
}

void RunHealth::make_digest() {
  const StepRecord& r = record_;
  // Step rate over the trailing window (wall-clock of first..last sample).
  double rate = 0;
  if (window_.size() >= 2) {
    const double span = window_.back().wall_seconds - window_.front().wall_seconds;
    if (span > 0) rate = static_cast<double>(window_.size() - 1) / span;
  }
  const double nusselt = r.observables.at("nu_volume");
  std::ostringstream os;
  os << "health: step " << r.step << " | " << std::fixed
     << std::setprecision(2) << rate << " steps/s | p_it "
     << r.pressure_iterations << " | p_res " << std::scientific
     << std::setprecision(2) << r.pressure_residual << " | cfl "
     << std::fixed << std::setprecision(3) << r.cfl;
  if (nusselt != 0) os << " | Nu " << std::setprecision(3) << nusselt;
  os << " | arena " << std::setprecision(2) << r.arena_high_water / 1.0e6
     << " MB";
  if (r.anomalies > 0) os << " | anomalies " << r.anomalies;
  digest_ = os.str();
}

}  // namespace felis::telemetry
