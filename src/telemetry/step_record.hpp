/// \file step_record.hpp
/// \brief One rank's per-step record: the values each `run.ndjson` step
/// record carries, as plain named members.
///
/// The paper's analysis (§6, Figs. 3–4) is built from exact per-region
/// operation counts plus per-step solver statistics; this is where the
/// per-step half lives. Each Telemetry owns one record. Its writers all run
/// on the rank's own thread: the flow solver assigns `solver.*`,
/// `profile.*` and `device.*` every step, the case sets its observables on
/// sampled steps, the checkpoint manager counts its writes, and RunHealth
/// reads its inputs here and counts its detections back in. So the record
/// needs no atomics and no lock. `Telemetry::step_record` is the one
/// serializer, and the one place that spells the dotted names.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/profiler.hpp"
#include "common/types.hpp"

namespace felis::telemetry {

/// Running last/count/sum/min/max of one timed quantity; min and max read
/// 0 before the first sample.
struct RunningSummary {
  double last = 0;
  std::int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void observe(double v) {
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    last = v;
    sum += v;
    ++count;
  }
};

struct StepRecord {
  std::int64_t step = 0;    ///< the newest step Telemetry closed
  double wall_seconds = 0;  ///< recorder clock at that step's end

  // solver.*: the flow solver's newest step.
  double cfl = 0;
  double dt = 0;
  double time = 0;
  int pressure_iterations = 0;
  int velocity_iterations = 0;
  int scalar_iterations = 0;
  double pressure_residual = 0;
  double divergence = 0;
  usize projection_basis = 0;

  /// profile.*: the rank Profiler root's inclusive counts since setup.
  OpCounters profile;

  // device.*: the process-wide workspace arena.
  double arena_bytes = 0;
  double arena_high_water = 0;

  /// case.*: the case's observables on the newest sampled step, under the
  /// case's own names. nu_plate and nu_volume are in every record, before
  /// the case first sets them too.
  std::map<std::string, double> observables = {{"nu_plate", 0.0}, {"nu_volume", 0.0}};

  // checkpoint.*
  std::int64_t checkpoint_writes = 0;
  std::int64_t checkpoint_retries = 0;
  std::int64_t checkpoint_bytes = 0;
  RunningSummary checkpoint_write_seconds;

  // health.*: RunHealth's detections, once each; `anomalies` is their sum.
  std::int64_t anomalies = 0;
  std::int64_t iteration_spikes = 0;
  std::int64_t residual_stagnations = 0;
  std::int64_t checkpoint_retry_flags = 0;

  /// telemetry.step_seconds: each step's wall time, begin_step to end_step.
  RunningSummary step_seconds;
};

}  // namespace felis::telemetry
