/// \file campaign_monitor.hpp
/// \brief Campaign status: one stateless fold of a campaign directory's
/// journals into a fleet snapshot.
///
/// read_campaign() reads a campaign directory the way an operator would —
/// from the outside, through its crash-safe journals — and folds it from
/// scratch on every call, as resume does:
///
///   <dir>/manifest.ndjson                the scheduler's run-state journal,
///                                        read whole through
///                                        sched::read_manifest, so the
///                                        per-case states ARE the resume
///                                        protocol's fold; the header, case
///                                        declarations and run timings come
///                                        from the same parsed records;
///   <dir>/<case>/telemetry/run.ndjson    each case's per-step record
///                                        stream of its current attempt
///                                        (rank0/ fallback for multi-rank
///                                        cases): step, simulated time, Nu,
///                                        residuals, health flags — read from
///                                        the end back to the newest complete
///                                        step record. A stream whose header
///                                        names an attempt older than the
///                                        manifest's is a failed attempt's
///                                        and is passed over until the retry
///                                        replaces it.
///
/// The queue shape comes from the same manifest fold: queued and running
/// counts are the folded states, and threads in flight is the declared
/// threads summed over running cases.
///
/// Nothing is kept between calls, so a read is safe on a *running* campaign
/// (only newline-terminated records count; a record racing its append is
/// passed over), on a *crashed* one (a torn tail never parses, exactly as
/// on resume) and across attempts that replace a stream. A status read costs
/// the manifest plus each stream's header line and at most its newest
/// record, the same at step 60 as at step 10^6; only the merged trace reads
/// streams whole.
/// Campaign-clock timestamps are rebased monotone across resume sessions so
/// throughput, ETA and the merged trace stay meaningful after kills.
///
/// Derived signals:
///  * ETA: perfmodel-costed. Each case carries the cost_seconds estimate the
///    scheduler journalled (sched::estimate_case_seconds); the fold divides
///    the cost already retired (done cases fully, running cases by step
///    progress) by the campaign clock to get a cost retirement rate, and
///    prices the remaining cost at that rate.
///  * Stragglers: a running case whose observed wall-seconds per unit of
///    modelled cost exceeds twice the median slowdown across comparably
///    progressed cases — the normalized test that stays valid when case
///    costs span decades of Ra.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace felis::obs {

/// One case as the status fold sees it: manifest fold + declaration + live
/// telemetry + derived progress/straggler signals.
struct CaseView {
  std::string id;

  // Manifest fold (identical to sched::read_manifest).
  std::string state;  ///< "" = declared, never enqueued
  int attempts = 0;
  std::map<std::string, double> metrics;  ///< `done` record metrics

  // Declaration (manifest `case` record).
  int threads = 1;
  std::int64_t steps_planned = 0;
  double cost_seconds = 0;  ///< perfmodel estimate the scheduler journalled

  // Campaign-clock timing (monotone across resume sessions).
  double queued_t = -1;    ///< latest queued transition (-1 = never)
  double running_t = -1;   ///< latest running transition
  double finished_t = -1;  ///< latest terminal/retried transition
  double wall_seconds = 0; ///< wall of the latest finished attempt

  // Live per-step telemetry (current attempt's stream).
  bool telemetry_found = false;
  std::int64_t step = 0;
  double sim_time = 0;
  double run_wall_seconds = 0;  ///< telemetry clock of the newest step record
  double cfl = 0;
  double nusselt = 0;
  double pressure_residual = 0;
  double pressure_iterations = 0;
  std::map<std::string, double> health_flags;  ///< health.flags.* counters

  // Derived.
  double progress = 0;   ///< fraction of planned steps ([0,1]; done ⇒ 1)
  double slowdown = 0;   ///< observed wall per modelled cost (0 = unknown)
  bool straggler = false;

  bool terminal() const { return state == "done" || state == "failed"; }
};

/// The whole fleet at one instant.
struct CampaignSnapshot {
  bool manifest_found = false;
  std::string campaign;
  int workers = 0;
  int thread_budget = 0;
  int ranks = 1;
  int resumes = 0;
  double clock_seconds = 0;  ///< campaign clock high water (rebased)

  std::vector<CaseView> cases;  ///< manifest declaration order

  // State roll-up.
  int declared = 0;  ///< never enqueued
  int queued = 0;
  int running = 0;
  int done = 0;
  int failed = 0;
  int retried = 0;
  std::int64_t retry_transitions = 0;  ///< `retried` records observed
  int threads_in_flight = 0;           ///< Σ declared threads of running cases

  // Perfmodel-costed throughput / ETA.
  double total_cost_seconds = 0;
  double done_cost_seconds = 0;
  double progressed_cost_seconds = 0;  ///< done fully + running pro rata
  double completed_fraction = 0;       ///< cost-weighted
  double cost_rate = 0;                ///< retired cost per clock second
  double eta_seconds = -1;             ///< < 0: unknown (nothing retired yet)

  // Anomaly roll-up (Σ over cases of health.flags.*).
  std::map<std::string, double> health_flags;
  double anomalies = 0;

  /// Every case reached `done`.
  bool complete() const;
  const CaseView* find(const std::string& id) const;
};

/// One manifest `run` record, campaign-clock rebased; the merged trace is
/// built from these (queue intervals, attempt intervals, transitions).
struct RunEvent {
  std::string case_id;
  std::string state;
  int attempt = 0;
  double t = 0;  ///< rebased campaign clock
  double wall_seconds = 0;
};

/// A step boundary from one case's telemetry stream (current attempt).
struct StepMark {
  std::int64_t step = 0;
  double wall_seconds = 0;  ///< telemetry clock (since attempt start)
};

/// A campaign directory folded at one instant.
struct CampaignFold {
  CampaignSnapshot snapshot;
  std::vector<RunEvent> run_events;  ///< manifest order
  /// Each case's step marks of its current attempt (read_campaign with
  /// `step_marks`; capped per case).
  std::map<std::string, std::vector<StepMark>> step_marks;
};

/// Fold `dir`'s journals from scratch. With `step_marks` each case's stream
/// is also read whole for the merged trace. Throws
/// sched::ManifestReplayError on a protocol-violating manifest, exactly like
/// sched::read_manifest.
CampaignFold read_campaign(const std::string& dir, bool step_marks = false);

}  // namespace felis::obs
