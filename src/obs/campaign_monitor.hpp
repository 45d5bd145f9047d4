/// \file campaign_monitor.hpp
/// \brief Live campaign-fleet view: manifest + per-case telemetry roll-up.
///
/// CampaignMonitor watches a campaign directory the way an operator would —
/// from the outside, through its crash-safe journals — and folds them into a
/// CampaignSnapshot:
///
///   <dir>/manifest.ndjson                the scheduler's run-state journal,
///                                        folded through the *production*
///                                        transition logic
///                                        (sched::apply_manifest_line), so
///                                        the monitor's per-case states are
///                                        bitwise-identical to a fresh
///                                        sched::read_manifest fold;
///   <dir>/<case>/telemetry/run.ndjson    each case's per-step metrics
///                                        stream (rank0/ fallback for
///                                        multi-rank cases): step, simulated
///                                        time, Nu, residuals, health flags.
///
/// The queue shape comes from the same manifest fold: queued and running
/// counts are the folded states, and threads in flight is the declared
/// threads summed over running cases.
///
/// Everything is read incrementally through NdjsonFollower, so the monitor
/// is safe to point at a *running* campaign (it only ever sees fsync'd
/// complete lines) and at a *crashed* one (torn tails are skipped exactly
/// like the resume path skips them). Campaign-clock timestamps are rebased
/// monotone across resume sessions so throughput, ETA and the merged trace
/// stay meaningful after kills.
///
/// Derived signals:
///  * ETA: perfmodel-costed. Each case carries the cost_seconds estimate the
///    scheduler journalled (sched::estimate_case_seconds); the monitor
///    divides the cost already retired (done cases fully, running cases by
///    step progress) by the campaign clock to get a cost retirement rate,
///    and prices the remaining cost at that rate.
///  * Stragglers: a running case whose observed wall-seconds per unit of
///    modelled cost exceeds twice the median slowdown across comparably
///    progressed cases — the normalized test that stays valid when case
///    costs span decades of Ra.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/ndjson_follower.hpp"
#include "sched/manifest.hpp"

namespace felis::obs {

/// One case as the monitor sees it: manifest fold + declaration + live
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

class CampaignMonitor {
 public:
  explicit CampaignMonitor(std::string dir);
  CampaignMonitor(const CampaignMonitor&) = delete;
  CampaignMonitor& operator=(const CampaignMonitor&) = delete;

  /// Tail every journal: the manifest first (it declares the cases), then
  /// each known case's telemetry stream. Returns the number of journal lines
  /// consumed. Throws sched::ManifestReplayError on a protocol-violating
  /// manifest, exactly like sched::read_manifest.
  usize poll();

  /// Fold the consumed journals into a fleet snapshot.
  CampaignSnapshot snapshot() const;

  /// The monitor's manifest fold — the equivalence contract: bitwise equal
  /// to sched::read_manifest(dir + "/manifest.ndjson") at every newline
  /// boundary the follower has consumed.
  const sched::ManifestState& manifest_state() const { return manifest_; }

  const std::string& dir() const { return dir_; }

  /// One manifest `run` record, campaign-clock rebased; the merged trace is
  /// built from these (queue intervals, attempt intervals, transitions).
  struct RunEvent {
    std::string case_id;
    std::string state;
    int attempt = 0;
    double t = 0;  ///< rebased campaign clock
    double wall_seconds = 0;
  };
  const std::vector<RunEvent>& run_events() const { return run_events_; }

  /// A step boundary from one case's telemetry stream (current attempt).
  struct StepMark {
    std::int64_t step = 0;
    double wall_seconds = 0;  ///< telemetry clock (since attempt start)
  };
  /// Per-case step marks for the merged trace, declaration order preserved
  /// through snapshot().cases.
  const std::vector<StepMark>& step_marks(const std::string& id) const;

 private:
  struct CaseLive {
    std::unique_ptr<NdjsonFollower> follower;
    int seen_truncations = 0;
    bool found = false;
    std::int64_t step = 0;
    double sim_time = 0;
    double wall_seconds = 0;
    double cfl = 0;
    double nusselt = 0;
    double pressure_residual = 0;
    double pressure_iterations = 0;
    std::map<std::string, double> health_flags;
    std::vector<StepMark> marks;
  };

  void apply_manifest(const std::string& line);
  void apply_case_stream(CaseLive& live, const std::string& line);
  usize poll_case_streams();
  std::string telemetry_stream_path(const std::string& id) const;
  void note_clock(double t);

  std::string dir_;
  NdjsonFollower manifest_follower_;

  sched::ManifestState manifest_;

  // Manifest header/case/resume fold.
  std::string campaign_;
  int workers_ = 0;
  int thread_budget_ = 0;
  int ranks_ = 1;
  int resumes_ = 0;
  struct CaseDecl {
    int threads = 1;
    std::int64_t steps = 0;
    double cost_seconds = 0;
  };
  std::vector<std::string> case_order_;
  std::map<std::string, CaseDecl> decls_;
  struct CaseTiming {
    double queued_t = -1;
    double running_t = -1;
    double finished_t = -1;
    double wall_seconds = 0;
  };
  std::map<std::string, CaseTiming> timing_;
  std::vector<RunEvent> run_events_;
  std::int64_t retry_transitions_ = 0;

  // Campaign clock, rebased monotone across resume sessions.
  double clock_offset_ = 0;
  double clock_high_water_ = 0;

  std::map<std::string, CaseLive> live_;
};

}  // namespace felis::obs
