/// \file campaign.hpp
/// \brief CampaignSpec: a parsed, expanded, cost-ordered multi-case sweep.
///
/// A campaign file is one ParamMap carrying three kinds of keys:
///
///   campaign.*   scheduler knobs (name, dir, workers, thread_budget, ranks,
///                steps, retries, backoff, watchdog) — see CampaignConfig;
///   sweep.*      parameter axes expanded into the case list (sweep.hpp);
///   everything   else the base case every expanded case inherits (case.*,
///                fluid.*, mesh.*, checkpoint.*, telemetry.*, fault.*).
///
/// Each case's wall cost is estimated with the perfmodel (the same workload
/// and machine model behind the Fig. 3 strong-scaling predictor), and the
/// queue is ordered longest-first — the classic LPT heuristic that keeps the
/// worker pool's makespan near optimal when case costs span decades of Ra.
#pragma once

#include "sched/sweep.hpp"

namespace felis::sched {

struct CampaignConfig {
  std::string name = "campaign";
  std::string dir = "campaign";  ///< manifest + one subdirectory per case
  int workers = 2;               ///< max concurrently running cases
  int thread_budget = 4;         ///< total GCDs (threads) across running cases
  int ranks = 1;                 ///< simulated ranks per case (threads each)
  std::int64_t steps = 100;      ///< default steps per case (case.steps wins)
  int max_retries = 2;           ///< extra attempts per case after a failure
  int retry_backoff_ms = 50;     ///< first backoff; doubles per retry
  double watchdog_seconds = 0;   ///< cancel a run with no heartbeat (0 = off)
};

struct CampaignSpec {
  CampaignConfig config;
  std::vector<CaseSpec> cases;  ///< expanded, cost-ordered longest-first

  /// Parse campaign.* keys, expand the sweep axes, resolve per-case threads
  /// (campaign.ranks, overridable per case via case.ranks) and steps
  /// (campaign.steps / case.steps), estimate costs and order the queue.
  /// Throws felis::Error on malformed keys (naming them), on a key of the
  /// retired scheduler metrics journal, when any case needs more threads
  /// than the budget, and on a case whose `case.type` is unknown or whose
  /// mesh its geometry factory rejects (naming the case).
  static CampaignSpec from_params(const ParamMap& params);

  std::string manifest_path() const;
  std::string summary_csv_path() const;
};

/// Perfmodel cost estimate for one case: per-step workload from the case's
/// mesh/degree keys (mesh_stats-style partition statistics for `ranks`
/// slabs), Krylov counts grown mildly with Ra (pressure iterations scale like
/// the boundary-layer resolution demand), priced on the LUMI machine model.
/// Absolute seconds are meaningless on this host — only the *ordering*
/// matters, and it is exact in steps × per-step work.
double estimate_case_seconds(const ParamMap& case_params, int ranks,
                             std::int64_t steps);

}  // namespace felis::sched
