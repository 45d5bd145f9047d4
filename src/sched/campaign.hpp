/// \file campaign.hpp
/// \brief CampaignSpec: a parsed, expanded, cost-ordered multi-case sweep.
///
/// A campaign file is one ParamMap carrying three kinds of keys: the
/// scheduler's, declared below; sweep.* axes expanded into the case list
/// (sweep.hpp); and the base case every expanded case inherits (any key of
/// cases::kCaseParams). DESIGN.md §15 says where each key is declared.
///
/// Each case's wall cost is estimated with the perfmodel (the same workload
/// and machine model behind the Fig. 3 strong-scaling predictor), and the
/// queue is ordered longest-first — the classic LPT heuristic that keeps the
/// worker pool's makespan near optimal when case costs span decades of Ra.
#pragma once

#include "sched/sweep.hpp"

namespace felis::sched {

/// The scheduler's keys, read by CampaignSpec::from_params, and the
/// validation.* keys tools/felis_validate.py reads from the same file.
inline constexpr Param<std::string> kCampaignName{"campaign.name", "campaign name"};
inline constexpr Param<std::string> kCampaignDir{"campaign.dir", "output directory"};
inline constexpr Param<int> kWorkers{"campaign.workers", 1, "concurrent cases"};
inline constexpr Param<int> kThreadBudget{"campaign.thread_budget", 1, "thread budget"};
inline constexpr Param<int> kRanks{"campaign.ranks", 1, "ranks per case"};
inline constexpr Param<int> kSteps{"campaign.steps", 1, "steps per case"};
inline constexpr Param<int> kRetries{"campaign.retries", 0, "retries per case"};
inline constexpr Param<int> kBackoffMs{"campaign.backoff_ms", 0, "first backoff"};
inline constexpr Param<real_t> kWatchdogSeconds{"campaign.watchdog_seconds", 0,
                                                "heartbeat timeout (0 = off)"};
inline constexpr Param<int> kCaseRanks{"case.ranks", 1, "this case's ranks"};
inline constexpr Param<int> kCaseSteps{"case.steps", 1, "this case's steps"};
inline constexpr ParamDecl kMonitor{"campaign.monitor", ParamType::kRemoved, 0, 0,
                                    "read the manifest with felis_campaign --status DIR"};
inline constexpr Param<real_t> kNu{"validation.nu.*", 0, "reference Nu of a case type"};
inline constexpr Param<real_t> kNuTol{"validation.nu_tol", 0, "Nu tolerance"};
inline constexpr Param<real_t> kConsistency{"validation.consistency", 0, "Nu_plate gap"};
inline constexpr const ParamDecl* kCampaignParams[] = {
    &kCampaignName, &kCampaignDir, &kWorkers, &kThreadBudget, &kRanks, &kSteps, &kRetries,
    &kBackoffMs, &kWatchdogSeconds, &kCaseRanks, &kCaseSteps, &kMonitor, &kNu, &kNuTol,
    &kConsistency};

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

  /// Check every key against kCampaignParams and cases::kCaseParams (a
  /// sweep.X axis against the key it targets), read the scheduler's keys,
  /// expand the sweep axes, resolve per-case threads (campaign.ranks /
  /// case.ranks) and steps (campaign.steps / case.steps), estimate costs and
  /// order the queue. Throws felis::Error naming an undeclared key (and its
  /// nearest declared one), a malformed or out-of-range value, a case that
  /// needs more threads than the budget, and a case whose `case.type` is
  /// unknown or whose mesh its geometry factory rejects (naming the case).
  static CampaignSpec from_params(const ParamMap& params);

  std::string manifest_path() const;
  std::string summary_csv_path() const;
};

/// Perfmodel cost estimate for one case: per-step workload from the case's
/// mesh/degree keys, priced as the rbc slab's mesh defaults where absent
/// (mesh_stats-style partition statistics for `ranks`
/// slabs), Krylov counts grown mildly with Ra (pressure iterations scale like
/// the boundary-layer resolution demand), priced on the LUMI machine model.
/// Absolute seconds are meaningless on this host — only the *ordering*
/// matters, and it is exact in steps × per-step work.
double estimate_case_seconds(const ParamMap& case_params, int ranks,
                             std::int64_t steps);

}  // namespace felis::sched
