/// \file scheduler.hpp
/// \brief Fault-tolerant campaign scheduler: bounded worker pool, GCD-style
/// thread budget, per-run watchdog, retry-with-backoff, graceful drain.
///
/// Executes a CampaignSpec's case queue on `workers` pool threads. Resource
/// accounting treats OS threads as the paper's GCDs: a case occupying
/// `threads` simulated ranks (each rank is one thread under
/// comm::run_parallel) is only admitted while the sum over running cases
/// stays within `thread_budget`, so concurrent cases never oversubscribe the
/// host — the invariant is FELIS_CHECKed on every admission.
///
/// Robustness model:
///  * every state transition is journalled to the manifest *before* the work
///    it describes, so a campaign killed at any instant resumes exactly where
///    it left off (done cases skipped, everything else re-queued);
///  * a failed run (thrown Error, io::InjectedCrash, runner-reported failure,
///    watchdog cancellation) is retried with bounded exponential backoff; the
///    runner recovers from the newest valid checkpoint, so a retry continues
///    rather than restarts;
///  * a run that stops heartbeating for `watchdog_seconds` is cancelled
///    cooperatively (the runner polls RunContext::cancelled() between steps);
///  * SIGINT (via install_sigint_drain) or request_drain() stops admissions
///    and cancels active runs; in-flight checkpoints stay durable and the
///    manifest records the interrupted runs as `retried` for the next resume.
///
/// The manifest is the scheduler's only journal: obs::CampaignMonitor folds
/// it (plus each case's telemetry stream) into the live fleet view, queue
/// shape and threads in flight included.
#pragma once

#include <atomic>
#include <functional>
#include <map>

#include "sched/campaign.hpp"

namespace felis::sched {

/// What one attempt of one case reports back.
struct RunResult {
  bool ok = false;
  std::string detail;  ///< failure reason (or informational note)
  std::map<std::string, double> metrics;  ///< Ra, Nu, KE, ... for the summary
};

/// Handle the runner uses to cooperate with the scheduler.
class RunContext {
 public:
  /// Call at least once per time step: resets the watchdog deadline.
  void heartbeat();
  /// True once the watchdog or a drain cancelled this run; the runner should
  /// return promptly (its newest checkpoint already persists the progress).
  bool cancelled() const;
  int attempt() const { return attempt_; }
  /// Per-case working directory `<campaign.dir>/<case id>` (created).
  const std::string& run_dir() const { return run_dir_; }

 private:
  friend class Scheduler;
  std::atomic<bool> cancel_{false};
  std::atomic<double> last_beat_{0};
  const std::atomic<bool>* drain_ = nullptr;
  std::function<double()> clock_;
  int attempt_ = 1;
  std::string run_dir_;
};

using CaseRunner = std::function<RunResult(const CaseSpec&, RunContext&)>;

struct CaseOutcome {
  std::string id;
  std::string state;  ///< done | failed | retried (drained) | queued (drained)
  int attempts = 0;   ///< total attempts across all campaign sessions
  double wall_seconds = 0;  ///< this session, summed over attempts
  bool skipped = false;     ///< completed in an earlier session; not re-run
  RunResult result;
};

struct CampaignReport {
  std::vector<CaseOutcome> outcomes;
  double wall_seconds = 0;
  double busy_thread_seconds = 0;  ///< ∑ run wall × run threads
  int thread_budget = 0;
  int max_threads_in_flight = 0;
  int completed = 0;  ///< done this session
  int skipped = 0;    ///< done in an earlier session
  int failed = 0;     ///< retries exhausted
  int drained = 0;    ///< interrupted or never started due to drain
  int retries = 0;    ///< retry transitions this session

  bool all_done() const { return failed == 0 && drained == 0; }
  /// Worker-pool utilisation: busy thread-seconds over budget × wall.
  double utilisation() const;
  /// Throughput of this session: cases completed per hour of wall time.
  /// Skipped cases ran in an earlier session and do not count.
  double cases_per_hour() const;
};

class Scheduler {
 public:
  Scheduler(CampaignSpec spec, CaseRunner runner);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Execute (or resume) the campaign to completion or drain. Blocking;
  /// call once per Scheduler.
  CampaignReport run();

  /// Async-signal-safe: stop admitting runs and cancel active ones.
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }
  bool draining() const { return drain_.load(std::memory_order_relaxed); }

  /// Route SIGINT to `scheduler->request_drain()` (nullptr restores the
  /// default disposition). One scheduler at a time.
  static void install_sigint_drain(Scheduler* scheduler);

  const CampaignSpec& spec() const { return spec_; }

 private:
  CampaignSpec spec_;
  CaseRunner runner_;
  std::atomic<bool> drain_{false};
  bool ran_ = false;
};

}  // namespace felis::sched
