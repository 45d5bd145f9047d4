#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/logger.hpp"
#include "common/trace.hpp"
#include "io/fault_injector.hpp"
#include "sched/manifest.hpp"

namespace felis::sched {

double CampaignReport::utilisation() const {
  const double denom = wall_seconds * static_cast<double>(thread_budget);
  return denom > 0 ? busy_thread_seconds / denom : 0.0;
}

double CampaignReport::cases_per_hour() const {
  return wall_seconds > 0
             ? static_cast<double>(completed) * 3600.0 / wall_seconds
             : 0.0;
}

void RunContext::heartbeat() {
  if (clock_) last_beat_.store(clock_(), std::memory_order_relaxed);
}

bool RunContext::cancelled() const {
  if (cancel_.load(std::memory_order_relaxed)) return true;
  return drain_ != nullptr && drain_->load(std::memory_order_relaxed);
}

namespace {

std::atomic<Scheduler*> g_sigint_target{nullptr};

// Async-signal-safe: one relaxed load + one relaxed store, nothing else.
void sigint_handler(int) {
  if (Scheduler* s = g_sigint_target.load(std::memory_order_relaxed))
    s->request_drain();
}

}  // namespace

void Scheduler::install_sigint_drain(Scheduler* scheduler) {
  g_sigint_target.store(scheduler, std::memory_order_relaxed);
  std::signal(SIGINT, scheduler != nullptr ? sigint_handler : SIG_DFL);
}

Scheduler::Scheduler(CampaignSpec spec, CaseRunner runner)
    : spec_(std::move(spec)), runner_(std::move(runner)) {
  FELIS_CHECK_MSG(runner_ != nullptr, "Scheduler needs a case runner");
}

Scheduler::~Scheduler() {
  // Never leave a dangling signal target behind.
  Scheduler* expected = this;
  if (g_sigint_target.compare_exchange_strong(expected, nullptr))
    std::signal(SIGINT, SIG_DFL);
}

CampaignReport Scheduler::run() {
  FELIS_CHECK_MSG(!ran_, "Scheduler::run() may only be called once");
  ran_ = true;

  const CampaignConfig& cfg = spec_.config;
  std::filesystem::create_directories(cfg.dir);

  // Resume state precedes the writer: the writer appends to the journal.
  const ManifestState previous = read_manifest(spec_.manifest_path());
  ManifestWriter manifest(spec_.manifest_path());

  CampaignReport report;
  report.thread_budget = cfg.thread_budget;
  report.outcomes.resize(spec_.cases.size());

  struct QueueEntry {
    usize case_index;
    int attempt;
    double ready_at;  ///< campaign-clock seconds (retry backoff gate)
  };
  struct ActiveRun {
    RunContext ctx;
    usize case_index = 0;
    int threads = 1;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<QueueEntry> queue;
  std::vector<std::unique_ptr<ActiveRun>> active;
  int threads_in_flight = 0;
  bool done = false;
  std::vector<std::exception_ptr> worker_errors;

  const Stopwatch watch;
  const auto clock = [&watch] { return watch.seconds(); };

  // ---- seed the queue from the spec and the previous session's journal ----
  int pending = 0;
  for (usize i = 0; i < spec_.cases.size(); ++i) {
    const CaseSpec& cs = spec_.cases[i];
    CaseOutcome& out = report.outcomes[i];
    out.id = cs.id;
    const auto it = previous.cases.find(cs.id);
    const int prior_attempts =
        it != previous.cases.end() ? it->second.attempts : 0;
    if (it != previous.cases.end() && it->second.completed()) {
      out.state = "done";
      out.skipped = true;
      out.attempts = prior_attempts;
      // Keep the recorded metrics so campaign-level aggregates (the Nu-vs-Ra
      // CSV) stay complete across sessions.
      out.result.ok = true;
      out.result.metrics = it->second.metrics;
      ++report.skipped;
      continue;
    }
    queue.push_back({i, prior_attempts + 1, 0.0});
    ++pending;
  }

  if (!previous.found) {
    manifest.write_header(spec_);
    for (const CaseSpec& cs : spec_.cases) manifest.write_case(cs);
  } else {
    manifest.write_resume(pending);
    // A spec can grow between sessions: declare the cases no earlier session
    // journalled so the manifest stays self-describing. A duplicate
    // declaration after a crash mid-seed is harmless (readers fold
    // declarations last-writer-wins).
    for (const CaseSpec& cs : spec_.cases)
      if (previous.cases.find(cs.id) == previous.cases.end())
        manifest.write_case(cs);
  }
  for (const QueueEntry& e : queue)
    manifest.write_transition(spec_.cases[e.case_index].id, "queued", e.attempt,
                              clock(), 0.0);

  FELIS_LOG_INFO("campaign '", cfg.name, "': ", pending, " case(s) to run, ",
                 report.skipped, " already done, ", cfg.workers, " worker(s), ",
                 cfg.thread_budget, " thread budget");

  // retries consumed this session, per case (resume grants a fresh allowance).
  std::map<usize, int> session_retries;

  const auto maybe_finished = [&]() {
    // Callers hold `mutex`.
    if (done) return;
    if ((queue.empty() && active.empty()) || (draining() && active.empty())) {
      done = true;
      cv.notify_all();
    }
  };

  // ---- watchdog: cancel runs whose heartbeat went stale ----
  std::atomic<bool> stop_watchdog{false};
  std::thread watchdog;
  if (cfg.watchdog_seconds > 0) {
    watchdog = std::thread([&] {
      const auto poll = std::chrono::milliseconds(std::max(
          10, static_cast<int>(cfg.watchdog_seconds * 1000.0 / 4.0)));
      while (!stop_watchdog.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(poll);
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto& run : active) {
          const double stale =
              clock() - run->ctx.last_beat_.load(std::memory_order_relaxed);
          if (stale > cfg.watchdog_seconds &&
              !run->ctx.cancel_.exchange(true, std::memory_order_relaxed)) {
            FELIS_LOG_WARN("campaign watchdog: case '",
                           spec_.cases[run->case_index].id, "' silent for ",
                           stale, " s (deadline ", cfg.watchdog_seconds,
                           " s), cancelling attempt ", run->ctx.attempt_);
          }
        }
      }
    });
  }

  // ---- worker pool ----
  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      if (done) return;
      if (draining()) {
        // Propagate the drain to active runs (signal handlers cannot), then
        // leave once this worker has nothing of its own in flight.
        for (const auto& run : active)
          run->ctx.cancel_.store(true, std::memory_order_relaxed);
        maybe_finished();
        return;
      }
      // Admission: the first ready entry, in queue (LPT) order, that fits
      // the free thread budget.
      auto it = queue.end();
      for (auto q = queue.begin(); q != queue.end(); ++q) {
        if (q->ready_at > clock()) continue;
        if (spec_.cases[q->case_index].threads <=
            cfg.thread_budget - threads_in_flight) {
          it = q;
          break;
        }
      }
      if (it == queue.end()) {
        maybe_finished();
        if (done) return;
        // Backoff gates and drain flags advance without notifications.
        cv.wait_for(lock, std::chrono::milliseconds(20));
        continue;
      }

      const QueueEntry entry = *it;
      queue.erase(it);
      const CaseSpec& cs = spec_.cases[entry.case_index];

      // GCD accounting: the invariant the stress test asserts.
      threads_in_flight += cs.threads;
      FELIS_CHECK_MSG(threads_in_flight <= cfg.thread_budget,
                      "scheduler admitted case '"
                          << cs.id << "' beyond the thread budget ("
                          << threads_in_flight << " > " << cfg.thread_budget
                          << ")");
      report.max_threads_in_flight =
          std::max(report.max_threads_in_flight, threads_in_flight);

      active.push_back(std::make_unique<ActiveRun>());
      ActiveRun* run = active.back().get();
      run->case_index = entry.case_index;
      run->threads = cs.threads;
      run->ctx.attempt_ = entry.attempt;
      run->ctx.drain_ = &drain_;
      run->ctx.clock_ = clock;
      run->ctx.run_dir_ =
          (std::filesystem::path(cfg.dir) / cs.id).string();
      run->ctx.heartbeat();

      manifest.write_transition(cs.id, "running", entry.attempt, clock(), 0.0);
      lock.unlock();

      std::filesystem::create_directories(run->ctx.run_dir_);
      const Stopwatch run_watch;
      RunResult result;
      try {
        result = runner_(cs, run->ctx);
      } catch (const io::InjectedCrash& crash) {
        result.ok = false;
        result.detail = crash.what();
      } catch (const std::exception& err) {
        result.ok = false;
        result.detail = err.what();
      }
      const double run_wall = run_watch.seconds();
      const bool was_cancelled = run->ctx.cancel_.load(std::memory_order_relaxed);

      lock.lock();
      threads_in_flight -= cs.threads;
      report.busy_thread_seconds += run_wall * cs.threads;
      active.erase(std::find_if(active.begin(), active.end(),
                                [&](const auto& p) { return p.get() == run; }));

      CaseOutcome& out = report.outcomes[entry.case_index];
      out.attempts = entry.attempt;
      out.wall_seconds += run_wall;

      if (result.ok) {
        out.state = "done";
        out.result = std::move(result);
        ++report.completed;
        manifest.write_transition(cs.id, "done", entry.attempt, clock(),
                                  run_wall, out.result.detail,
                                  out.result.metrics);
      } else if (draining()) {
        // Interrupted, not broken: journal `retried` so the next session
        // resumes this case from its newest checkpoint.
        out.state = "retried";
        out.result = std::move(result);
        ++report.drained;
        manifest.write_transition(cs.id, "retried", entry.attempt, clock(),
                                  run_wall, "drain");
      } else {
        if (was_cancelled && result.detail.empty())
          result.detail = "watchdog timeout";
        int& used = session_retries[entry.case_index];
        if (used < cfg.max_retries) {
          ++used;
          ++report.retries;
          out.state = "retried";
          manifest.write_transition(cs.id, "retried", entry.attempt, clock(),
                                    run_wall, result.detail);
          const double backoff =
              static_cast<double>(cfg.retry_backoff_ms) *
              static_cast<double>(1 << (used - 1)) / 1000.0;
          queue.push_back({entry.case_index, entry.attempt + 1,
                           clock() + backoff});
          manifest.write_transition(cs.id, "queued", entry.attempt + 1,
                                    clock(), 0.0, result.detail);
        } else {
          out.state = "failed";
          out.result = std::move(result);
          ++report.failed;
          FELIS_LOG_ERROR("campaign case '", cs.id, "' failed after ",
                          entry.attempt, " attempt(s): ", out.result.detail);
          manifest.write_transition(cs.id, "failed", entry.attempt, clock(),
                                    run_wall, out.result.detail);
        }
      }
      maybe_finished();
      cv.notify_all();
    }
  };

  const int nworkers = std::max(
      1, std::min<int>(cfg.workers, static_cast<int>(queue.size())));
  std::vector<std::thread> pool;
  worker_errors.resize(static_cast<usize>(nworkers));
  {
    std::lock_guard<std::mutex> lock(mutex);
    maybe_finished();  // empty campaign (everything already done)
  }
  pool.reserve(static_cast<usize>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    pool.emplace_back([&, w] {
      try {
        worker();
      } catch (...) {
        worker_errors[static_cast<usize>(w)] = std::current_exception();
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
        cv.notify_all();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  stop_watchdog.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();
  for (const std::exception_ptr& e : worker_errors)
    if (e) std::rethrow_exception(e);

  // Drained before ever starting: journalled as queued; count them.
  for (const QueueEntry& e : queue) {
    CaseOutcome& out = report.outcomes[e.case_index];
    if (out.state.empty()) {
      out.state = "queued";
      ++report.drained;
    }
  }

  report.wall_seconds = watch.seconds();
  FELIS_LOG_INFO("campaign '", cfg.name, "': ", report.completed, " done, ",
                 report.skipped, " skipped, ", report.failed, " failed, ",
                 report.drained, " drained in ", report.wall_seconds,
                 " s (utilisation ", report.utilisation(), ")");
  return report;
}

}  // namespace felis::sched
