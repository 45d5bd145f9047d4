// felis_campaign: run a multi-case simulation sweep through the campaign
// scheduler — sweep expansion, cost-ordered queue, bounded worker pool,
// crash-safe manifest, automatic retry-from-checkpoint, SIGINT drain.
//
//   ./felis_campaign campaign.txt [options]
//     --dry-run            expand + order the queue, print it, run nothing
//     --steps N            override every case's step count (smoke runs)
//     --dir PATH           override campaign.dir
//     --list-cases         print the registered case types and exit
//
// Observer modes (work on a running, finished, or crashed campaign dir —
// they only read the crash-safe journals, skipping torn tails):
//   ./felis_campaign --status DIR [--watch] [--interval S] [--json]
//     print the fleet table (per-case state/step/progress/Nu, throughput,
//     ETA, stragglers) and write DIR/status.json + DIR/status.prom;
//     --watch repolls every S seconds (default 2) until every case is
//     terminal; --json prints the status document instead of the table
//   ./felis_campaign --export-trace DIR
//     write DIR/campaign.trace.json, a merged Chrome trace with every case
//     on its own track (validate: tools/felis_trace.py --check)
//
// The campaign file is an ordinary key = value ParamMap with sweep.* axes;
// `case.type` (sweepable: `sweep.type = rbc,rbc2d,ihc`) selects each case's
// scenario from the case registry:
//
//   campaign.name = ra_sweep        sweep.Ra = 2e4:6e5:log4
//   campaign.workers = 2            case.dt = 1.5e-2
//   campaign.steps = 40             checkpoint.every = 8
//
// Re-running the same command resumes from <campaign.dir>/manifest.ndjson:
// completed cases are skipped, interrupted ones restart from their newest
// valid checkpoint. Exit code: 0 all done, 1 failures, 2 drained (SIGINT),
// 64 usage, 65 bad campaign spec or a manifest the replay rules reject, 66
// missing input.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "case/registry.hpp"
#include "common/error.hpp"
#include "device/backend.hpp"
#include "io/atomic_file.hpp"
#include "obs/campaign_monitor.hpp"
#include "obs/exporters.hpp"
#include "sched/case_runner.hpp"
#include "sched/scheduler.hpp"

using namespace felis;

namespace {

constexpr const char* kUsage =
    "usage: felis_campaign <campaign.txt> [--dry-run] [--steps N] "
    "[--dir PATH]\n"
    "       felis_campaign --list-cases\n"
    "       felis_campaign --status DIR [--watch] [--interval S] [--json]\n"
    "       felis_campaign --export-trace DIR\n";

void print_fleet_table(const obs::CampaignSnapshot& snap) {
  std::printf("campaign '%s': %d worker(s), thread budget %d, %d resume(s), "
              "clock %.3f s\n",
              snap.campaign.c_str(), snap.workers, snap.thread_budget,
              snap.resumes, snap.clock_seconds);
  std::printf("%-40s %8s %8s %8s %9s %10s  %s\n", "case", "state", "attempts",
              "step", "progress", "Nu", "flags");
  for (const obs::CaseView& v : snap.cases) {
    std::string flags;
    if (v.straggler) flags += " straggler";
    double anomalies = 0;
    for (const auto& [name, n] : v.health_flags) anomalies += n;
    if (anomalies > 0)
      flags += " anomalies=" + std::to_string(static_cast<long>(anomalies));
    std::printf("%-40s %8s %8d %8lld %8.0f%% %10.4f %s\n", v.id.c_str(),
                v.state.empty() ? "declared" : v.state.c_str(), v.attempts,
                static_cast<long long>(v.step), 100.0 * v.progress, v.nusselt,
                flags.c_str());
  }
  std::printf("%d done, %d running, %d queued, %d failed | %.0f%% of modelled "
              "cost retired",
              snap.done, snap.running, snap.queued, snap.failed,
              100.0 * snap.completed_fraction);
  if (snap.eta_seconds >= 0)
    std::printf(" | eta %.1f s", snap.eta_seconds);
  std::printf(" | anomalies %.0f\n", snap.anomalies);
}

/// A manifest the replay rules reject (duplicate terminal records, or one
/// written by the retired service mode): named, exit 65 (data error).
int corrupt_manifest(const std::string& dir, const sched::ManifestReplayError& e) {
  std::fprintf(stderr, "corrupt campaign manifest in '%s': %s\n", dir.c_str(),
               e.what());
  return 65;
}

/// --status / --export-trace: fold the campaign dir's journals and export.
int run_observer(const std::string& dir, bool watch, double interval,
                 bool json_out, bool export_trace) {
  obs::CampaignMonitor monitor(dir);
  while (true) {
    try {
      monitor.poll();
    } catch (const sched::ManifestReplayError& e) {
      return corrupt_manifest(dir, e);
    }
    const obs::CampaignSnapshot snap = monitor.snapshot();
    if (!snap.manifest_found) {
      std::fprintf(stderr,
                   "no campaign manifest in '%s' (expected %s/manifest.ndjson)\n",
                   dir.c_str(), dir.c_str());
      return 66;
    }

    if (export_trace) {
      const std::string path = dir + "/campaign.trace.json";
      io::AtomicFileWriter writer(path);
      writer.stream() << obs::campaign_trace_json(monitor);
      writer.commit();
      std::printf("merged trace: %s\n", path.c_str());
      return 0;
    }

    if (json_out) {
      std::fputs(obs::status_json(snap).c_str(), stdout);
    } else {
      print_fleet_table(snap);
    }
    const obs::StatusPaths paths = obs::write_status_files(monitor, dir);
    if (!json_out)
      std::printf("status: %s, %s\n", paths.json.c_str(), paths.prom.c_str());

    bool all_terminal = !snap.cases.empty();
    for (const obs::CaseView& v : snap.cases)
      if (!v.terminal()) all_terminal = false;
    if (!watch || all_terminal) return 0;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(interval * 1000)));
    if (!json_out) std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_file;
  std::string dir_override;
  std::string status_dir;
  std::string trace_dir;
  bool dry_run = false;
  bool watch = false;
  bool json_out = false;
  double interval = 2.0;
  long steps_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-cases") == 0) {
      std::printf("registered cases (case.type / sweep.type):\n");
      for (const cases::CaseInfo& info : cases::Registry::global().infos())
        std::printf("  %-10s %s\n", info.type.c_str(),
                    info.description.c_str());
      return 0;
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps_override = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir_override = argv[++i];
    } else if (std::strcmp(argv[i], "--status") == 0 && i + 1 < argc) {
      status_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--export-trace") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      watch = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_out = true;
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval = std::atof(argv[++i]);
    } else if (campaign_file.empty() && argv[i][0] != '-') {
      campaign_file = argv[i];
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (valid: <campaign.txt>, --dry-run, "
                   "--steps, --dir, --list-cases, --status, "
                   "--watch, --interval, --json, --export-trace)\n",
                   argv[i]);
      return 64;
    }
  }

  if (!status_dir.empty() || !trace_dir.empty())
    return run_observer(trace_dir.empty() ? status_dir : trace_dir, watch,
                        interval > 0 ? interval : 2.0, json_out,
                        !trace_dir.empty());

  if (campaign_file.empty()) {
    std::fputs(kUsage, stderr);
    return 64;
  }

  std::ifstream in(campaign_file);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read campaign file '%s'\n",
                 campaign_file.c_str());
    return 66;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  sched::CampaignSpec spec;
  try {
    ParamMap params = ParamMap::parse(ss.str());
    if (!dir_override.empty()) params.set("campaign.dir", dir_override);
    if (steps_override > 0)
      params.set("campaign.steps", static_cast<int>(steps_override));
    spec = sched::CampaignSpec::from_params(params);
  } catch (const Error& e) {
    std::fprintf(stderr, "bad campaign spec: %s\n", e.what());
    return 65;
  }
  if (steps_override > 0)
    for (sched::CaseSpec& cs : spec.cases) cs.steps = steps_override;

  // Validate every case's type and backend upfront: a typo'd case.type or
  // device.backend is a config error, not a runtime failure — refuse to
  // schedule (and burn retries on) a queue that can never run, and name the
  // valid choices instead.
  for (const sched::CaseSpec& cs : spec.cases) {
    try {
      cases::Registry::global().resolve(cs.params.get_string("case.type", "rbc"));
    } catch (const Error& e) {
      std::fprintf(stderr, "case '%s': %s\n(try --list-cases)\n",
                   cs.id.c_str(), e.what());
      return 65;
    }
    try {
      device::select_backend(cs.params);
    } catch (const Error& e) {
      std::fprintf(stderr, "case '%s': %s\n", cs.id.c_str(), e.what());
      return 65;
    }
  }

  std::printf("campaign '%s': %zu case(s), %d worker(s), thread budget %d\n",
              spec.config.name.c_str(), spec.cases.size(), spec.config.workers,
              spec.config.thread_budget);
  std::printf("%-40s %8s %8s %12s  %s\n", "case", "threads", "steps",
              "est. cost", "overrides");
  for (const sched::CaseSpec& cs : spec.cases) {
    std::string overrides;
    for (const auto& [key, value] : cs.overrides) {
      if (!overrides.empty()) overrides += ", ";
      overrides += key + "=" + value;
    }
    std::printf("%-40s %8d %8lld %10.3fs  %s\n", cs.id.c_str(), cs.threads,
                static_cast<long long>(cs.steps), cs.cost_seconds,
                overrides.c_str());
  }
  if (dry_run) return 0;

  sched::Scheduler scheduler(std::move(spec),
                             sched::make_case_runner());
  sched::Scheduler::install_sigint_drain(&scheduler);
  sched::CampaignReport report;
  try {
    report = scheduler.run();
  } catch (const sched::ManifestReplayError& e) {
    return corrupt_manifest(scheduler.spec().config.dir, e);
  }
  sched::Scheduler::install_sigint_drain(nullptr);

  std::printf("\n%-40s %8s %8s %10s\n", "case", "state", "attempts", "wall");
  for (const sched::CaseOutcome& out : report.outcomes)
    std::printf("%-40s %8s %8d %9.3fs%s\n", out.id.c_str(), out.state.c_str(),
                out.attempts, out.wall_seconds,
                out.skipped ? "  (previous session)" : "");
  std::printf("\n%d done, %d skipped, %d failed, %d drained, %d retries in "
              "%.3f s (utilisation %.2f, %.1f cases/hour)\n",
              report.completed, report.skipped, report.failed, report.drained,
              report.retries, report.wall_seconds, report.utilisation(),
              report.cases_per_hour());
  std::printf("manifest: %s\n", scheduler.spec().manifest_path().c_str());

  if (report.completed + report.skipped > 0) {
    const std::string csv = scheduler.spec().summary_csv_path();
    sched::write_nu_ra_csv(scheduler.spec(), report, csv);
    std::printf("Nu(Ra) summary: %s\n", csv.c_str());
  }

  if (report.failed > 0) return 1;
  if (report.drained > 0) return 2;
  return 0;
}
