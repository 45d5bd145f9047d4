// felis_campaign: run a multi-case simulation sweep through the campaign
// scheduler — sweep expansion, cost-ordered queue, bounded worker pool,
// crash-safe manifest, automatic retry-from-checkpoint, SIGINT drain.
//
//   ./felis_campaign campaign.txt [--dry-run] [--steps N] [--dir PATH]
//   ./felis_campaign --status DIR [--watch] [--interval S] [--json]
//   ./felis_campaign --export-trace DIR
//
// The observer modes work on a running, finished or crashed campaign dir
// (they only read the crash-safe journals, skipping torn tails): --status
// prints the fleet table (per-case state/step/progress/Nu, throughput, ETA,
// stragglers) and writes DIR/status.json, --export-trace writes
// DIR/campaign.trace.json, a merged Chrome trace with every case on its own
// track (validate: tools/felis_trace.py --check).
//
// The campaign file is an ordinary key = value ParamMap with sweep.* axes;
// `case.type` (sweepable: `sweep.type = rbc,rbc2d,ihc`) selects each case's
// scenario from the case table:
//
//   campaign.name = ra_sweep        sweep.Ra = 2e4:6e5:log4
//   campaign.workers = 2            case.dt = 1.5e-2
//   campaign.steps = 40             checkpoint.every = 8
//
// Re-running the same command resumes from <campaign.dir>/manifest.ndjson:
// completed cases are skipped, interrupted ones restart from their newest
// valid checkpoint. Exit code: 0 all done, 1 failures, 2 drained (SIGINT),
// 64 usage, 65 bad campaign spec (e.g. an undeclared or out-of-range key) or
// a manifest the replay rules reject, 66 missing input.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "case/registry.hpp"
#include "device/backend.hpp"
#include "io/atomic_file.hpp"
#include "obs/campaign_monitor.hpp"
#include "obs/exporters.hpp"
#include "sched/case_runner.hpp"
#include "sched/manifest.hpp"
#include "sched/scheduler.hpp"

using namespace felis;

namespace {

const Param<std::string> kCampaignFile{"campaign.txt", "key = value lines, sweep.* axes"};
const Param<bool> kDryRun{"--dry-run", "print the ordered queue, run nothing"};
const Param<int> kStepsArg{"--steps", 1, "every case's step count"};
const Param<std::string> kDirArg{"--dir", "override campaign.dir"};
const Param<bool> kListCases{"--list-cases", "print the builtin cases and exit"};
const Param<std::string> kStatus{"--status", "print the fleet table of DIR"};
const Param<bool> kWatch{"--watch", "with --status: reread until every case ends"};
const Param<real_t> kInterval{"--interval", kPositive, "seconds between rereads (2)"};
const Param<bool> kJson{"--json", "with --status: print the status document"};
const Param<std::string> kExportTrace{"--export-trace", "write the merged trace of DIR"};
const CommandLine kCli{"felis_campaign",
                       {&kDryRun, &kStepsArg, &kDirArg, &kListCases, &kStatus,
                        &kWatch, &kInterval, &kJson, &kExportTrace},
                       {&kCampaignFile}};

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

/// --status / --export-trace: fold the campaign dir's journals and export;
/// --watch folds them afresh once per interval.
int run_observer(const std::string& dir, bool watch, double interval,
                 bool json_out, bool export_trace) {
  while (true) {
    obs::CampaignFold fold;
    try {
      fold = obs::read_campaign(dir, /*step_marks=*/export_trace);
    } catch (const sched::ManifestReplayError& e) {
      return corrupt_manifest(dir, e);
    }
    const obs::CampaignSnapshot& snap = fold.snapshot;
    if (!snap.manifest_found) {
      std::fprintf(stderr,
                   "no campaign manifest in '%s' (expected %s/manifest.ndjson)\n",
                   dir.c_str(), dir.c_str());
      return 66;
    }

    if (export_trace) {
      const std::string path = dir + "/campaign.trace.json";
      io::AtomicFileWriter writer(path);
      writer.stream() << obs::campaign_trace_json(fold);
      writer.commit();
      std::printf("merged trace: %s\n", path.c_str());
      return 0;
    }

    if (json_out) {
      std::fputs(obs::status_json(snap).c_str(), stdout);
    } else {
      print_fleet_table(snap);
    }
    const std::string path = obs::write_status_json(snap, dir);
    if (!json_out) std::printf("status: %s\n", path.c_str());

    bool all_terminal = !snap.cases.empty();
    for (const obs::CaseView& v : snap.cases)
      if (!v.terminal()) all_terminal = false;
    if (!watch || all_terminal) return 0;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(interval * 1000)));
    if (!json_out) std::printf("\n");
  }
}

int run(const ParamMap& args) {
  if (kListCases.get(args, false)) {
    std::printf("registered cases (case.type / sweep.type):\n");
    for (const cases::CaseInfo& info : cases::builtin_cases())
      std::printf("  %-10s %s\n", info.type.c_str(), info.description.c_str());
    return 0;
  }
  const std::string status_dir = kStatus.get(args, "");
  const std::string trace_dir = kExportTrace.get(args, "");
  if (!status_dir.empty() || !trace_dir.empty())
    return run_observer(trace_dir.empty() ? status_dir : trace_dir,
                        kWatch.get(args, false), kInterval.get(args, 2.0),
                        kJson.get(args, false), !trace_dir.empty());

  const std::string campaign_file = kCampaignFile.get(args, "");
  if (campaign_file.empty()) {
    std::fputs(kCli.usage().c_str(), stderr);
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
    if (kDirArg.in(args))
      params.set(sched::kCampaignDir.name, kDirArg.get(args, ""));
    if (kStepsArg.in(args))
      params.set(sched::kSteps.name, kStepsArg.get(args, 0));
    spec = sched::CampaignSpec::from_params(params);
  } catch (const Error& e) {
    std::fprintf(stderr, "bad campaign spec: %s\n", e.what());
    return 65;
  }
  if (kStepsArg.in(args))
    for (sched::CaseSpec& cs : spec.cases) cs.steps = kStepsArg.get(args, 0);

  // Validate every case's backend upfront (from_params already resolved
  // each case.type and built its mesh): a typo'd device.backend is a config
  // error, not a runtime failure — refuse to schedule (and burn retries on)
  // a queue that can never run, and name the valid choices instead.
  for (const sched::CaseSpec& cs : spec.cases) {
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
  if (kDryRun.get(args, false)) return 0;

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

}  // namespace

int main(int argc, char** argv) {
  std::string message;
  const int rc = kCli.main(argc, argv, run, message);
  std::fputs(message.c_str(), stderr);
  return rc;
}
