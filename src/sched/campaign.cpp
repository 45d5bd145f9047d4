#include "sched/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "case/registry.hpp"
#include "common/error.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/workload.hpp"

namespace felis::sched {

double estimate_case_seconds(const ParamMap& case_params, int ranks,
                             std::int64_t steps) {
  // The rbc slab's mesh defaults: rbc2d and rbc_cyl are priced as that slab
  // unless their mesh.* keys are set (ROADMAP item 3).
  const double nx = cases::kNx.get(case_params, 3);
  const double ny = cases::kNy.get(case_params, 3);
  const double nz = cases::kNz.get(case_params, 3);
  const int degree = cases::kDegree.get(case_params, 4);
  const double ra = cases::kRa.get(case_params, 1e5);
  const double elements = nx * ny * nz;

  // Slab partition statistics, mesh_stats-style: each rank owns a contiguous
  // stack of z-layers and exchanges the two cut faces with its neighbours.
  perfmodel::PartitionStats part;
  part.local_elements = elements / ranks;
  const double face_nodes =
      static_cast<double>((degree + 1) * (degree + 1));
  part.neighbors = ranks > 1 ? 2 : 0;
  part.shared_nodes = ranks > 1 ? 2 * nx * ny * face_nodes : 0;
  part.coarse_shared_nodes = ranks > 1 ? 2 * nx * ny * 4 : 0;

  // Krylov effort grows with Ra: thinner boundary layers sharpen the pressure
  // problem. A gentle Ra^{1/8} growth anchored at Ra=1e5 mirrors what the
  // bench_nu_ra_scaling runs measure; exactness is irrelevant — the estimate
  // only *orders* the queue (longest-processing-time-first).
  perfmodel::SolverCounts counts;
  const double growth = std::pow(std::max(ra, 1.0) / 1e5, 0.125);
  counts.pressure_iterations *= growth;
  counts.velocity_iterations *= growth;
  counts.scalar_iterations *= growth;

  const perfmodel::StepWorkload load =
      perfmodel::estimate_step_workload(part, degree, counts);
  const perfmodel::StepPrediction prediction =
      perfmodel::predict_step(perfmodel::make_lumi(), load, ranks);
  return static_cast<double>(steps) * prediction.total;
}

CampaignSpec CampaignSpec::from_params(const ParamMap& params) {
  std::vector<ParamList> decls(std::begin(cases::kCaseParams),
                               std::end(cases::kCaseParams));
  decls.push_back(kCampaignParams);
  for (const auto& [key, value] : params.entries()) {
    if (!key.starts_with("sweep.")) {
      find_param(key, decls).check(value);
      continue;
    }
    try {
      find_param(sweep_target_key(key), decls);
    } catch (const Error& e) {
      throw Error("sweep axis '" + key + "': " + e.what());
    }
  }

  CampaignSpec spec;
  CampaignConfig& c = spec.config;
  c.name = kCampaignName.get(params, c.name);
  c.dir = kCampaignDir.get(params, c.dir);
  c.workers = kWorkers.get(params, c.workers);
  c.thread_budget = kThreadBudget.get(params, c.thread_budget);
  c.ranks = kRanks.get(params, c.ranks);
  c.steps = kSteps.get(params, static_cast<int>(c.steps));
  c.max_retries = kRetries.get(params, c.max_retries);
  c.retry_backoff_ms = kBackoffMs.get(params, c.retry_backoff_ms);
  c.watchdog_seconds = kWatchdogSeconds.get(params, c.watchdog_seconds);

  spec.cases = expand_campaign_cases(params);
  for (CaseSpec& cs : spec.cases) {
    // Check every swept value and build every case's geometry once before
    // anything runs: a value outside its range, a case.type the case table
    // does not know or a mesh its factory rejects is a config error that
    // would otherwise fail every attempt.
    try {
      for (const auto& [key, value] : cs.overrides)
        find_param(key, decls).check(value);
      cases::resolve_case(cs.params).make_geometry(cs.params);
    } catch (const Error& e) {
      throw Error("case '" + cs.id + "': " + e.what());
    }
    cs.threads = kCaseRanks.get(cs.params, c.ranks);
    FELIS_CHECK_MSG(
        cs.threads <= c.thread_budget,
        "case '" << cs.id << "' needs " << cs.threads
                 << " threads but " << kThreadBudget.name << " is "
                 << c.thread_budget);
    cs.steps = kCaseSteps.get(cs.params, static_cast<int>(c.steps));
    cs.cost_seconds = estimate_case_seconds(cs.params, cs.threads, cs.steps);
  }

  // Longest-processing-time-first: with a bounded pool, launching the most
  // expensive cases first minimizes the tail where one straggler holds the
  // whole campaign open. stable_sort keeps expansion order among equals.
  std::stable_sort(spec.cases.begin(), spec.cases.end(),
                   [](const CaseSpec& a, const CaseSpec& b) {
                     return a.cost_seconds > b.cost_seconds;
                   });
  return spec;
}

std::string CampaignSpec::manifest_path() const {
  return (std::filesystem::path(config.dir) / "manifest.ndjson").string();
}

std::string CampaignSpec::summary_csv_path() const {
  return (std::filesystem::path(config.dir) / "nu_ra.csv").string();
}

}  // namespace felis::sched
