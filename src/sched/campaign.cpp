#include "sched/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/workload.hpp"

namespace felis::sched {

double estimate_case_seconds(const ParamMap& case_params, int ranks,
                             std::int64_t steps) {
  const double nx = case_params.get_int("mesh.nx", 3);
  const double ny = case_params.get_int("mesh.ny", 3);
  const double nz = case_params.get_int("mesh.nz", 3);
  const int degree = case_params.get_int("mesh.degree", 4);
  const double ra = case_params.get_real("case.Ra", 1e5);
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
  CampaignSpec spec;
  CampaignConfig& c = spec.config;
  c.name = params.get_string("campaign.name", c.name);
  c.dir = params.get_string("campaign.dir", c.dir);
  c.workers = params.get_int("campaign.workers", c.workers);
  c.thread_budget = params.get_int("campaign.thread_budget", c.thread_budget);
  c.ranks = params.get_int("campaign.ranks", c.ranks);
  c.steps = params.get_int("campaign.steps", static_cast<int>(c.steps));
  c.max_retries = params.get_int("campaign.retries", c.max_retries);
  c.retry_backoff_ms = params.get_int("campaign.backoff_ms", c.retry_backoff_ms);
  c.watchdog_seconds =
      params.get_real("campaign.watchdog_seconds", c.watchdog_seconds);
  // ParamMap ignores unknown keys, so a file written for the retired
  // scheduler metrics journal would otherwise run without comment.
  if (params.has("campaign.monitor"))
    throw Error("parameter 'campaign.monitor' was removed: the manifest is the "
                "one campaign journal, read by felis_campaign --status DIR");
  FELIS_CHECK_MSG(c.workers >= 1, "campaign.workers must be >= 1");
  FELIS_CHECK_MSG(c.thread_budget >= 1, "campaign.thread_budget must be >= 1");
  FELIS_CHECK_MSG(c.ranks >= 1, "campaign.ranks must be >= 1");
  FELIS_CHECK_MSG(c.steps >= 1, "campaign.steps must be >= 1");
  FELIS_CHECK_MSG(c.max_retries >= 0, "campaign.retries must be >= 0");

  spec.cases = expand_campaign_cases(params);
  for (CaseSpec& cs : spec.cases) {
    cs.threads = cs.params.get_int("case.ranks", c.ranks);
    FELIS_CHECK_MSG(cs.threads >= 1,
                    "case '" << cs.id << "': ranks must be >= 1");
    FELIS_CHECK_MSG(
        cs.threads <= c.thread_budget,
        "case '" << cs.id << "' needs " << cs.threads
                 << " threads but campaign.thread_budget is " << c.thread_budget);
    cs.steps = cs.params.get_int("case.steps", static_cast<int>(c.steps));
    FELIS_CHECK_MSG(cs.steps >= 1, "case '" << cs.id << "': steps must be >= 1");
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
