// Quickstart: a minimal felis simulation — the shortest path from nothing
// to a working convection run.
//
// The scenario comes from the case registry: `case.type` in the case file
// selects any registered case (rbc, rbc2d, rbc_rot, ihc, rbc_cyl, ...); the
// default is the periodic-slab RBC case at Ra = 10⁴ (mildly supercritical).
//
//   ./quickstart [Ra] [steps]
//   ./quickstart --case my_case.txt [steps]   (key = value file: case.*,
//                                              mesh.*, fluid.*, telemetry.*)
//   ./quickstart --list-cases                 (print the registered cases)
//
// Exit code (felis_campaign's): 64 usage (an unknown argument, an Ra that
// does not parse, a step count that is not a positive integer), 65 any
// felis::Error (e.g. an out-of-range case key), 66 an unreadable case file.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "case/registry.hpp"
#include "device/backend.hpp"
#include "precon/coarse.hpp"
#include "telemetry/telemetry.hpp"

using namespace felis;

namespace {

/// The whole of `s` as a finite real; with `count`, as a positive int.
bool parse_number(const std::string& s, bool count, double& out) {
  char* end = nullptr;
  errno = 0;
  out = count ? static_cast<double>(std::strtol(s.c_str(), &end, 10))
              : std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && errno == 0 && std::isfinite(out) &&
         (!count || (out >= 1 && out <= INT_MAX));
}

int run(const std::vector<std::string>& args) {
  ParamMap params;
  if (args == std::vector<std::string>{"--list-cases"}) {
    std::printf("registered cases (case.type):\n");
    for (const cases::CaseInfo& info : cases::Registry::global().infos())
      std::printf("  %-10s %s\n", info.type.c_str(), info.description.c_str());
    return 0;
  }
  const bool from_file = !args.empty() && args[0] == "--case";
  const usize steps_at = from_file ? 2 : 1;  // position of the step count
  double ra = 0, count = 100;
  if (args.size() > steps_at + 1 || (from_file && args.size() < 2) ||
      (!from_file && !args.empty() && !parse_number(args[0], false, ra)) ||
      (args.size() > steps_at && !parse_number(args[steps_at], true, count))) {
    std::fprintf(stderr, "usage: quickstart [Ra] [steps] | --case FILE [steps] "
                         "| --list-cases\n");
    return 64;
  }
  if (from_file) {
    std::ifstream in(args[1]);
    if (!in.good()) {
      std::fprintf(stderr, "quickstart: cannot read case file '%s'\n",
                   args[1].c_str());
      return 66;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    params = ParamMap::parse(ss.str());
  } else if (!args.empty()) {
    params.set("case.Ra", ra);
  }
  const int steps = static_cast<int>(count);

  // 1. Scenario: resolve case.type against the registry. Unknown types get
  //    the registry's message naming every registered case.
  params.set("case.Ra", params.get_real("case.Ra", 1e4));
  params.set("case.dt", params.get_real("case.dt", 2e-2));
  const std::string type = params.get_string("case.type", "rbc");
  // Historical quickstart default: degree-5 elements for the slab case
  // (registered types keep their own defaults when selected explicitly).
  if (type == "rbc" && !params.has("mesh.degree")) params.set("mesh.degree", 5);
  const cases::CaseInfo* info = &cases::Registry::global().resolve(type);

  // 2. Discretization: the case factory builds its mesh from the mesh.*
  //    keys; SelfComm = single rank. The device backend comes from the
  //    `device.backend` case key (or FELIS_BACKEND env, or auto-detect).
  comm::SelfComm comm;
  device::Backend& backend = device::select_backend(params);
  const cases::Geometry geo = info->make_geometry(params);
  auto fine = operators::make_rank_setup(geo.mesh, geo.degree, comm,
                                         /*dealias=*/true,
                                         /*three_halves_rule=*/true, &backend);
  auto coarse = precon::make_coarse_setup(geo.mesh, comm, &backend);

  // Optional unified telemetry (telemetry.enabled = true in the case file):
  // per-step NDJSON metrics, a Perfetto-loadable Chrome trace and run-health
  // heartbeats. The metadata keys make telemetry files joinable against
  // BENCH_*.json outputs (same backend/threads/degree identity). Attached
  // before ctx() is taken: the solver copies its Context at construction.
  telemetry::Telemetry telemetry(
      telemetry::config_from_params(params),
      {{"program", "quickstart"},
       {"type", info->type},
       {"backend", backend.name()},
       {"threads", std::to_string(backend.concurrency())},
       {"degree", std::to_string(geo.degree)},
       {"Ra", params.get_string("case.Ra", "default")},
       {"dt", params.get_string("case.dt", "default")}});
  fine.telemetry = &telemetry;
  coarse.telemetry = &telemetry;

  // 3. Case: the registered factory owns boundary conditions, forcing and
  //    physics; free-fall units throughout.
  const std::unique_ptr<cases::Case> sim =
      info->make_case(fine.ctx(), coarse.ctx(), geo, params);
  sim->set_initial_conditions();

  // 4. Time stepping with live diagnostics (the cross-case observable
  //    contract: every case reports nu_plate / nu_volume / kinetic_energy).
  std::printf("felis quickstart: case '%s' (%s), %d steps\n",
              info->type.c_str(), info->description.c_str(), steps);
  std::printf("parameters:");
  for (const auto& [name, value] : sim->parameters())
    std::printf(" %s=%.4g", name.c_str(), value);
  std::printf("\n%8s %10s %8s %12s %12s %12s\n", "step", "time", "CFL",
              "Nu(plate)", "Nu(volume)", "kinetic E");
  for (int s = 1; s <= steps; ++s) {
    const fluid::StepInfo step_info = sim->step();
    if (s % 10 == 0 || s == 1) {
      const cases::Observables obs = sim->observables();
      const auto val = [&obs](const char* key) {
        const auto it = obs.find(key);
        return it != obs.end() ? it->second : 0.0;
      };
      std::printf("%8lld %10.3f %8.3f %12.5f %12.5f %12.4e\n",
                  static_cast<long long>(step_info.step), step_info.time,
                  step_info.cfl, val("nu_plate"), val("nu_volume"),
                  val("kinetic_energy"));
    }
  }

  std::printf("\nfinal:");
  for (const auto& [name, value] : sim->observables())
    std::printf(" %s=%.4e", name.c_str(), value);
  std::printf("\n(Nu > 1 indicates convective heat transport; subcritical "
              "cases decay back to conduction, Nu = 1.)\n");

  if (telemetry.enabled()) {
    telemetry.finalize();
    std::printf("telemetry: %lld step records -> %s\n",
                static_cast<long long>(telemetry.records_written()),
                telemetry.ndjson_path().c_str());
    std::printf("telemetry: summary -> %s\n", telemetry.summary_path().c_str());
    if (telemetry.config().trace)
      std::printf("telemetry: trace -> %s (load in Perfetto / chrome://tracing)\n",
                  telemetry.trace_path().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const Error& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 65;
  }
}
