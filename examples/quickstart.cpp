// Quickstart: a minimal felis simulation — the shortest path from nothing
// to a working convection run.
//
// The scenario comes from the case table: `case.type` in the case file
// selects any builtin case (rbc, rbc2d, rbc_rot, ihc, rbc_cyl); the default
// is the periodic-slab RBC case at Ra = 10⁴ (mildly supercritical).
//
//   ./quickstart [Ra] [steps]
//   ./quickstart --case my_case.txt [steps]   (key = value file: any key of
//                                              cases::kCaseParams)
//   ./quickstart --list-cases                 (print the builtin cases)
//
// Exit code (felis_campaign's): 64 usage, 65 any felis::Error (e.g. an
// undeclared or out-of-range case key), 66 an unreadable case file.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "case/registry.hpp"
#include "device/backend.hpp"

using namespace felis;

namespace {

const Param<std::string> kCaseFile{"--case", "case file; the one positional is steps"};
const Param<bool> kListCases{"--list-cases", "print the builtin cases and exit"};
const Param<real_t> kRayleigh{"Ra", kPositive, "Rayleigh number of the rbc case"};
const Param<int> kSteps{"steps", 1, "time steps to run"};
const CommandLine kCli{"quickstart", {&kCaseFile, &kListCases}, {&kRayleigh, &kSteps},
                       &kCaseFile};

int run(const ParamMap& args) {
  if (kListCases.get(args, false)) {
    std::printf("registered cases (case.type):\n");
    for (const cases::CaseInfo& info : cases::builtin_cases())
      std::printf("  %-10s %s\n", info.type.c_str(), info.description.c_str());
    return 0;
  }
  ParamMap file;
  if (kCaseFile.in(args)) {
    const std::string path = kCaseFile.get(args, "");
    std::ifstream in(path);
    if (!in.good()) {
      std::fprintf(stderr, "quickstart: cannot read case file '%s'\n",
                   path.c_str());
      return 66;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    file = ParamMap::parse(ss.str());
    check_params(file, cases::kCaseParams);
  }
  const int steps = kSteps.get(args, 100);

  // 1. Scenario: resolve case.type against the case table (unknown types
  //    get a message naming every builtin case). Quickstart's own keys
  //    (Ra 1e4, dt 2e-2, degree-5 elements on the rbc slab) lie under the
  //    case file's.
  const cases::CaseInfo& info = cases::resolve_case(file);
  ParamMap params;
  params.set(cases::kRa.name, kRayleigh.get(args, 1e4));
  params.set(cases::kDt.name, 2e-2);
  if (info.type == "rbc") params.set(cases::kDegree.name, 5);
  for (const auto& [key, value] : file.entries()) params.set(key, value);

  // 2. Discretization and case: the table's factories build the mesh
  //    from the mesh.* keys and own boundary conditions, forcing and physics
  //    (free-fall units); SelfComm = single rank. The device backend comes
  //    from the `device.backend` case key (or FELIS_BACKEND env, or
  //    auto-detect). With telemetry.enabled = true in the case file the run
  //    streams per-step NDJSON metrics, a Perfetto-loadable Chrome trace and
  //    run-health heartbeats to telemetry.dir.
  comm::SelfComm comm;
  const cases::TelemetryChannel channel{
      telemetry::config_from_params(params).dir,
      {{"program", "quickstart"},
       {"Ra", params.get_string(cases::kRa.name, "")},
       {"dt", params.get_string(cases::kDt.name, "")}}};
  const std::unique_ptr<cases::CaseSetup> setup = cases::build_case(
      info, params, comm, &device::select_backend(params), &channel);
  cases::Case& sim = *setup->sim;
  sim.set_initial_conditions();

  // 3. Time stepping with live diagnostics (the cross-case observable
  //    contract: every case reports nu_plate / nu_volume / kinetic_energy).
  std::printf("felis quickstart: case '%s' (%s), %d steps\n",
              info.type.c_str(), info.description.c_str(), steps);
  std::printf("parameters:");
  for (const auto& [name, value] : sim.parameters())
    std::printf(" %s=%.4g", name.c_str(), value);
  std::printf("\n%8s %10s %8s %12s %12s %12s\n", "step", "time", "CFL",
              "Nu(plate)", "Nu(volume)", "kinetic E");
  for (int s = 1; s <= steps; ++s) {
    const fluid::StepInfo step_info = sim.step();
    if (s % 10 == 0 || s == 1) {
      const cases::Observables obs = sim.observables();
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
  for (const auto& [name, value] : sim.observables())
    std::printf(" %s=%.4e", name.c_str(), value);
  std::printf("\n(Nu > 1 indicates convective heat transport; subcritical "
              "cases decay back to conduction, Nu = 1.)\n");

  if (telemetry::Telemetry* telemetry = setup->telemetry.get()) {
    telemetry->finalize();
    std::printf("telemetry: %lld step records -> %s\n",
                static_cast<long long>(telemetry->records_written()),
                telemetry->ndjson_path().c_str());
    if (telemetry->config().trace)
      std::printf("telemetry: trace -> %s (load in Perfetto / chrome://tracing)\n",
                  telemetry->trace_path().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string message;
  const int rc = kCli.main(argc, argv, run, message);
  std::fputs(message.c_str(), stderr);
  return rc;
}
