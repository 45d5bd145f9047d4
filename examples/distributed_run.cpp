// Distributed execution: the same builtin case on multiple simulated
// ranks (threads with message passing — felis' stand-in for MPI, see
// DESIGN.md), demonstrating the two-phase gather-scatter, per-rank
// profiling, the task-overlapped pressure preconditioner running with real
// communication, and per-rank telemetry channels.
//
//   ./distributed_run [ranks] [steps] [telemetry-dir]
//
// Each rank runs on its share of the process team (device::process_threads()
// / ranks threads, at least one) of the process-default backend family.
//
// With a telemetry-dir, every rank records its own NDJSON stream / Chrome
// trace under <telemetry-dir>/rank<r>/ (directly under <telemetry-dir> for a
// one-rank run) — ranks are threads of one process, so each needs its own
// channel directory or their records would interleave in a single stream.
//
// Exit code (felis_campaign's): 64 usage, 65 any felis::Error.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>

#include "case/registry.hpp"
#include "device/backend.hpp"

using namespace felis;

namespace {

const Param<int> kRanks{"ranks", 1, "simulated ranks (threads)"};
const Param<int> kSteps{"steps", 1, "time steps to run"};
const Param<std::string> kTelemetryDir{"telemetry-dir", "rank telemetry under DIR"};
const CommandLine kCli{"distributed_run", {}, {&kRanks, &kSteps, &kTelemetryDir}};

int run(const ParamMap& args) {
  const int nranks = kRanks.get(args, 4), steps = kSteps.get(args, 60);
  const std::string telemetry_dir = kTelemetryDir.get(args, "");
  // The cylindrical cell from the case table (slender-ish: Γ = D/H = 0.5).
  // Every rank resolves the same params, so every rank builds the same
  // global mesh.
  ParamMap params;
  params.set(cases::kType.name, "rbc_cyl");
  params.set(cases::kRa.name, 5e4);
  params.set(cases::kDt.name, 1.5e-2);
  params.set(cases::kAspect.name, 0.5);
  params.set(cases::kNz.name, 8);
  params.set(cases::kTelemetryEnabled.name, !telemetry_dir.empty());
  const cases::CaseInfo& info = cases::resolve_case(params);
  const cases::TelemetryChannel channel{telemetry_dir,
                                        {{"program", "distributed_run"}}};

  // Every rank gets the same share of the process team, so one team size.
  device::Backend& backend = device::select_backend(
      params, std::max(1, device::process_threads() / nranks));

  std::printf("distributed %s: %d ranks (threads-as-ranks), %d elements, "
              "%s x%d per rank\n",
              info.type.c_str(), nranks,
              info.make_geometry(params).mesh.num_elements(),
              backend.name().c_str(), backend.concurrency());
  std::mutex print_mutex;

  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    // Task-overlapped preconditioner (the FlowConfig default): coarse-grid
    // CG with its own communication channel runs concurrently with the
    // Schwarz smoother.
    const std::unique_ptr<cases::CaseSetup> setup =
        cases::build_case(info, params, comm, &backend, &channel);
    {
      std::lock_guard<std::mutex> lock(print_mutex);
      std::printf(
          "  rank %d: %d local elements, %zu gather-scatter neighbours, "
          "%zu shared doubles per exchange\n",
          comm.rank(), setup->fine.lmesh.num_elements(),
          setup->fine.gs->num_neighbors(),
          setup->fine.gs->send_doubles_per_apply());
    }
    comm.barrier();

    cases::Case& sim = *setup->sim;
    sim.set_initial_conditions();
    fluid::StepInfo last;
    for (int s = 0; s < steps; ++s) last = sim.step();
    const cases::Observables obs = sim.observables();
    comm.barrier();

    if (setup->telemetry) setup->telemetry->finalize();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(print_mutex);
      std::printf("\nafter %d steps: t=%.3f Nu_vol=%.4f KE=%.4e "
                  "(identical on every rank)\n",
                  steps, last.time, obs.at("nu_volume"),
                  obs.at("kinetic_energy"));
      std::printf("\nrank 0 wall-time distribution (Fig. 4 style):\n%s\n",
                  setup->fine.prof->report().c_str());
      if (setup->telemetry)
        std::printf("telemetry: rank 0 stream -> %s\n",
                    setup->telemetry->ndjson_path().c_str());
    }
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string message;
  const int rc = kCli.main(argc, argv, run, message);
  std::fputs(message.c_str(), stderr);
  return rc;
}
