// Ablation: residual-projection initial guesses for the pressure solve
// (the "initial guesses" of Fig. 4's phase accounting).
//
// Runs the same RBC simulation with and without the Fischer-type projection
// space and reports per-step pressure GMRES iterations and solve time.
#include <cstdio>

#include "bench_utils.hpp"

using namespace felis;

namespace {

/// The registered `rbc` slab (3×3×3, N = 6) with the pressure projection
/// space on or off.
std::unique_ptr<cases::CaseSetup> make_run(comm::Communicator& comm,
                                           bool projection) {
  ParamMap params;
  params.set("case.Ra", 2e5);
  params.set("case.dt", 1.5e-2);
  params.set("case.perturbation", 2e-2);
  params.set("mesh.degree", 6);
  params.set("fluid.use_projection", projection);
  auto run = cases::build_case(cases::resolve_case(params), params, comm);
  run->sim->set_initial_conditions();
  return run;
}

}  // namespace

int main() {
  std::printf("ablation — residual-projection initial guesses for the "
              "pressure solve\n\n");
  comm::SelfComm comm;
  std::printf("%-22s %18s %18s %16s\n", "configuration", "pressure iters/step",
              "pressure time/step", "speedup");
  bench::print_rule(78);
  double base_time = 0;
  for (const bool projection : {false, true}) {
    const auto run = make_run(comm, projection);
    for (int i = 0; i < 10; ++i) run->sim->step();  // transient
    run->fine.prof->reset();
    SampleStats iters;
    for (int i = 0; i < 30; ++i) iters.add(run->sim->step().pressure_iterations);
    const double pressure_time =
        run->fine.prof->find("step/pressure")->seconds / 30;
    if (!projection) base_time = pressure_time;
    std::printf("%-22s %18.1f %15.2f ms %15.2fx\n",
                projection ? "projection (8 vectors)" : "no projection",
                iters.mean(), 1e3 * pressure_time, base_time / pressure_time);
  }
  bench::print_rule(78);
  std::printf("\n=> projecting onto previous solutions deflates the "
              "slowly-varying part of the\n   pressure RHS across time steps; "
              "the solve then only works on the increment.\n");
  return 0;
}
