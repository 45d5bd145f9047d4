// Fig. 4 reproduction: wall-time distribution of one time step.
//
// Part A — measured on this machine from the real solver's Profiler tree
// (laptop-scale run; communication is cheap here, so pressure's share is
// smaller than at scale), and each phase's measured counters beside the
// workload model's at the window's measured iteration counts.
// Part B — modelled at the paper's operating point (16,384 GCDs on LUMI,
// 108M elements): pressure dominates with >85% of the step, exactly the
// paper's pie chart.
#include <cstdio>
#include <map>
#include <string>

#include "bench_utils.hpp"
#include "perfmodel/scaling.hpp"

using namespace felis;
using namespace felis::perfmodel;

int main() {
  std::printf("Fig. 4 — wall-time distribution of one RBC time step\n\n");

  // ---- Part A: measured locally -------------------------------------------
  comm::SelfComm comm;
  const auto run = bench::make_rbc_run(comm, 1e5, 6, 1.5e-2);
  for (int i = 0; i < 8; ++i) run->sim->step();  // transient (order ramp)
  run->fine.prof->reset();
  // The model's charged counts for the same steps, priced one step at a time
  // (GMRES's Gram–Schmidt grows with the step's iteration count).
  PartitionStats part;
  part.local_elements = run->fine.lmesh.num_elements();
  std::map<std::string, OpCounters> model;
  for (int i = 0; i < 20; ++i) {
    const fluid::StepInfo info = run->sim->step();
    SolverCounts counts;
    counts.pressure_iterations = info.pressure_iterations;
    counts.velocity_iterations = info.velocity_iterations;
    counts.scalar_iterations = info.scalar_iterations;
    for (const auto& [name, phase] :
         estimate_step_workload(part, run->fine.space.degree, counts))
      model[name] += phase.charged;
  }
  const RegionNode* step = run->fine.prof->find("step");
  std::printf("A) measured on this machine (single rank, %d elements, N=6, "
              "20 steps):\n",
              run->fine.lmesh.num_elements());
  const double total = step->seconds;
  for (const char* phase : {"pressure", "velocity", "scalar", "forcing"}) {
    const RegionNode* node = run->fine.prof->find(std::string("step/") + phase);
    if (node)
      std::printf("   %-12s %7.2f ms   %5.1f%%\n", phase,
                  1e3 * node->seconds / 20, 100 * node->seconds / total);
  }
  const double other = total - run->fine.prof->find("step")->child_seconds();
  std::printf("   %-12s %7.2f ms   %5.1f%%\n", "other", 1e3 * other / 20,
              100 * other / total);

  // Measured counters per phase ("other" is the step outside the three
  // solves) against the model's; the coarse grid is part of pressure.
  const auto measured = [&run](const char* path) {
    return run->fine.prof->find(path)->inclusive_counters();
  };
  OpCounters measured_other = measured("step");
  for (const char* solve : {"step/pressure", "step/velocity", "step/scalar"}) {
    const OpCounters c = measured(solve);
    measured_other.flops -= c.flops;
    measured_other.bytes -= c.bytes;
    measured_other.reductions -= c.reductions;
  }
  const struct {
    const char* phase;
    OpCounters real, modelled;
  } rows[] = {
      {"pressure", measured("step/pressure"),
       model["pressure"] + model["pressure_coarse"]},
      {"velocity", measured("step/velocity"), model["velocity"]},
      {"scalar", measured("step/scalar"), model["temperature"]},
      {"other", measured_other, model["other"]},
  };
  std::printf("\n   %-12s %-27s%-27s%s\n", "per step",
              "MFLOP meas / model (ratio)", "MB meas / model (ratio)",
              "reductions meas / model");
  for (const auto& r : rows)
    std::printf("   %-12s %7.2f / %7.2f (%4.2f)   %7.2f / %7.2f (%4.2f)   "
                "%5.1f / %5.1f (%4.2f)\n",
                r.phase, 1e-6 * r.real.flops / 20, 1e-6 * r.modelled.flops / 20,
                r.modelled.flops / r.real.flops, 1e-6 * r.real.bytes / 20,
                1e-6 * r.modelled.bytes / 20, r.modelled.bytes / r.real.bytes,
                r.real.reductions / 20, r.modelled.reductions / 20,
                r.modelled.reductions / r.real.reductions);

  // ---- Part B: modelled at the paper's scale ------------------------------
  std::printf("\nB) modelled at 16,384 GCDs on LUMI (paper's Fig. 4 "
              "setting):\n");
  const ProductionMesh mesh = paper_production_mesh();
  ScalingOptions options;  // production-representative counts
  const StepPrediction pred =
      predict_with_overlap(make_lumi(), mesh, 16384, options);
  for (const auto& [name, t] : pred.phase_seconds)
    std::printf("   %-12s %7.2f ms   %5.1f%%\n", name.c_str(), 1e3 * t,
                100 * t / pred.total);
  std::printf("   total        %7.2f ms\n", 1e3 * pred.total);
  std::printf("\n=> \"Pressure constituting more than 85%% of the time for "
              "computing a time-step\" (§7.1):\n   modelled share %.1f%%.\n",
              100 * pred.phase_seconds.at("pressure") / pred.total);
  return 0;
}
