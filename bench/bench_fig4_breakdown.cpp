// Fig. 4 reproduction: wall-time distribution of one time step.
//
// Part A — measured on this machine from the real solver's Profiler tree
// (laptop-scale run; communication is cheap here, so pressure's share is
// smaller than at scale).
// Part B — modelled at the paper's operating point (16,384 GCDs on LUMI,
// 108M elements): pressure dominates with >85% of the step, exactly the
// paper's pie chart.
#include <cstdio>

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
  for (int i = 0; i < 20; ++i) run->sim->step();
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
