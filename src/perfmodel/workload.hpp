/// \file workload.hpp
/// \brief Per-step operation counts of the RBC solver, assembled from the
/// same kernel inventory the real code executes.
///
/// The strong-scaling predictor (Fig. 3) needs, for every solver phase, the
/// flops, memory traffic, messages and reductions one rank performs per time
/// step. These are derived from the discretization parameters (local element
/// count, polynomial degree), the measured Krylov iteration counts of real
/// felis runs, and the analytic partition statistics of the production mesh.
/// Every kernel the solver charges is priced by the same declaration its
/// Profiler charge reads (field/kernel_cost.hpp), so a real run's counters
/// validate the model phase by phase (PhaseCost::charged,
/// tests/test_perfmodel.cpp). The model adds what the solver does not charge:
/// the BLAS-1 passes (field::cost::vector_pass) and the kernel launches.
#pragma once

#include <map>
#include <string>

#include "common/profiler.hpp"
#include "perfmodel/machine.hpp"

namespace felis::perfmodel {

/// Aggregated cost of one solver phase per time step (one rank).
struct PhaseCost : OpCounters {
  double launches = 0;  ///< kernel launches (host latency)
  /// The declared kernels' share of the counts above: what a real run's
  /// Profiler records for this phase. The rest is BLAS-1 passes.
  OpCounters charged;

  /// `calls` calls of a declared kernel of `launches_per` launches each.
  void add(const OpCounters& kernel, double launches_per, double calls = 1) {
    OpCounters::operator+=(kernel * calls);
    charged += kernel * calls;
    launches += launches_per * calls;
  }
  /// `calls` BLAS-1 passes of one launch each.
  void add_passes(const OpCounters& pass, double calls = 1) {
    OpCounters::operator+=(pass * calls);
    launches += calls;
  }
};

using StepWorkload = std::map<std::string, PhaseCost>;

/// Krylov iteration counts per step, measured from real felis runs
/// (bench_fig3 extracts them from StepInfo histories).
struct SolverCounts {
  /// Defaults reflect the production regime (high-Ra turbulence, tight
  /// pressure tolerance): bench_fig3 also reports with counts *measured*
  /// from real laptop-scale felis runs.
  double pressure_iterations = 40;  ///< GMRES+HSMG
  double velocity_iterations = 9;   ///< CG, summed over 3 components
  double scalar_iterations = 4;     ///< CG
  int coarse_iterations = 10;       ///< fixed PCG inside HSMG
};

/// Rank-local partition statistics (real or analytic; see mesh_stats.hpp).
struct PartitionStats {
  double local_elements = 0;
  double neighbors = 0;            ///< gather–scatter peers
  double shared_nodes = 0;         ///< fine-grid doubles exchanged per GS
  double coarse_shared_nodes = 0;  ///< coarse-grid doubles per GS
};

/// Assemble the per-step workload for one rank. `ranks` sizes the
/// reductions' log factor (taken by Machine::allreduce_time later).
StepWorkload estimate_step_workload(const PartitionStats& part, int degree,
                                    const SolverCounts& counts);

/// Wall-time of one phase on a machine: kernels (roofline + launch) plus
/// communication (halo messages + reductions).
double phase_time(const Machine& machine, const PhaseCost& phase, int ranks);

/// Total step time and per-phase breakdown.
struct StepPrediction {
  double total = 0;
  std::map<std::string, double> phase_seconds;
};
StepPrediction predict_step(const Machine& machine, const StepWorkload& load,
                            int ranks);

}  // namespace felis::perfmodel
