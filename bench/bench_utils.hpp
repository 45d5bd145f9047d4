/// \file bench_utils.hpp
/// \brief Shared helpers for the figure/table reproduction benches: the
/// canonical small RBC case, measured solver-iteration statistics, and table
/// printing.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "case/registry.hpp"
#include "common/stats.hpp"
#include "perfmodel/workload.hpp"

namespace felis::bench {

/// Canonical laptop-scale RBC slab used by the measurement benches: the
/// registered `rbc` case (periodic 3×3×3 box of extent 2×2×1) at the given
/// Ra, degree and dt, seeded with a 2 % perturbation.
inline std::unique_ptr<cases::CaseSetup> make_rbc_run(comm::Communicator& comm,
                                                      real_t rayleigh,
                                                      int degree, real_t dt) {
  ParamMap params;
  params.set("case.Ra", rayleigh);
  params.set("case.dt", dt);
  params.set("case.perturbation", 2e-2);
  params.set("mesh.degree", degree);
  auto run = cases::build_case(cases::resolve_case(params), params, comm);
  run->sim->set_initial_conditions();
  return run;
}

/// Average solver iteration counts over `steps` steps after `transient`
/// skipped ones — the measurement protocol of §6.1 (transient removal).
struct MeasuredCounts {
  perfmodel::SolverCounts counts;
  SampleStats step_seconds;
};

inline MeasuredCounts measure_counts(cases::Case& sim, int transient,
                                     int steps) {
  MeasuredCounts m;
  SampleStats p, v, s;
  for (int i = 0; i < transient; ++i) sim.step();
  for (int i = 0; i < steps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const fluid::StepInfo info = sim.step();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    m.step_seconds.add(dt);
    p.add(info.pressure_iterations);
    v.add(info.velocity_iterations);
    s.add(info.scalar_iterations);
  }
  m.counts.pressure_iterations = p.mean();
  m.counts.velocity_iterations = v.mean();
  m.counts.scalar_iterations = s.mean();
  return m;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace felis::bench
