#include "perfmodel/workload.hpp"

#include "field/kernel_cost.hpp"
#include "field/space.hpp"

namespace felis::perfmodel {

namespace cost = field::cost;

/// Mean residual-projection basis over its restart cycle of 8 vectors.
constexpr double kProjectionBasis = 4;

StepWorkload estimate_step_workload(const PartitionStats& part, int degree,
                                    const SolverCounts& counts) {
  const double n = degree + 1;
  const double m = field::dealias_points(degree + 1);
  const double e = part.local_elements;
  const double dofs = e * n * n * n;
  const double coarse_dofs = e * 8;
  // `calls` BLAS-1 passes over the field touching `words` arrays.
  const auto pass = [dofs](PhaseCost& c, double words, double flops,
                           double calls = 1) {
    c.add_passes(cost::vector_pass(dofs, words, flops), calls);
  };

  // One gather–scatter: the declared local phase plus the halo messages.
  const auto exchange = [&](PhaseCost& c, double degree_n, double shared_nodes,
                            double calls = 1) {
    OpCounters gs = cost::gather_scatter_conforming(degree_n, e);
    gs.messages = part.neighbors;
    gs.msg_bytes = shared_nodes * cost::kWord;
    c.add(gs, 2, calls);
  };
  const auto fine_gs = [&](PhaseCost& c, double calls = 1) {
    exchange(c, n, part.shared_nodes, calls);
  };
  // A Helmholtz operator apply: ax plus its assembly.
  const auto helmholtz = [&](PhaseCost& c, bool mass_term, double calls = 1) {
    c.add(cost::ax_helmholtz(n, e, mass_term), 1, calls);
    fine_gs(c, calls);
  };
  // A Jacobi-PCG solve of `iterations` iterations (krylov::CgSolver): the
  // residual, the first preconditioned residual, then per iteration the
  // operator, three dots, two axpys, the preconditioner and the update.
  const auto cg = [&](PhaseCost& c, double iterations) {
    helmholtz(c, true);
    pass(c, 3, 1);                   // r = b − A x
    c.add(cost::glsc3(dofs), 1, 2);  // ‖r‖, <r,z>
    pass(c, 3, 1);                   // z = r/d
    pass(c, 2, 0);                   // p = z
    helmholtz(c, true, iterations);
    c.add(cost::glsc3(dofs), 1, 3 * iterations);
    pass(c, 3, 2, 3 * iterations);  // axpy ×2, xpay
    pass(c, 3, 1, iterations);      // z = r/d
  };

  StepWorkload load;

  // ---- step outside the solves: CFL, forcing, extrapolation, divergence ----
  {
    PhaseCost c;
    c.add(cost::cfl(n, e), 1);
    // Dealiased advection: set_velocity, then u, v, w and T into zeroed
    // weak forcings, with the buoyancy term on w.
    c.add(cost::advector_set_velocity(n, m, e), 1);
    c.add(cost::advector_apply(n, m, e), 1, 4);
    pass(c, 1, 0, 4);
    pass(c, 4, 3);
    // Weak → strong: assemble and scale by the inverse mass, four fields.
    fine_gs(c, 4);
    pass(c, 3, 1, 4);
    // ũ and T̃: zeroed, then three extrapolation terms of 5 flops each.
    pass(c, 1, 0, 4);
    pass(c, 4, 5, 12);
    // Diagnostics: div_strong (three grads, a copy, two adds) and its norm,
    // whose reduction the solver charges.
    c.add(cost::grad(n, e), 1, 3);
    pass(c, 2, 0);
    pass(c, 3, 1, 2);
    pass(c, 3, 4);
    c.add(cost::counts(0, 0, 1), 0);
    load["other"] = c;
  }

  // ---- pressure: GMRES + hybrid Schwarz multigrid -------------------------
  {
    const double ip = counts.pressure_iterations;
    PhaseCost c;
    // RHS: div_weak, its assembly, the 1/dt scale and the null component.
    c.add(cost::div_weak(n, e), 1);
    fine_gs(c);
    pass(c, 2, 1);
    c.add(cost::remove_null_component(dofs), 2);
    // Residual projection before (basis dots, two axpys each) and after the
    // solve (sum, one operator apply, A-orthonormalization, two norms).
    c.add(cost::glsc3(dofs), 1, kProjectionBasis);
    pass(c, 3, 2, 2 * kProjectionBasis);
    pass(c, 1, 0);
    pass(c, 2, 0, 2);
    pass(c, 3, 1);
    c.add(cost::remove_null_component(dofs), 2);
    helmholtz(c, false);
    c.add(cost::glsc3(dofs), 1, kProjectionBasis);
    pass(c, 3, 2, 2 * kProjectionBasis);
    c.add(cost::glsc3(dofs), 1, 2);
    pass(c, 2, 1, 2);
    c.add(cost::remove_mean(dofs), 2);
    // GMRES, one restart cycle: the initial residual and its norm, then per
    // iteration the preconditioner, the operator, the null component, the
    // batched Gram–Schmidt (on average (ip+1)/2 basis vectors, one axpy
    // each), the norm and the scaled new basis vector; finally the update
    // Σ y_j z_j and the mean removal.
    c.add((cost::remove_null_component(dofs) + cost::remove_mean(dofs)) * 2, 6);
    helmholtz(c, false);
    pass(c, 3, 1);
    pass(c, 2, 1);
    c.add(cost::glsc3(dofs), 1);
    // Preconditioner, fine term: FDM, assembly, weighting; then z = zf + zc.
    c.add(cost::fdm_apply(n, e), 3, ip);
    fine_gs(c, ip);
    pass(c, 3, 1, 2 * ip);
    pass(c, 2, 0, ip);
    helmholtz(c, false, ip);
    c.add(cost::remove_null_component(dofs), 2, ip);
    c.add(cost::gmres_batched_dots(dofs, (ip + 1) / 2), 1, ip);
    pass(c, 3, 2, ip * (ip + 1) / 2);
    c.add(cost::glsc3(dofs), 1, ip);
    pass(c, 2, 1, ip);
    pass(c, 3, 2, ip);  // back-substitution update
    load["pressure"] = c;

    // Coarse term of each preconditioner apply (CoarseSolver::solve): the
    // restriction and its assembly, the null component, a fixed-iteration
    // Jacobi-PCG on the vertex grid, the null component and the
    // prolongation. Tiny kernels and three reductions per iteration: the
    // latency-bound part the task-parallel preconditioner hides (§5.3,
    // Fig. 2), kept as its own phase so scaling.cpp can overlap it.
    const double ic = counts.coarse_iterations;
    const auto coarse_pass = [&](PhaseCost& c2, double words, double flops,
                                 double calls) {
      c2.add_passes(cost::vector_pass(coarse_dofs, words, flops), calls * ip);
    };
    PhaseCost coarse;
    coarse.add(cost::coarse_restrict(n, e), 3, ip);
    coarse.add(cost::remove_null_component(coarse_dofs), 2, 2 * ip);
    coarse_pass(coarse, 1, 0, 1);
    coarse.add(cost::ax_helmholtz(2, e, false), 1, (ic + 1) * ip);
    exchange(coarse, 2, part.coarse_shared_nodes, (ic + 2) * ip);
    coarse_pass(coarse, 3, 1, 2);
    coarse_pass(coarse, 2, 0, 1);
    coarse.add(cost::glsc3(coarse_dofs), 1, (2 + 3 * ic) * ip);
    coarse_pass(coarse, 3, 2, 3 * ic);
    coarse_pass(coarse, 3, 1, ic);
    coarse.add(cost::coarse_prolong(n, e), 3, ip);
    load["pressure_coarse"] = coarse;
  }

  // ---- velocity: pressure gradient, then 3 Helmholtz CG solves ------------
  {
    PhaseCost c;
    c.add(cost::grad(n, e), 1);
    // Per component: RHS B(ũ/dt − ∂p), its assembly, the history copies.
    pass(c, 4, 3, 3);
    pass(c, 2, 0, 6);
    fine_gs(c, 3);
    for (int k = 0; k < 3; ++k) cg(c, counts.velocity_iterations / 3);
    load["velocity"] = c;
  }

  // ---- temperature: 1 CG solve with Dirichlet lifting ---------------------
  {
    PhaseCost c;
    pass(c, 3, 2);  // RHS B T̃/dt
    fine_gs(c);
    helmholtz(c, true);  // A T_bc
    // rhs −= A T_bc, history and warm-start copies, the homogeneous start,
    // and T = T_h + T_bc after the solve.
    pass(c, 3, 2, 2);
    pass(c, 2, 0, 4);
    pass(c, 3, 1);
    cg(c, counts.scalar_iterations);
    load["temperature"] = c;
  }

  return load;
}

double phase_time(const Machine& machine, const PhaseCost& phase, int ranks) {
  double t = 0;
  // Device execution (roofline) + launch overheads.
  t += machine.kernel_time(phase.flops, phase.bytes);
  t += phase.launches * machine.device.launch_latency;
  // Halo exchanges: per message latency + bandwidth (messages to distinct
  // neighbours leave in sequence from one NIC queue).
  t += phase.messages * machine.network.latency +
       phase.msg_bytes / machine.network.bandwidth;
  if (phase.messages > 0) t += machine.network.gpu_sync_overhead;
  // Global reductions.
  t += phase.reductions * machine.allreduce_time(ranks, sizeof(real_t));
  return t;
}

StepPrediction predict_step(const Machine& machine, const StepWorkload& load,
                            int ranks) {
  StepPrediction p;
  for (const auto& [name, phase] : load) {
    const double t = phase_time(machine, phase, ranks);
    p.phase_seconds[name] = t;
    p.total += t;
  }
  return p;
}

}  // namespace felis::perfmodel
