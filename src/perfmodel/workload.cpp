#include "perfmodel/workload.hpp"

#include <cmath>

#include "field/space.hpp"

namespace felis::perfmodel {

namespace {

constexpr double kReal = sizeof(real_t);

/// Footprints of the individual kernels, per element, matching the
/// instrumentation formulas in operators/ops.cpp and precon/fdm.cpp.
struct KernelShapes {
  double n, npe, m, nd3;
  explicit KernelShapes(int degree) {
    n = degree + 1;
    npe = n * n * n;
    m = field::dealias_points(degree + 1);
    nd3 = m * m * m;
  }
  double ax_flops() const { return 12 * npe * n + 18 * npe; }
  double ax_bytes() const { return 9 * npe * kReal; }
  double grad_flops() const { return 6 * npe * n + 15 * npe; }
  double grad_bytes() const { return 13 * npe * kReal; }
  double divw_flops() const { return 6 * npe * n + 24 * npe; }
  double divw_bytes() const { return 14 * npe * kReal; }
  double fdm_flops() const { return 12 * npe * n; }
  double fdm_bytes() const { return 5 * npe * kReal; }
  double adv_set_flops() const {
    return field::advector_set_velocity_flops(n, m);
  }
  double adv_set_bytes() const { return (3 * npe + 13 * nd3) * kReal; }
  double adv_apply_flops() const { return field::advector_apply_flops(n, m); }
  double adv_apply_bytes() const { return (2 * npe + 6 * nd3) * kReal; }
  /// Pointwise pass over `fields` field-sized arrays.
  double pw_bytes(double fields) const { return fields * npe * kReal; }
};

}  // namespace

StepWorkload estimate_step_workload(const PartitionStats& part, int degree,
                                    const SolverCounts& counts) {
  const KernelShapes k(degree);
  const double e = part.local_elements;

  // One fine gather-scatter: local gather/scatter passes + halo messages.
  const auto fine_gs = [&](PhaseCost& c) {
    c.bytes += 2 * e * k.npe * kReal;
    c.launches += 2;
    c.messages += part.neighbors;
    c.message_bytes += part.shared_nodes * kReal;
  };
  // One global dot product (weighted): 3 array reads + allreduce.
  const auto dot = [&](PhaseCost& c) {
    c.flops += 3 * e * k.npe;
    c.bytes += 3 * e * k.npe * kReal;
    c.launches += 1;
    c.reductions += 1;
  };

  StepWorkload load;

  // ---- forcing / explicit terms (the "other" slice of Fig. 4) ------------
  {
    PhaseCost c;
    // Dealiased advection: set_velocity + 4 applies (u, v, w, T).
    c.flops += e * (k.adv_set_flops() + 4 * k.adv_apply_flops());
    c.bytes += e * (k.adv_set_bytes() + 4 * k.adv_apply_bytes());
    c.launches += 4 + 4 * 13;
    // Weak→strong conversions: 4 gather-scatters + pointwise scaling.
    for (int i = 0; i < 4; ++i) fine_gs(c);
    c.bytes += e * k.pw_bytes(8);
    // ũ assembly (order-3 sums over 4 fields) and CFL + divergence checks.
    c.bytes += e * k.pw_bytes(4 * 7);
    c.flops += e * k.npe * 40;
    c.launches += 10;
    c.reductions += 2;  // CFL max + divergence norm
    load["other"] = c;
  }

  // ---- pressure: GMRES + hybrid Schwarz multigrid -------------------------
  {
    PhaseCost c;
    // RHS: div_weak + gs + mean removals.
    c.flops += e * k.divw_flops();
    c.bytes += e * k.divw_bytes();
    c.launches += 4;
    fine_gs(c);
    c.reductions += 2;
    const double ip = counts.pressure_iterations;
    // Per GMRES iteration: operator, preconditioner, orthogonalization.
    PhaseCost iter;
    // Operator: ax + gs.
    iter.flops += e * k.ax_flops();
    iter.bytes += e * k.ax_bytes();
    iter.launches += 4;
    fine_gs(iter);
    // Preconditioner, fine term: FDM + gs + weighting.
    iter.flops += e * k.fdm_flops();
    iter.bytes += e * k.fdm_bytes() + e * k.pw_bytes(2);
    iter.launches += 8;
    fine_gs(iter);
    // Preconditioner, coarse term: restrict, fixed-iteration PCG on the
    // vertex grid (8 dofs/element before assembly), prolong.
    iter.flops += e * (2 * 8 * k.n * 3);      // tensor transfers
    iter.bytes += e * (k.npe + 16) * kReal * 2;
    iter.launches += 6;
    // (The coarse-grid PCG itself is tracked as its own phase,
    // "pressure_coarse", so the overlap of §5.3 can be modelled — see
    // scaling.cpp.)
    // Batched classical Gram–Schmidt: the ~ip/2 basis dots stream 2 arrays
    // each but fuse into ONE reduction; plus the norm reduction.
    const double basis = ip / 2 + 1;
    iter.flops += basis * 3 * e * k.npe;
    iter.bytes += basis * e * k.pw_bytes(2)   // dots
                  + basis * e * k.pw_bytes(2);  // subtraction updates
    iter.launches += 2 * basis;
    iter.reductions += 2;
    c += iter.scaled(ip);
    // Residual-projection pre/post: ~basis_size dots + 1 operator apply.
    PhaseCost proj;
    for (int d = 0; d < 8; ++d) dot(proj);
    proj.flops += e * k.ax_flops();
    proj.bytes += e * k.ax_bytes() + e * k.pw_bytes(16);
    proj.launches += 12;
    fine_gs(proj);
    c += proj;
    load["pressure"] = c;

    // Coarse-grid solve: ~10 Jacobi-PCG iterations on the vertex grid per
    // GMRES iteration — tiny kernels (launch-latency bound) and two global
    // reductions per iteration (latency bound at scale). This is the part
    // the task-parallel preconditioner hides (§5.3, Fig. 2).
    PhaseCost coarse;
    const double ce_dofs = e * 8;
    coarse.flops += counts.coarse_iterations * ce_dofs * 60;
    coarse.bytes += counts.coarse_iterations * ce_dofs * 10 * kReal;
    coarse.launches += counts.coarse_iterations * 6.0;
    coarse.reductions += counts.coarse_iterations * 2.0 + 2;
    coarse.messages += (counts.coarse_iterations + 1) * part.neighbors;
    coarse.message_bytes +=
        (counts.coarse_iterations + 1) * part.coarse_shared_nodes * kReal;
    load["pressure_coarse"] = coarse.scaled(ip);
  }

  // ---- velocity: correction + 3 CG solves ---------------------------------
  {
    PhaseCost c;
    // ∇p + RHS assembly for 3 components + 3 gather-scatters.
    c.flops += e * k.grad_flops();
    c.bytes += e * k.grad_bytes() + e * k.pw_bytes(9);
    c.launches += 8;
    for (int i = 0; i < 3; ++i) fine_gs(c);
    PhaseCost iter;
    iter.flops += e * k.ax_flops();
    iter.bytes += e * k.ax_bytes() + e * k.pw_bytes(6);
    iter.launches += 8;
    fine_gs(iter);
    {
      PhaseCost dc;
      dot(dc);
      iter += dc.scaled(3);  // <p,Ap>, <r,z>, convergence norm
    }
    c += iter.scaled(counts.velocity_iterations);
    load["velocity"] = c;
  }

  // ---- temperature: 1 CG solve --------------------------------------------
  {
    PhaseCost c;
    c.bytes += e * k.pw_bytes(6);
    c.launches += 4;
    fine_gs(c);
    // Lifting: one extra operator apply.
    c.flops += e * k.ax_flops();
    c.bytes += e * k.ax_bytes();
    c.launches += 4;
    fine_gs(c);
    PhaseCost iter;
    iter.flops += e * k.ax_flops();
    iter.bytes += e * k.ax_bytes() + e * k.pw_bytes(6);
    iter.launches += 8;
    fine_gs(iter);
    {
      PhaseCost dc;
      dot(dc);
      iter += dc.scaled(3);
    }
    c += iter.scaled(counts.scalar_iterations);
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
       phase.message_bytes / machine.network.bandwidth;
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
