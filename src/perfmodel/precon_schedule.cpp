#include "perfmodel/precon_schedule.hpp"

#include <algorithm>

#include "field/kernel_cost.hpp"

namespace felis::perfmodel {

PreconSchedule build_precon_schedule(const Machine& machine, double elements,
                                     int degree, int coarse_iterations,
                                     int ranks, const PartitionStats& part) {
  namespace cost = field::cost;
  const double n = degree + 1;
  const double dofs = elements * n * n * n;
  const double coarse_dofs = elements * 8;
  const auto run = [&machine](const OpCounters& c) {
    return machine.kernel_time(c.flops, c.bytes);
  };
  const auto halo = [&](double shared_nodes) {
    return part.neighbors *
               machine.message_time(static_cast<usize>(
                   shared_nodes * cost::kWord / std::max(part.neighbors, 1.0))) +
           machine.network.gpu_sync_overhead;
  };

  // Fine term: the FDM's two transforms and diagonal solve (large,
  // bandwidth-bound), the gather–scatter (gather kernel + host-blocking halo
  // wait + scatter kernel, each kernel half the local phase) and the
  // multiplicity weighting.
  const double transform = run(cost::fdm_transform(n, elements));
  const double diagonal = run(cost::fdm_diagonal(n, elements));
  const double gs_half =
      run(cost::gather_scatter_conforming(n, elements, part.shared_nodes) * 0.5);
  const double halo_wait = halo(part.shared_nodes);
  const double weight = run(cost::vector_pass(dofs, 3, 1));

  // Coarse term: restriction, `coarse_iterations` Jacobi-PCG iterations of
  // tiny kernels and three reductions each, prolongation.
  const double restriction = run(cost::coarse_restrict(n, elements));
  const double prolongation = run(cost::coarse_prolong(n, elements));
  const double coarse_ax = run(cost::ax_helmholtz(2, elements, false));
  const double coarse_gs = run(
      cost::gather_scatter_conforming(2, elements, part.coarse_shared_nodes));
  const double coarse_dot = run(cost::glsc3(coarse_dofs));
  const double coarse_axpy = run(cost::vector_pass(coarse_dofs, 3, 2));
  const double coarse_jacobi = run(cost::vector_pass(coarse_dofs, 3, 1));
  const double reduce = machine.allreduce_time(ranks, sizeof(real_t));
  const double coarse_halo = halo(part.coarse_shared_nodes);

  PreconSchedule sched;
  sched.launch_latency = machine.device.launch_latency;

  const auto emit = [&](std::vector<SimTask>& out, int host, int stream) {
    // Coarse chain first in the serial schedule (mirrors eq. 3's ordering).
    out.push_back({"restrict", host, stream, restriction, 0});
    out.push_back({"coarse-gs", host, stream, coarse_gs, coarse_halo});
    for (int it = 0; it < coarse_iterations; ++it) {
      out.push_back({"coarse-ax", host, stream, coarse_ax, 0});
      out.push_back({"coarse-gs", host, stream, coarse_gs, coarse_halo});
      out.push_back({"coarse-dot1", host, stream, coarse_dot, reduce});
      out.push_back({"coarse-axpy", host, stream, 2 * coarse_axpy, 0});
      out.push_back({"coarse-dot2", host, stream, coarse_dot, reduce});
      out.push_back({"coarse-jacobi", host, stream, coarse_jacobi, 0});
      out.push_back({"coarse-dot3", host, stream, coarse_dot, reduce});
      out.push_back({"coarse-xpay", host, stream, coarse_axpy, 0});
    }
    out.push_back({"prolong", host, stream, prolongation, 0});
  };
  const auto emit_fine = [&](std::vector<SimTask>& out, int host, int stream) {
    out.push_back({"fdm-forward", host, stream, transform, 0});
    out.push_back({"fdm-diag", host, stream, diagonal, 0});
    out.push_back({"fdm-backward", host, stream, transform, 0});
    out.push_back({"gs-pack", host, stream, gs_half, 0});
    out.push_back({"gs-halo", host, stream, 0, halo_wait});
    out.push_back({"gs-scatter", host, stream, gs_half, 0});
    out.push_back({"weight", host, stream, weight, 0});
  };

  // Serial (timeline A): one host thread, one stream, coarse then fine.
  emit(sched.serial, 0, 0);
  emit_fine(sched.serial, 0, 0);

  // Task-parallel (timeline B): coarse chain on host thread 1 / stream 1
  // (high priority), fine smoother on host thread 0 / stream 0.
  emit(sched.parallel, 1, 1);
  emit_fine(sched.parallel, 0, 0);

  return sched;
}

}  // namespace felis::perfmodel
