/// \file kernel_cost.hpp
/// \brief Flops, bytes and reductions of every instrumented kernel, declared
/// once as functions of the kernel's shape.
///
/// The solver's Profiler charges, the performance model
/// (perfmodel::estimate_step_workload, build_precon_schedule) and the kernel
/// benches all read these functions, so the counters behind Figs. 2–4 and the
/// model that extrapolates them cannot drift apart. Each function returns the
/// counts of ONE call of its kernel; n is the GLL points per direction (N+1),
/// m the Gauss points of the dealias grid, e the elements the call sweeps.
///
/// Counting convention (each count is derived from the kernel's own loops):
/// - flops: every add, multiply and divide of real values the loops execute.
///   An r×c operator applied along one axis of a block whose other two
///   extents are d1×d2 costs 2·r·c·d1·d2. abs, comparisons and guards count
///   nothing.
/// - bytes: 8-byte words of the real arrays in memory the loops read or
///   write, counted once per point and direction: an array read once counts
///   1, one written counts 1, one read and updated in place counts 2.
///   Element-local scratch and re-reads of one element's data while the loop
///   stays on that element are taken as cache-resident and count nothing.
/// - operator matrices: per-element matrices (the FDM's eigenvectors and
///   eigenvalues) stream with their element and count; a matrix every
///   element shares (the space's derivative, interpolation and transfer
///   operators) stays in cache and counts nothing.
/// - index arrays (the gather–scatter's dof lists) count nothing: bytes are
///   real-valued traffic only.
/// - reductions: one per global allreduce the kernel enters.
/// Messages are not declared here: their number depends on the partition,
/// and gs::GatherScatter charges each one as it sends it.
#pragma once

#include "common/profiler.hpp"

namespace felis::field::cost {

constexpr double kWord = sizeof(real_t);

constexpr OpCounters counts(double flops, double words, double reductions = 0) {
  OpCounters c;
  c.flops = flops;
  c.bytes = words * kWord;
  c.reductions = reductions;
  return c;
}

// ---- dof-wise reductions (operators/ops.cpp) --------------------------------

/// glsc3: Σ x·y·w over `dofs` points — two multiplies and an add per point,
/// reading x, y and w.
constexpr OpCounters glsc3(double dofs) { return counts(3 * dofs, 3 * dofs, 1); }

/// remove_mean: the weight mass·w (1 flop), Σ weight·x and Σ weight (3 flops)
/// reading mass, w and x, then the shift x += c (1 flop, x read and written).
constexpr OpCounters remove_mean(double dofs) {
  return counts(5 * dofs, 5 * dofs, 1);
}

/// remove_null_component: Σ b·w and Σ w (3 flops) reading b and w, then the
/// shift b += c (1 flop, b read and written).
constexpr OpCounters remove_null_component(double dofs) {
  return counts(4 * dofs, 4 * dofs, 1);
}

/// GMRES's batched classical Gram–Schmidt: `vectors` dots Σ w·v_j·weight,
/// each reading its three arrays, fused into one reduction.
constexpr OpCounters gmres_batched_dots(double dofs, double vectors) {
  return counts(3 * dofs * vectors, 3 * dofs * vectors, 1);
}

// ---- element operators (operators/ops.cpp) ----------------------------------

/// ax_helmholtz: the reference gradient (three n×n sweeps, 6n⁴), the metric
/// products (three outputs of 3 multiplies + 2 adds, 15n³), the three
/// transposed sweeps (6n⁴) and their scaled sum into out (5n³); with the
/// mass term (h2 ≠ 0) out += h2·B·u adds 3n³ and the mass read. Reads u and
/// the six metric arrays, writes out.
constexpr OpCounters ax_helmholtz(double n, double e, bool mass_term) {
  const double n3 = n * n * n;
  return counts(e * (12 * n3 * n + (mass_term ? 23 : 20) * n3),
                e * (mass_term ? 9 : 8) * n3);
}

/// grad: three n×n sweeps (6n⁴) and three physical components of
/// 3 multiplies + 2 adds (15n³). Reads u and the nine drdx arrays, writes
/// the three components.
constexpr OpCounters grad(double n, double e) {
  const double n3 = n * n * n;
  return counts(e * (6 * n3 * n + 15 * n3), e * 13 * n3);
}

/// div_weak: three contravariant fluxes of three multiply-adds each (18n³),
/// scaled by the mass (3n³), three transposed sweeps (6n⁴) and their sum
/// (2n³). Reads the three components, nine drdx arrays and the mass, writes
/// out.
constexpr OpCounters div_weak(double n, double e) {
  const double n3 = n * n * n;
  return counts(e * (6 * n3 * n + 23 * n3), e * 14 * n3);
}

/// diag_helmholtz: per node, the three D²-weighted metric sums over n terms
/// (6n flops), the three cross terms 2·D·D·g + (4 flops each) and
/// h1·v + h2·B (3 flops). Reads the six metric arrays and the mass, writes
/// the diagonal. Its assembly is a gather–scatter, charged by the exchange.
constexpr OpCounters diag_helmholtz(double n, double e) {
  const double n3 = n * n * n;
  return counts(e * (6 * n3 * n + 15 * n3), e * 8 * n3);
}

/// cfl: per node and axis, the contravariant velocity (3 multiply-adds) and
/// |u_a|/Δr added to the sum (2 flops). Reads the velocity and the nine
/// drdx arrays; one max-reduction.
constexpr OpCounters cfl(double n, double e) {
  const double n3 = n * n * n;
  return counts(e * 24 * n3, e * 12 * n3, 1);
}

/// Advector::set_velocity: three m×n interpolation chains
/// (2mn³ + 2m²n² + 2m³n each) and 7 flops per Gauss point and direction for
/// the contravariant fluxes. Reads the three GLL components, the Gauss-grid
/// Jacobian weights and nine drdx arrays, writes the three fluxes.
constexpr OpCounters advector_set_velocity(double n, double m, double e) {
  return counts(e * (3 * (2 * m * n * n * n + 2 * m * m * n * n +
                          2 * m * m * m * n) +
                     21 * m * m * m),
                e * (3 * n * n * n + 13 * m * m * m));
}

/// Advector::apply: eleven sweeps — three of 2mn³, four each of 2m²n² and
/// 2m³n (the s and t chains share the r interpolation) — plus the three flux
/// products (5m³) and the signed update (2n³). Reads u and the three
/// fluxes; out is read and written.
constexpr OpCounters advector_apply(double n, double m, double e) {
  return counts(e * (6 * m * n * n * n + 8 * m * m * n * n +
                     8 * m * m * m * n + 5 * m * m * m + 2 * n * n * n),
                e * (3 * n * n * n + 3 * m * m * m));
}

// ---- preconditioner (precon/fdm.cpp, precon/coarse.cpp) ---------------------

/// One FDM transform (forward Sᵀ or backward S): three n×n sweeps with the
/// element's own matrices. Reads one field-sized array (r forward) or writes
/// one (z backward), plus the three n×n matrices.
constexpr OpCounters fdm_transform(double n, double e) {
  return counts(e * 6 * n * n * n * n, e * (n * n * n + 3 * n * n));
}

/// The FDM diagonal solve: λr + λs + λt and the division (3 flops per node),
/// reading the element's three eigenvalue vectors.
constexpr OpCounters fdm_diagonal(double n, double e) {
  return counts(e * 3 * n * n * n, e * 3 * n);
}

/// FdmSolver::apply: forward transform, diagonal solve, backward transform.
constexpr OpCounters fdm_apply(double n, double e) {
  return fdm_transform(n, e) + fdm_diagonal(n, e) + fdm_transform(n, e);
}

/// CoarseSolver::restrict_residual: the weighting r·w (n³), then Jᵀ (2×n)
/// along each axis — 4n³, 8n² and 16n. Reads r and w, writes the element's
/// 8 vertex values. Its assembly is a gather–scatter, charged by the exchange.
constexpr OpCounters coarse_restrict(double n, double e) {
  return counts(e * (5 * n * n * n + 8 * n * n + 16 * n),
                e * (2 * n * n * n + 8));
}

/// CoarseSolver::prolong: J (n×2) along each axis — 16n, 8n² and 4n³. Reads
/// the 8 vertex values, writes the fine element.
constexpr OpCounters coarse_prolong(double n, double e) {
  return counts(e * (4 * n * n * n + 8 * n * n + 16 * n), e * (n * n * n + 8));
}

// ---- BLAS-1 passes (operators::vec_*, the inline loops of fluid/) ----------

/// One pass over `dofs` points touching `words` field-sized arrays (an
/// in-place update counts 2) with `flops` per point: y += a·x is (3, 2). The
/// solver does not charge these — the vec_* kernels take a Backend, not a
/// Context — so only the model prices them.
constexpr OpCounters vector_pass(double dofs, double words, double flops) {
  return counts(flops * dofs, words * dofs);
}

// ---- gather–scatter (gs/gather_scatter.cpp) ---------------------------------

/// The local gather and scatter over `ids` active ids holding `dofs` dofs,
/// `shared` of those ids also held by another rank: one combine per
/// duplicate (dofs − ids); every dof is read and written once, and each
/// shared id's partial is written by the gather and read back for the
/// scatter (the rank-local ids combine in registers).
constexpr OpCounters gather_scatter_local(double dofs, double ids,
                                          double shared) {
  return counts(dofs - ids, 2 * dofs + 2 * shared);
}

/// The same on a conforming hex mesh whose element faces are all shared, for
/// the model: every surface node of an element is active, and each id is
/// shared by 2 (face), 4 (edge) or 8 (vertex) elements; `shared` of the ids
/// lie on the rank's boundary.
constexpr OpCounters gather_scatter_conforming(double n, double e,
                                               double shared) {
  const double inner = n - 2;
  return gather_scatter_local(e * (n * n * n - inner * inner * inner),
                              e * (3 * inner * inner + 3 * inner + 1), shared);
}

}  // namespace felis::field::cost
