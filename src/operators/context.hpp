/// \file context.hpp
/// \brief Bundle of the per-rank discretization objects operators act on.
#pragma once

#include "comm/comm.hpp"
#include "common/profiler.hpp"
#include "device/backend.hpp"
#include "field/coef.hpp"
#include "field/space.hpp"
#include "field/tensor_simd.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/partition.hpp"

namespace felis::operators {

/// Non-owning view of one rank's discretization. All operator routines take
/// this; `prof` is optional instrumentation (feeds Fig. 4 and the perfmodel).
struct Context {
  const mesh::LocalMesh* lmesh = nullptr;
  const field::Space* space = nullptr;
  const field::Coef* coef = nullptr;
  const gs::GatherScatter* gs = nullptr;
  comm::Communicator* comm = nullptr;
  Profiler* prof = nullptr;
  /// Compute backend every element loop and vector kernel dispatches through;
  /// null falls back to the process default (FELIS_BACKEND / auto), so a
  /// zero-initialized Context keeps working.
  device::Backend* backend = nullptr;
  /// Per-order tensor-product kernel table (owned by RankSetup). Null falls
  /// back to the reference kernels, so a zero-initialized Context computes
  /// identical results — every variant is bitwise-equal to the reference.
  const field::TensorKernels* kernels = nullptr;

  device::Backend& dev() const {
    return backend != nullptr ? *backend : device::default_backend();
  }

  const field::TensorKernels& kern() const {
    return kernels != nullptr ? *kernels : field::TensorKernels::reference();
  }

  lidx_t num_elements() const { return lmesh->num_elements(); }
  lidx_t nodes_per_element() const { return space->nodes_per_element(); }
  usize num_dofs() const {
    return static_cast<usize>(num_elements()) *
           static_cast<usize>(nodes_per_element());
  }
};

/// Weighted global inner product Σ x·y·w (w typically the inverse
/// multiplicity so duplicated dofs count once), reduced across ranks.
real_t glsc3(const Context& ctx, const RealVec& x, const RealVec& y,
             const RealVec& w);

/// Global inner product with the inverse-multiplicity weight.
real_t gdot(const Context& ctx, const RealVec& x, const RealVec& y);

/// Volume-weighted mean removal (pressure null space in the fully enclosed
/// cell): x ← x − (∫x dV)/(∫dV), using mass × inverse multiplicity weights.
/// Use for *solution* normalization.
void remove_mean(const Context& ctx, RealVec& x);

/// Range projection for the singular all-Neumann operator: b ← b − c with
/// the constant c chosen so that the sum of b over *unique* dofs vanishes
/// (null(A) = constants, so range(A) = {b : Σ_unique b_i = 0}). Use on
/// right-hand sides and Krylov basis vectors; using the volume mean here
/// leaves a null component that makes CG/GMRES diverge along constants.
void remove_null_component(const Context& ctx, RealVec& b);

}  // namespace felis::operators
