/// \file coarse.hpp
/// \brief Coarse-grid solver of the two-level Schwarz preconditioner.
///
/// "The coarse grid problem A₀, on linear elements, is solved for using an
/// approximate Krylov solver, a preconditioned Conjugate Gradient method,
/// with a fixed number of iterations (≈10) and an element-wise block Jacobi
/// preconditioner." (§5.3)
///
/// Restriction/prolongation are the tensor-product transfers between the
/// degree-N GLL basis and the degree-1 (vertex) basis on the same mesh, with
/// inverse-multiplicity weighting so interface residuals are partitioned,
/// not double counted. They sweep the fine elements but run on the coarse
/// context's backend (serial, see make_coarse_setup) like the rest of the
/// solve: in the task-overlapped preconditioner they run on the coarse
/// stream's thread while the Schwarz smoother holds the fine backend's team.
///
/// The coarse grid charges the fine context's Profiler (the rank's): its
/// transfers, CG kernels, reductions and messages land in whatever region
/// the caller has open (step/pressure in the serial preconditioner, or
/// step/pressure/overlapped in the task-parallel one).
#pragma once

#include <memory>

#include "krylov/cg.hpp"
#include "operators/setup.hpp"

namespace felis::precon {

class CoarseSolver {
 public:
  /// `fine` and `coarse` must describe the same elements in the same order
  /// (same partition); `iterations` is the fixed PCG count. Work is charged
  /// to `fine.prof`; `coarse.prof` is not read.
  CoarseSolver(const operators::Context& fine, const operators::Context& coarse,
               int iterations = 10);

  /// z_fine = R₀ᵀ A₀⁻¹ R₀ r_fine (assembled; z overwritten).
  void solve(const RealVec& r_fine, RealVec& z_fine);

  /// Residual restriction only (exposed for tests): r_c = gs(J₀ᵀ (W r_f)).
  void restrict_residual(const RealVec& r_fine, RealVec& r_coarse) const;
  /// Prolongation only: z_f = J₀ z_c.
  void prolong(const RealVec& z_coarse, RealVec& z_fine) const;

  int iterations() const { return iterations_; }

 private:
  operators::Context fine_;
  operators::Context coarse_;
  int iterations_;
  field::Op1D j_, jt_;  ///< degree-1 → degree-N interpolation and transpose
  std::unique_ptr<krylov::HelmholtzOperator> op_;
  std::unique_ptr<krylov::JacobiPrecon> jacobi_;
  krylov::CgSolver cg_;
  RealVec rc_, zc_;  ///< coarse work vectors
};

/// Build the degree-1 companion setup for a fine setup over the same global
/// mesh (same RCB partition — partitioning is degree-independent). It has no
/// Profiler of its own: CoarseSolver charges the fine setup's. It carries the
/// n = 2 kernel table and always runs on the serial backend, whatever the
/// fine setup's: at 8 dofs per element its loops are too short to pay for
/// waking a team (DESIGN.md §13). Serial and OpenMP are bitwise equal, so
/// this changes no result.
operators::RankSetup make_coarse_setup(const mesh::HexMesh& global_mesh,
                                       comm::Communicator& comm);

/// The same; `backend` is ignored. Kept only for felis_bench's call, which
/// still passes the fine setup's backend.
operators::RankSetup make_coarse_setup(const mesh::HexMesh& global_mesh,
                                       comm::Communicator& comm,
                                       device::Backend* backend);

}  // namespace felis::precon
