/// \file cg.hpp
/// \brief Preconditioned conjugate gradients.
///
/// The paper's velocity and temperature solves use "a block-Jacobi
/// preconditioner and conjugate gradient iterative solver" (§6); the coarse
/// grid of the pressure preconditioner uses a fixed-iteration PCG (§5.3).
/// Inner products are globally reduced with inverse-multiplicity weights so
/// duplicated dofs count once.
#pragma once

#include "krylov/solver.hpp"

namespace felis::krylov {

class CgSolver {
 public:
  explicit CgSolver(const operators::Context& ctx) : ctx_(ctx) {}

  /// Solve A x = b starting from the given x (which must satisfy homogeneous
  /// values at masked dofs). b must be assembled (gather–scattered) and
  /// masked. If `control.max_iterations` is reached the stats report
  /// converged=false (callers using CG as a fixed-iteration smoother, like
  /// the coarse-grid solve, simply ignore the flag).
  SolveStats solve(LinearOperator& op, Preconditioner& precon, const RealVec& b,
                   RealVec& x, const SolveControl& control) const;

 private:
  operators::Context ctx_;
};

}  // namespace felis::krylov
