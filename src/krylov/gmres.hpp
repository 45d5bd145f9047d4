/// \file gmres.hpp
/// \brief Restarted, right-preconditioned GMRES.
///
/// "the pressure is solved through a hybrid-Schwarz multigrid preconditioner
/// combined with GMRES" (§6). Right preconditioning keeps the residual in
/// the unpreconditioned norm (the quantity the splitting scheme controls),
/// and lets the preconditioner change between restarts.
#pragma once

#include "krylov/solver.hpp"

namespace felis::krylov {

class GmresSolver {
 public:
  /// `batched_orthogonalization`: classical Gram–Schmidt with all basis dot
  /// products fused into ONE global reduction per iteration (the standard
  /// production choice at scale — modified GS would cost k reductions per
  /// iteration); a second pass is applied when cancellation is detected.
  GmresSolver(const operators::Context& ctx, int restart = 30,
              bool batched_orthogonalization = true)
      : ctx_(ctx),
        restart_(restart),
        batched_orthogonalization_(batched_orthogonalization) {}

  /// Solve A x = b from initial guess x. If `null_space_mean` is true the
  /// operator has the constant null space of the all-Neumann pressure
  /// problem; the mean is projected out of b, of x, and of every solution
  /// update.
  SolveStats solve(LinearOperator& op, Preconditioner& precon, const RealVec& b,
                   RealVec& x, const SolveControl& control,
                   bool null_space_mean = false) const;

 private:
  operators::Context ctx_;
  int restart_;
  bool batched_orthogonalization_;
};

}  // namespace felis::krylov
