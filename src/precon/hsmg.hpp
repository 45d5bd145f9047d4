/// \file hsmg.hpp
/// \brief Hybrid (two-level additive overlapping) Schwarz multigrid
/// preconditioner for the pressure-Poisson solve, with the task-overlapped
/// variant of §5.3.
///
/// Implements eq. (3) of the paper:
///
///   M₀⁻¹ = R₀ᵀ A₀⁻¹ R₀  +  Σ_k Rₖᵀ Ãₖ⁻¹ Rₖ,
///
/// coarse solve (CoarseSolver: degree-1, ~10 Jacobi-PCG iterations) plus
/// element-wise FDM Schwarz solves (FdmSolver) with multiplicity-weighted
/// averaging of the overlapping local solutions.
///
/// `OverlapMode::kTaskParallel` launches the two independent terms on
/// separate streams — the coarse solve (latency-bound: small kernels, global
/// reductions) on a dedicated stream, the fine smoother on the caller's
/// thread — exactly the decomposition Fig. 2 traces (the paper also gives the
/// coarse stream a higher priority, §5.3; the host relies on OS scheduling).
/// A TraceRecorder can be attached to capture that timeline.
#pragma once

#include <functional>
#include <memory>

#include "device/stream.hpp"
#include "krylov/solver.hpp"
#include "precon/coarse.hpp"
#include "precon/fdm.hpp"

namespace felis::precon {

enum class OverlapMode {
  kSerial,        ///< coarse solve, then fine smoother (Fig. 2 timeline A)
  kTaskParallel,  ///< both terms concurrently on streams (Fig. 2 timeline B)
};

class HsmgPrecon final : public krylov::Preconditioner {
 public:
  HsmgPrecon(const operators::Context& fine, const operators::Context& coarse,
             OverlapMode mode, int coarse_iterations = 10);

  void apply(const RealVec& r, RealVec& z) override;

  void set_mode(OverlapMode mode) { mode_ = mode; }
  OverlapMode mode() const { return mode_; }

  /// Attach a trace recorder (Fig. 2); pass nullptr to detach.
  void set_trace(device::TraceRecorder* trace) { trace_ = trace; }

 private:
  void apply_fine(const RealVec& r, RealVec& z_fine);
  /// Run fn(), recorded as `name` on `track` when a recorder is attached.
  void timed(int track, const char* name, const std::function<void()>& fn);

  operators::Context fine_;
  OverlapMode mode_;
  FdmSolver fdm_;
  CoarseSolver coarse_solver_;
  device::Stream coarse_stream_;  ///< the coarse-grid term, task-parallel mode
  device::TraceRecorder* trace_ = nullptr;
  RealVec z_coarse_, z_fine_;
};

}  // namespace felis::precon
