#include "precon/hsmg.hpp"

#include "operators/ops.hpp"

namespace felis::precon {

HsmgPrecon::HsmgPrecon(const operators::Context& fine,
                       const operators::Context& coarse, OverlapMode mode,
                       int coarse_iterations)
    : fine_(fine),
      mode_(mode),
      fdm_(fine),
      coarse_solver_(fine, coarse, coarse_iterations) {
  // Force the lazy inverse-multiplicity builds now, on the main thread of
  // every rank: in task-parallel mode the coarse stream and the caller's
  // thread would otherwise race on the first-use construction (which itself
  // communicates).
  fine.gs->inverse_multiplicity();
  coarse.gs->inverse_multiplicity();
}

void HsmgPrecon::apply_fine(const RealVec& r, RealVec& z_fine) {
  fdm_.apply(r, z_fine);
  // Average the overlapping local solutions across element interfaces and
  // ranks (partition-of-unity weighting).
  fine_.gs->apply(z_fine, gs::GsOp::kAdd, fine_.prof);
  operators::vec_mul(fine_.dev(), fine_.gs->inverse_multiplicity(), z_fine);
}

void HsmgPrecon::timed(int track, const char* name,
                       const std::function<void()>& fn) {
  if (trace_) {
    trace_->timed(track, name, fn);
  } else {
    fn();
  }
}

void HsmgPrecon::apply(const RealVec& r, RealVec& z) {
  z.resize(r.size());
  z_coarse_.resize(r.size());
  z_fine_.resize(r.size());

  // Serial: coarse term, then fine smoother, on track 0. Task-parallel: the
  // coarse term on its own stream (track 1) while the caller's thread runs
  // the fine smoother — both include their own communication (coarse: CG
  // reductions; fine: gather-scatter), which is where the overlap pays off.
  // Each term is timed once, as its stream interval; the task-parallel
  // apply also opens the `overlapped` region that spans both.
  const bool overlap = mode_ == OverlapMode::kTaskParallel;
  const auto coarse = [this, &r](int track) {
    timed(track, "coarse", [&] { coarse_solver_.solve(r, z_coarse_); });
  };
  Profiler* prof = overlap ? fine_.prof : nullptr;
  if (prof) prof->push("overlapped");
  if (overlap) {
    coarse_stream_.submit([&coarse] { coarse(1); });
  } else {
    coarse(0);
  }
  try {
    timed(0, "schwarz", [&] { apply_fine(r, z_fine_); });
  } catch (...) {
    // The coarse task reads `r`, which may die once this unwinds: wait for
    // it. The fine term's error is the one reported; the task's is dropped.
    try {
      coarse_stream_.wait();
    } catch (...) {
    }
    throw;
  }
  coarse_stream_.wait();  // returns at once in serial mode
  if (prof) prof->pop();

  operators::vec_copy(fine_.dev(), z_fine_, z);
  operators::vec_add(fine_.dev(), z_coarse_, z);
}

}  // namespace felis::precon
