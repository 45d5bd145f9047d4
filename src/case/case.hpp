/// \file case.hpp
/// \brief The scenario interface: what every simulation case must
/// provide to run under any felis host (quickstart, the campaign scheduler,
/// the distributed driver).
///
/// A *case* is one point in the convection problem family — slab RBC,
/// rotating RBC, internally heated convection, the cylinder cell — packaged
/// behind a uniform contract so hosts never special-case the physics:
///
///  * initial conditions    — set_initial_conditions() seeds the fields;
///  * time stepping         — step() advances the case's FlowSolver and,
///    when telemetry is attached to it, brackets the step and records the
///    physical `case.*` observables on sampled steps (bitwise identical
///    fields with telemetry on or off);
///  * observables           — a name→value map of the case's physical
///    diagnostics (every case emits `nu_plate`, `nu_volume` and
///    `kinetic_energy`, so cross-case summaries like the validation matrix
///    stay uniform; see DESIGN.md §12 for the contract);
///  * parameters            — the case's defining numbers (Ra, Pr, Ro, ...)
///    for summary tables and telemetry metadata;
///  * checkpoint closure    — capture/restore round-trip the *complete*
///    integrator state, which every case keeps in its FlowSolver, so a
///    restored case continues bitwise identically to an uninterrupted run.
///
/// The builtin types are rows of the case table (registry.hpp), resolved by
/// the `case.type` parameter; nothing outside src/case/ names a concrete
/// case class (enforced by the `case-registry` lint rule).
#pragma once

#include <map>
#include <string>

#include "fluid/checkpoint_manager.hpp"
#include "fluid/flow_solver.hpp"

namespace felis::cases {

/// Physical diagnostics by name. std::map keeps the iteration order stable,
/// so telemetry streams and summary tables are deterministic.
using Observables = std::map<std::string, real_t>;

class Case {
 public:
  virtual ~Case() = default;
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;

  /// The `case.type` this instance was built as.
  const std::string& type() const { return type_; }

  /// Seed the fields (and apply the boundary conditions).
  virtual void set_initial_conditions() = 0;

  /// The underlying integrator. Hosts use it for field access, step counts
  /// and the checkpoint plumbing.
  fluid::FlowSolver& solver() { return solver_; }
  const fluid::FlowSolver& solver() const { return solver_; }

  /// Physical observables of the current state (collective: every rank must
  /// call). Contract: every case emits `nu_plate`, `nu_volume` and
  /// `kinetic_energy` (its own Nusselt analogues for non-RBC physics), so
  /// cross-case validation can compare like with like.
  virtual Observables observables() const = 0;

  /// Defining parameters (Ra, Pr, ...) — configuration, not state, so this
  /// is not collective.
  virtual Observables parameters() const = 0;

  /// Advance one solver step. With telemetry attached to the solver
  /// (FlowSolver::attach_telemetry) this brackets the step
  /// (begin_step/end_step) and sets the step record's `case.<observable>`
  /// values on sampled steps.
  fluid::StepInfo step();

  /// Checkpoint closure: the complete FlowSolver state (fields, histories,
  /// clock, projection basis, last-step stats), which is all the evolving
  /// state a case has.
  fluid::Checkpoint capture_checkpoint() const;
  void restore_checkpoint(const fluid::Checkpoint& checkpoint);

  /// Write a checkpoint through `manager` when the current step is due.
  bool maybe_checkpoint(fluid::CheckpointManager& manager) const;
  /// Recover the newest valid checkpoint after a crash (false = cold start).
  /// Collective above one rank: a crash can leave rank rotations at
  /// different steps, so every rank restores the newest step all of them
  /// hold (allreduce-min), or none restores.
  bool restore_latest(const fluid::CheckpointManager& manager);

 protected:
  /// A `type` case whose solver runs `flow` over `fine`/`coarse`, between
  /// plates `height` apart.
  Case(std::string type, const operators::Context& fine,
       const operators::Context& coarse, fluid::FlowConfig flow, real_t height);

  /// The fine context (the solver's) and the plate gap.
  const operators::Context& fine() const { return solver_.context(); }
  real_t height() const { return height_; }

 private:
  std::string type_;
  real_t height_;
  fluid::FlowSolver solver_;
};

/// Area integral of −∂f/∂z (and the face area) over the boundary faces
/// tagged `tag`, reduced across ranks (collective). The plate heat-flux
/// building block shared by the convection cases' Nusselt observables.
struct SurfaceFluxZ {
  real_t integral = 0;  ///< ∫ −∂f/∂z dA
  real_t area = 0;      ///< ∫ dA
};
SurfaceFluxZ surface_flux_z(const operators::Context& ctx, const RealVec& dfdz,
                            mesh::FaceTag tag);

}  // namespace felis::cases
