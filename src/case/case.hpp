/// \file case.hpp
/// \brief The scenario-plugin interface: what every simulation case must
/// provide to run under any felis host (quickstart, the campaign scheduler,
/// the distributed driver).
///
/// A *case* is one point in the convection problem family — slab RBC,
/// rotating RBC, internally heated convection, the cylinder cell — packaged
/// behind a uniform contract so hosts never special-case the physics:
///
///  * initial conditions    — set_initial_conditions() seeds the fields;
///  * time stepping         — step() advances the underlying FlowSolver and,
///    when telemetry is attached to it, brackets the step and charges the
///    physical `case.*` observables on sampled steps (bitwise identical
///    fields with telemetry on or off);
///  * observables           — a name→value map of the case's physical
///    diagnostics (every case emits `nu_plate`, `nu_volume` and
///    `kinetic_energy`, so cross-case summaries like the validation matrix
///    stay uniform; see DESIGN.md §12 for the contract);
///  * parameters            — the case's defining numbers (Ra, Pr, Ro, ...)
///    for summary tables and telemetry metadata;
///  * checkpoint closure    — capture/restore must round-trip the *complete*
///    integrator state so a restored case continues bitwise identically to
///    an uninterrupted run (the PR 3 exact-restart guarantee is per-case: a
///    case type whose state is fully held by its FlowSolver inherits the
///    default implementation; one with extra evolving state must override
///    capture_checkpoint()/restore_checkpoint() to include it).
///
/// Concrete cases register a factory in cases::Registry (registry.hpp) and
/// are resolved by the `case.type` parameter; nothing outside src/case/
/// names a concrete case class (enforced by the `case-registry` lint rule).
#pragma once

#include <map>
#include <string>

#include "fluid/checkpoint_manager.hpp"
#include "fluid/flow_solver.hpp"

namespace felis::cases {

/// Physical diagnostics by name. std::map keeps the iteration order stable,
/// so telemetry streams and CSV summaries are deterministic.
using Observables = std::map<std::string, real_t>;

class Case {
 public:
  explicit Case(std::string type) : type_(std::move(type)) {}
  virtual ~Case() = default;
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;

  /// The registered `case.type` this instance was built as.
  const std::string& type() const { return type_; }

  /// Seed the fields (and apply the boundary conditions).
  virtual void set_initial_conditions() = 0;

  /// The underlying integrator. Hosts use it for field access, step counts
  /// and the checkpoint plumbing; the default capture/restore close over it.
  virtual fluid::FlowSolver& solver() = 0;
  virtual const fluid::FlowSolver& solver() const = 0;

  /// Physical observables of the current state (collective: every rank must
  /// call). Contract: every case emits `nu_plate`, `nu_volume` and
  /// `kinetic_energy` (its own Nusselt analogues for non-RBC physics), so
  /// cross-case validation can compare like with like.
  virtual Observables observables() const = 0;

  /// Defining parameters (Ra, Pr, ...) — configuration, not state, so this
  /// is not collective.
  virtual Observables parameters() const = 0;

  /// Advance one step. With telemetry attached to the solver
  /// (FlowSolver::attach_telemetry) this brackets the step
  /// (begin_step/end_step) and charges `case.<observable>` gauges on sampled
  /// steps; without telemetry it is exactly advance(). Final — override
  /// advance() instead, so the telemetry contract holds for every case type.
  fluid::StepInfo step();

  /// Checkpoint closure. The defaults capture/restore the complete
  /// FlowSolver state (fields, histories, clock, projection basis, last-step
  /// stats) — sufficient for any case whose evolving state lives entirely in
  /// the solver. Cases with extra state must override both.
  virtual fluid::Checkpoint capture_checkpoint() const;
  virtual void restore_checkpoint(const fluid::Checkpoint& checkpoint);

  /// Write a checkpoint through `manager` when the current step is due.
  bool maybe_checkpoint(fluid::CheckpointManager& manager) const;
  /// Recover the newest valid checkpoint after a crash (false = cold start).
  /// Collective above one rank: a crash can leave rank rotations at
  /// different steps, so every rank restores the newest step all of them
  /// hold (allreduce-min), or none restores.
  bool restore_latest(const fluid::CheckpointManager& manager);

 protected:
  /// The raw state advance — solver().step() unless the case interleaves
  /// extra per-step work (in-situ capture, moving forcing, ...).
  virtual fluid::StepInfo advance() { return solver().step(); }

 private:
  std::string type_;
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
