/// \file ihc.hpp
/// \brief Internally-heated convection (IHC): a uniformly heated layer
/// between two cold plates, the classic Goluskin configuration and the
/// first non-RBC physics served by the case registry.
///
/// Non-dimensionalization: lengths by the gap H, temperature by the
/// conduction scale Δ = QH²/κ, time by the free-fall time — so the solver
/// runs with the familiar ν = √(Pr/Ra), κ = 1/√(Ra·Pr) and a uniform
/// scalar source q = κ/H². Both plates are held at T = 0; the diffusive
/// equilibrium is T(z) = z(H−z)/(2H²) with mean ⟨T⟩ = 1/12.
///
/// Observables (kept name-compatible with the RBC contract so cross-case
/// tooling works unchanged):
///  * nu_volume — (1/12)/⟨T⟩: how much convection suppresses the interior
///    temperature relative to conduction (≥ 1, = 1 at conduction);
///  * nu_plate  — total plate out-flux / injected power q·V: the heat
///    balance, 1 in any statistically steady state. Its agreement with
///    nu_volume at conduction (both exactly 1) is the validation-matrix
///    check; away from onset it reports thermal equilibration.
#pragma once

#include <memory>

#include "case/case.hpp"
#include "common/params.hpp"

namespace felis::ihc {

struct IhcConfig {
  real_t rayleigh = 1e5;  ///< heating Rayleigh number Ra_Q
  real_t prandtl = 1.0;
  real_t dt = 1e-3;
  fluid::FlowConfig flow;  ///< solver knobs; ν, κ, dt, BCs are overwritten

  /// Amplitude of the initial perturbation on the diffusive profile.
  real_t perturbation = 1e-2;
  real_t perturbation_lx = 1.0;  ///< see rbc::RbcConfig — periodic seam rule
  real_t perturbation_ly = 1.0;
  unsigned seed = 7;
};

class InternallyHeatedSimulation : public cases::Case {
 public:
  InternallyHeatedSimulation(const operators::Context& fine,
                             const operators::Context& coarse,
                             const IhcConfig& config, real_t height = 1.0);

  /// Diffusive profile z(H−z)/(2H²) + perturbation; applies the BCs.
  void set_initial_conditions() override;

  fluid::FlowSolver& solver() override { return *solver_; }
  const fluid::FlowSolver& solver() const override { return *solver_; }

  cases::Observables observables() const override;
  cases::Observables parameters() const override;

 private:
  operators::Context fine_;
  IhcConfig config_;
  real_t height_;
  std::unique_ptr<fluid::FlowSolver> solver_;
};

/// Build an IhcConfig from a parsed case file. Same key set as the RBC
/// reader (case.Ra, case.Pr, case.dt, case.perturbation, case.seed,
/// case.perturbation_lx/_ly, fluid.*); missing keys keep their defaults.
IhcConfig config_from_params(const ParamMap& params);

}  // namespace felis::ihc
