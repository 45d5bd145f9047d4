/// \file ihc.hpp
/// \brief Internally-heated convection (IHC): a uniformly heated layer
/// between two cold plates, the classic Goluskin configuration and the
/// first non-RBC physics in the case table.
///
/// Non-dimensionalization: lengths by the gap H, temperature by the
/// conduction scale Δ = QH²/κ, time by the free-fall time — so the solver
/// runs with the familiar ν = √(Pr/Ra), κ = 1/√(Ra·Pr) and a uniform
/// scalar source q = κ/H². Both plates are held at T = 0; the diffusive
/// equilibrium is T(z) = z(H−z)/(2H²) with mean ⟨T⟩ = 1/12. The case reads
/// the RBC config (case.Ra is the heating Rayleigh number Ra_Q) and seeds
/// through the RBC seed loop, rbc::seed, over that diffusive profile. The
/// layer does not rotate: case.Ro does not apply to it.
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

#include "case/rbc.hpp"

namespace felis::ihc {

class InternallyHeatedSimulation : public cases::Case {
 public:
  /// The RBC flow of `config` without rotation, with both plates cold and
  /// the uniform source; `height` is the plate gap.
  InternallyHeatedSimulation(const operators::Context& fine,
                             const operators::Context& coarse,
                             const rbc::RbcConfig& config, real_t height = 1.0,
                             std::string type = "ihc");

  /// Diffusive profile + seeded perturbation; applies the BCs.
  void set_initial_conditions() override;

  cases::Observables observables() const override;
  /// Ra (the heating Rayleigh number) and Pr.
  cases::Observables parameters() const override;

 private:
  rbc::RbcConfig config_;
};

}  // namespace felis::ihc
