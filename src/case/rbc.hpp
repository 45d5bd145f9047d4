/// \file rbc.hpp
/// \brief The Rayleigh–Bénard convection case: setup, initial conditions and
/// the physical diagnostics of the paper's scientific target.
///
/// The cell is heated from below (T=1) and cooled from the top (T=0); the
/// side wall (cylinder) is adiabatic no-slip. Parameters follow paper eq. 1:
/// free-fall units with ν = √(Pr/Ra) and κ = 1/√(Ra·Pr).
///
/// Diagnostics: the Nusselt number measured two independent ways —
///  * plate heat flux:  Nu = ⟨−∂T/∂z⟩_plate (area-weighted, both plates);
///  * volume average:   Nu = 1 + √(Ra·Pr)·⟨u_z T⟩_V —
/// their agreement in a statistically steady state is a standard
/// verification of RBC codes; Nu(Ra) is the paper's headline science
/// question (classical Nu~Ra^{1/3} vs ultimate Nu~Ra^{1/2}).
///
/// Variants served by the same class through RbcConfig (rows of the case
/// table, see registry.hpp):
///  * rossby > 0 — rotating RBC about e_z: adds the Coriolis force
///    −(1/Ro) ẑ×u (free-fall units), the `rbc_rot` case;
///  * y_invariant — quasi-2D fast path: the seed perturbation drops all
///    y-modes so the (deterministic) dynamics stay y-invariant on the thin
///    periodic box, the cheap `rbc2d` campaign-testing case.
/// Internally heated convection (ihc.hpp) reads the same config and seeds
/// through the same loop, rbc::seed, over its own base profile.
#pragma once

#include <cmath>

#include "case/case.hpp"
#include "common/params.hpp"

namespace felis::rbc {

struct RbcConfig {
  real_t rayleigh = 1e5;
  real_t prandtl = 1.0;  ///< paper: Pr = 1
  real_t dt = 1e-3;
  /// Rossby number for rotation about e_z; 0 = non-rotating. Maps to
  /// FlowConfig::coriolis = 1/Ro.
  real_t rossby = 0.0;
  /// Seed only x-modes (quasi-2D slab fast path, see file comment). Row
  /// data of the case table, not a case key: `rbc2d` sets it.
  bool y_invariant = false;
  fluid::FlowConfig flow = {};  ///< solver knobs; ν, κ, dt are overwritten

  /// Amplitude of the initial temperature perturbation on the conduction
  /// profile (0 = pure conduction).
  real_t perturbation = 1e-2;
  /// Horizontal periods of the perturbation modes. For periodic boxes these
  /// MUST equal the box extents (otherwise the seed field is discontinuous
  /// across the periodic seam and misses the unstable wavelength); for
  /// enclosed cells any O(domain-size) value seeds fine.
  real_t perturbation_lx = 1.0;
  real_t perturbation_ly = 1.0;
  unsigned seed = 7;
};

/// Physical diagnostics of the current state.
struct RbcDiagnostics {
  real_t nusselt_bottom = 0;   ///< ⟨−∂T/∂z⟩ on the hot plate
  real_t nusselt_top = 0;      ///< ⟨−∂T/∂z⟩ on the cold plate
  real_t nusselt_volume = 0;   ///< 1 + √(RaPr)·⟨u_z T⟩
  real_t kinetic_energy = 0;   ///< ½⟨|u|²⟩
  real_t temperature_mean = 0;
};

/// The free-fall flow of `config`: its solver knobs with ν, κ, dt, unit
/// buoyancy, the Coriolis parameter 1/Ro and the temperature equation
/// (bottom plate T = 1, top T = 0: the FlowConfig default).
fluid::FlowConfig flow_config(const RbcConfig& config);

/// The temperature a seed perturbs, at height fraction z/H.
using Profile = real_t (*)(real_t z);

/// The one seed loop of the convection cases: T = `profile` plus `config`'s
/// deterministic perturbation (vanishing at both plates, so the Dirichlet
/// data is exact; x-modes only when `config.y_invariant`), zero velocity,
/// then the solver's boundary conditions. `height`: the plate gap.
void seed(fluid::FlowSolver& solver, const RbcConfig& config, real_t height,
          Profile profile);

class RbcSimulation : public cases::Case {
 public:
  /// `fine`/`coarse`: contexts over the RBC mesh (box or cylinder) whose
  /// bottom/top faces are tagged kBottom/kTop. `height`: plate separation
  /// (non-dimensionally 1 in the paper). `type`: the case type this instance
  /// represents (rbc / rbc2d / rbc_rot / rbc_cyl).
  RbcSimulation(const operators::Context& fine, const operators::Context& coarse,
                const RbcConfig& config, real_t height = 1.0,
                std::string type = "rbc");

  /// Conduction profile 1 − z/H + seeded perturbation; applies the BCs.
  void set_initial_conditions() override;

  /// nu_plate (mean of both plates), nu_volume, kinetic_energy,
  /// temperature_mean. Collective.
  cases::Observables observables() const override;
  /// Ra, Pr (and Ro when rotating).
  cases::Observables parameters() const override;

  RbcDiagnostics diagnostics() const;

 private:
  RbcConfig config_;
};

/// Build an RbcConfig from a parsed case file (see ParamMap::parse): the one
/// reader of the case.* physics keys (declared in registry.hpp) and, through
/// fluid::apply_flow_params, of the fluid.* solver keys. Missing keys keep
/// their value in `defaults`, which also carry the row-only y_invariant.
RbcConfig config_from_params(const ParamMap& params, RbcConfig defaults = {});

/// Free-fall viscosity √(Pr/Ra) and diffusivity 1/√(Ra·Pr).
inline real_t rbc_viscosity(real_t ra, real_t pr) { return std::sqrt(pr / ra); }
inline real_t rbc_conductivity(real_t ra, real_t pr) {
  return 1.0 / std::sqrt(ra * pr);
}

}  // namespace felis::rbc
