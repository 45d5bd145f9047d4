/// \file space.hpp
/// \brief The spectral-element function space: GLL basis of degree N plus the
/// Gauss (dealiasing) companion grid and all 1-D operators between them.
#pragma once

#include "field/tensor.hpp"
#include "quadrature/legendre.hpp"

namespace felis::field {

/// Gauss points per direction of the dealias grid for n GLL nodes: ⌈3n/2⌉,
/// the 3/2 rule. The kernel table specializes the n×m transfer shapes on it.
constexpr int dealias_points(int n) { return (3 * n + 1) / 2; }

/// Flops per element of the dealiased advector (operators::Advector) with n
/// GLL and m Gauss points per direction: the one definition its Profiler
/// charge, the perfmodel and the kernel bench share. set_velocity runs three
/// m×n interpolation chains (2mn³ + 2m²n² + 2m³n each) and 7 flops per
/// Gauss point and direction for the contravariant fluxes.
constexpr double advector_set_velocity_flops(double n, double m) {
  return 3 * (2 * m * n * n * n + 2 * m * m * n * n + 2 * m * m * m * n) +
         21 * m * m * m;
}
/// apply runs eleven sweeps — three of 2mn³, four each of 2m²n² and 2m³n
/// (the s and t chains share the r interpolation) — plus the three flux
/// products (5m³) and the signed update (2n³).
constexpr double advector_apply_flops(double n, double m) {
  return 6 * m * n * n * n + 8 * m * m * n * n + 8 * m * m * m * n +
         5 * m * m * m + 2 * n * n * n;
}

struct Space {
  int degree = 0;  ///< polynomial degree N (paper production value: 7)
  int n = 0;       ///< nodes per direction, N+1
  int nd = 0;      ///< dealias (Gauss) points per direction, ⌈3n/2⌉

  RealVec gll_pts, gll_wts;  ///< solution grid
  RealVec gl_pts, gl_wts;    ///< dealias grid

  Op1D d;         ///< n×n: nodal derivative at GLL points
  Op1D dt;        ///< n×n: transpose of d
  Op1D interp;    ///< nd×n: GLL → GL interpolation
  Op1D interp_t;  ///< n×nd: transpose
  Op1D dgl;       ///< nd×n: derivative evaluated at GL points (interp ∘ d)

  lidx_t nodes_per_element() const { return static_cast<lidx_t>(n) * n * n; }
  lidx_t dealias_nodes_per_element() const {
    return static_cast<lidx_t>(nd) * nd * nd;
  }

  /// Build the space for the given degree; the dealias grid follows the
  /// 3/2-rule (overintegration) of §6 of the paper. Passing dealias=false
  /// collocates the advection on the GLL grid instead (nd = n) — the
  /// aliased variant used by the dealiasing ablation bench.
  static Space make(int degree, bool dealias = true);
};

}  // namespace felis::field
