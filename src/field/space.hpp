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
