/// \file tensor_simd.hpp
/// \brief Shape-specialized tensor-product kernels and the fixed per-order
/// kernel table (`TensorKernels::for_order`) the solver dispatches through.
///
/// Every kernel here is *bitwise identical* to its reference kernel in
/// tensor.hpp by construction: for each output value the sequence of
/// floating-point operations (zero-initialize, then add products in ascending
/// contraction index) is exactly the reference sequence, and vector lanes map
/// only to independent outputs — the contraction (reduction) dimension is
/// never split across lanes, because `omp simd reduction` licenses
/// reassociation and would break the repo-wide bitwise-equivalence contract
/// (serial vs OpenMP at any thread count, table vs reference, restart
/// exactness). This is why the table may route any shape to any kernel
/// without perturbing a single bit of the solution. The build compiles every
/// felis target with -ffp-contract=off, so no variant may fuse a·b+c into an
/// FMA the reference does not also fuse.
///
/// One kernel family: the operator shape R×C and the lane extents are
/// template parameters, so every trip count is a compile-time constant and
/// the accumulators live in registers. The solver sweeps an R×C operator
/// along all three axes of a C×C×C block (C×C×C → R×C×C → R×R×C → R×R×R),
/// so each shape has one set of extents per axis. At n nodes per direction
/// (n = 4, 6, 8, 10, 12; paper production degree 7 → n = 8) the table routes
/// these shapes, with m = dealias_points(n), to the kernels:
///  * n×n — `ax_helmholtz`, `grad`, `div_weak`, FDM, the modal transform;
///  * m×n and n×m — the dealiased `Advector` and `interp3`;
///  * 2×n and n×2 — the coarse-grid restriction and prolongation;
/// and every other shape to the reference kernel.
///
/// operators::Context carries the table into every hot-path caller
/// (felis-lint's `raw-tensor-call` rule keeps direct apply_axis* calls out of
/// the rest of src/).
#pragma once

#include "field/space.hpp"
#include "field/tensor.hpp"

// Vector-lane hint for the kernel loops. `omp simd` (honoured under
// -fopenmp/-fopenmp-simd) never reassociates here: it only ever annotates
// loops whose lanes are independent outputs.
#define FELIS_TENSOR_SIMD _Pragma("omp simd")

namespace felis::field {

namespace detail {

/// Output lanes one register block carries through a whole contraction: a
/// strip of plane lanes (axis1, axis2) or the rows of axis0 columns.
inline constexpr int kStrip = 8;

/// Two-way register blocking (two output rows, or two columns, per pass)
/// pays once an extent reaches this length; below it one row or column per
/// pass was as fast or faster (GCC 12, baseline x86-64, DESIGN.md §13).
inline constexpr int kLongExtent = 10;

/// Rows KB of a W-lane strip: out[k·P + p] = Σ_c a[k·C + c] · u[c·P + p]
/// for k < KB, p < W. Each output accumulates in registers over the whole
/// contraction and is stored once.
template <int C, int P, int W, int KB>
inline void contract_rows(const real_t* a, const real_t* u, real_t* out) {
  real_t acc[KB][W] = {};
  for (int c = 0; c < C; ++c) {
    const real_t* uc = u + c * P;
    for (int q = 0; q < KB; ++q) {
      const real_t w = a[q * C + c];
      FELIS_TENSOR_SIMD
      for (int p = 0; p < W; ++p) acc[q][p] += w * uc[p];
    }
  }
  for (int q = 0; q < KB; ++q) {
    FELIS_TENSOR_SIMD
    for (int p = 0; p < W; ++p) out[q * P + p] = acc[q][p];
  }
}

/// All R output rows of one W-lane strip, two rows per pass for a long
/// contraction or a narrow strip.
template <int R, int C, int P, int W>
inline void contract_strip(const real_t* a, const real_t* u, real_t* out) {
  constexpr int KB = C >= kLongExtent || W < kStrip ? 2 : 1;
  constexpr int full = R - R % KB;
  for (int k = 0; k < full; k += KB)
    contract_rows<C, P, W, KB>(a + k * C, u, out + k * P);
  if constexpr (R % KB != 0)
    contract_rows<C, P, W, 1>(a + full * C, u, out + full * P);
}

/// out[k·P + p] = Σ_c a[k·C + c] · u[c·P + p] for k < R, p < P: the axis2
/// sweep (P = d0·d1) and, slab by slab, the axis1 sweep (P = d0), in strips
/// of kStrip lanes.
template <int R, int C, int P>
inline void contract_planes(const real_t* a, const real_t* u, real_t* out) {
  constexpr int full = P - P % kStrip;
  for (int p0 = 0; p0 < full; p0 += kStrip)
    contract_strip<R, C, P, kStrip>(a, u + p0, out + p0);
  if constexpr (P % kStrip != 0)
    contract_strip<R, C, P, P % kStrip>(a, u + full, out + full);
}

/// W columns of the axis0 sweep at once: out[w·R + i] = Σ_c at[c·R + i] ·
/// u[w·C + c], with `at` the operator transposed so the R output lanes of a
/// column are contiguous.
template <int R, int C, int W>
inline void axis0_columns(const real_t* at, const real_t* u, real_t* out) {
  real_t acc[W][R] = {};
  for (int c = 0; c < C; ++c)
    for (int w = 0; w < W; ++w) {
      const real_t x = u[w * C + c];
      FELIS_TENSOR_SIMD
      for (int i = 0; i < R; ++i) acc[w][i] += at[c * R + i] * x;
    }
  for (int w = 0; w < W; ++w) {
    FELIS_TENSOR_SIMD
    for (int i = 0; i < R; ++i) out[w * R + i] = acc[w][i];
  }
}

}  // namespace detail

/// apply_axis0 for an R×C operator on a C×D1×D2 block. Narrow operators
/// (R < kStrip) take several columns per pass so the accumulators fill a
/// strip; long ones two columns per pass.
template <int R, int C, int D1, int D2>
inline void axis0_kernel(const real_t* a, const real_t* u, real_t* out) {
  real_t at[C * R];
  for (int i = 0; i < R; ++i)
    for (int c = 0; c < C; ++c) at[c * R + i] = a[i * C + c];
  constexpr int ncol = D1 * D2;
  constexpr int W = R < detail::kStrip ? detail::kStrip / R
                    : R >= detail::kLongExtent || C >= detail::kLongExtent ? 2
                                                                           : 1;
  constexpr int full = ncol - ncol % W;
  for (int m = 0; m < full; m += W)
    detail::axis0_columns<R, C, W>(at, u + m * C, out + m * R);
  if constexpr (ncol % W != 0)
    detail::axis0_columns<R, C, ncol % W>(at, u + full * C, out + full * R);
}

/// apply_axis1 for an R×C operator on a D0×C×D2 block.
template <int R, int C, int D0, int D2>
inline void axis1_kernel(const real_t* a, const real_t* u, real_t* out) {
  for (int k = 0; k < D2; ++k)
    detail::contract_planes<R, C, D0>(a, u + k * D0 * C, out + k * D0 * R);
}

/// apply_axis2 for an R×C operator on a D0×D1×C block.
template <int R, int C, int D0, int D1>
inline void axis2_kernel(const real_t* a, const real_t* u, real_t* out) {
  detail::contract_planes<R, C, D0 * D1>(a, u, out);
}

namespace detail {

/// Runs the kernel for the R×C operator when the call is that shape's sweep
/// along `Axis` (trailing extents (C, C), (R, C) or (R, R) for axis 0, 1, 2);
/// false otherwise.
template <int Axis, int R, int C>
inline bool apply_shaped(const Op1D& op, const real_t* u, real_t* out, int da,
                         int db) {
  constexpr int DA = Axis == 0 ? C : R;
  constexpr int DB = Axis == 2 ? R : C;
  if (op.rows != R || op.cols != C || da != DA || db != DB) return false;
  if constexpr (Axis == 0)
    axis0_kernel<R, C, DA, DB>(op.a.data(), u, out);
  else if constexpr (Axis == 1)
    axis1_kernel<R, C, DA, DB>(op.a.data(), u, out);
  else
    axis2_kernel<R, C, DA, DB>(op.a.data(), u, out);
  return true;
}

}  // namespace detail

/// The `Axis` slot of the table at n = N: the n×n, m×n, n×m, 2×n and n×2
/// sweeps take their kernels, every other call the reference kernel.
template <int Axis, int N>
inline void apply_axis_order(const Op1D& op, const real_t* u, real_t* out,
                             int da, int db) {
  constexpr int M = dealias_points(N);
  detail::check_op(op, da, db);
  if (detail::apply_shaped<Axis, N, N>(op, u, out, da, db) ||
      detail::apply_shaped<Axis, M, N>(op, u, out, da, db) ||
      detail::apply_shaped<Axis, N, M>(op, u, out, da, db) ||
      detail::apply_shaped<Axis, 2, N>(op, u, out, da, db) ||
      detail::apply_shaped<Axis, N, 2>(op, u, out, da, db))
    return;
  if constexpr (Axis == 0)
    apply_axis0(op, u, out, da, db);
  else if constexpr (Axis == 1)
    apply_axis1(op, u, out, da, db);
  else
    apply_axis2(op, u, out, da, db);
}

/// grad_ref at n = N: the three n×n sweeps.
template <int N>
inline void grad_order(const Op1D& d, const real_t* u, real_t* ur, real_t* us,
                       real_t* ut, int n) {
  FELIS_ASSERT_MSG(d.rows == n && d.cols == n && n == N,
                   "grad_ref: operator is " << d.rows << "x" << d.cols
                                            << ", element order is " << n);
  axis0_kernel<N, N, N, N>(d.a.data(), u, ur);
  axis1_kernel<N, N, N, N>(d.a.data(), u, us);
  axis2_kernel<N, N, N, N>(d.a.data(), u, ut);
}

/// interp3 at n = N: the m×n chain through the slot's axis kernels.
template <int N>
inline void interp3_order(const Op1D& op, const real_t* u, real_t* out,
                          real_t* work, int n, int m) {
  FELIS_ASSERT_MSG(op.rows == m && op.cols == n,
                   "interp3: operator is " << op.rows << "x" << op.cols
                                           << ", expected " << m << "x" << n);
  // n×n×n → m×n×n → m×m×n → m×m×m, as interp3.
  real_t* t1 = work;
  real_t* t2 = work + static_cast<usize>(m) * static_cast<usize>(n) *
                          static_cast<usize>(n);
  apply_axis_order<0, N>(op, u, t1, n, n);
  apply_axis_order<1, N>(op, t1, t2, m, n);
  apply_axis_order<2, N>(op, t2, out, m, m);
}

// ---- dispatch table ---------------------------------------------------------

using AxisFn = void (*)(const Op1D&, const real_t*, real_t*, int, int);
using GradFn = void (*)(const Op1D&, const real_t*, real_t*, real_t*, real_t*,
                        int);
using InterpFn = void (*)(const Op1D&, const real_t*, real_t*, real_t*, int,
                          int);

/// The tensor-kernel dispatch table operators::Context carries: one function
/// pointer per kernel. Default-constructed it points at the reference
/// kernels.
struct TensorKernels {
  AxisFn axis0 = &apply_axis0;
  AxisFn axis1 = &apply_axis1;
  AxisFn axis2 = &apply_axis2;
  GradFn grad = &grad_ref;
  InterpFn interp = &interp3;

  /// Shared immutable reference table (the fallback for null Context
  /// pointers).
  static const TensorKernels& reference() {
    static const TensorKernels table;
    return table;
  }

  /// The table for n nodes per direction (degree + 1), a pure function of n:
  /// at n = 4, 6, 8, 10, 12 every slot is the order-N router above; at any
  /// other n every slot is the reference kernel (DESIGN.md §13).
  static TensorKernels for_order(int n);
};

namespace detail {
template <int N>
TensorKernels order_kernels() {
  return {&apply_axis_order<0, N>, &apply_axis_order<1, N>,
          &apply_axis_order<2, N>, &grad_order<N>, &interp3_order<N>};
}
}  // namespace detail

inline TensorKernels TensorKernels::for_order(int n) {
  switch (n) {
    case 4: return detail::order_kernels<4>();
    case 6: return detail::order_kernels<6>();
    case 8: return detail::order_kernels<8>();
    case 10: return detail::order_kernels<10>();
    case 12: return detail::order_kernels<12>();
    default: return TensorKernels{};
  }
}

}  // namespace felis::field
