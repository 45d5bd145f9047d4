/// \file tensor_simd.hpp
/// \brief Vectorized tensor-product kernel variants and the fixed per-order
/// kernel table (`TensorKernels::for_order`) the solver dispatches through.
///
/// Every variant here is *bitwise identical* to its reference kernel in
/// tensor.hpp by construction: for each output value the sequence of
/// floating-point operations (zero-initialize, then add products in ascending
/// contraction index) is exactly the reference sequence, and vector lanes map
/// only to independent outputs — the contraction (reduction) dimension is
/// never split across lanes, because `omp simd reduction` licenses
/// reassociation and would break the repo-wide bitwise-equivalence contract
/// (serial vs OpenMP at any thread count, table vs reference, restart
/// exactness). This is why the table may pick a different variant per order
/// without perturbing a single bit of the solution.
///
/// Variant families per kernel:
///  * `ref`      — the scalar loops from tensor.hpp;
///  * `simd`     — `#pragma omp simd` over contiguous output lanes, with the
///                 small operator pre-transposed onto the stack where the
///                 reference access pattern is strided (axis0);
///  * `fixedN`   — fully specialized for the common production orders
///                 (n = 4, 6, 8, 10, 12; paper production degree 7 → n = 8):
///                 compile-time trip counts let the compiler unroll and keep
///                 the operator row in registers. Fixed variants verify the
///                 runtime shape and delegate to `simd` when it does not
///                 match (rectangular interpolation operators reuse the same
///                 entry points).
///
/// `TensorKernels::for_order(n)` picks one variant per kernel from the order
/// alone (DESIGN.md §13 holds the measurements behind the table), and
/// operators::Context carries the table into every hot-path caller
/// (felis-lint's `raw-tensor-call` rule keeps direct apply_axis* calls out of
/// the rest of src/).
#pragma once

#include "field/tensor.hpp"

// Vector-lane hint for the variant loops. `omp simd` (honoured under
// -fopenmp/-fopenmp-simd) never reassociates here: it only ever annotates
// loops whose lanes are independent outputs.
#define FELIS_TENSOR_SIMD _Pragma("omp simd")

namespace felis::field {

/// Stack budget for the pre-transposed operator copies: operators up to
/// 32×32 (degree 31) take the vectorized path, anything larger falls back to
/// the reference kernel.
inline constexpr int kMaxSimdOpDim = 32;

// ---- axis0 ------------------------------------------------------------------

/// apply_axis0 with the operator pre-transposed onto the stack so the inner
/// accumulation streams contiguous lanes: lanes are the r outputs of one
/// column, the contraction index stays a sequential outer loop.
inline void apply_axis0_simd(const Op1D& op, const real_t* u, real_t* out,
                             int d1, int d2) {
  const int r = op.rows, c = op.cols;
  if (r > kMaxSimdOpDim || c > kMaxSimdOpDim) {
    apply_axis0(op, u, out, d1, d2);
    return;
  }
  detail::check_op(op, d1, d2);
  real_t at[kMaxSimdOpDim * kMaxSimdOpDim];
  for (int i = 0; i < r; ++i)
    for (int a = 0; a < c; ++a)
      at[a * r + i] = op.a[static_cast<usize>(i) * static_cast<usize>(c) +
                           static_cast<usize>(a)];
  const lidx_t ncol = static_cast<lidx_t>(d1) * static_cast<lidx_t>(d2);
  real_t t[kMaxSimdOpDim];
  for (lidx_t m = 0; m < ncol; ++m) {
    const real_t* uin = u + static_cast<usize>(c) * static_cast<usize>(m);
    real_t* uout = out + static_cast<usize>(r) * static_cast<usize>(m);
    FELIS_TENSOR_SIMD
    for (int i = 0; i < r; ++i) t[i] = 0;
    for (int a = 0; a < c; ++a) {
      const real_t ua = uin[a];
      const real_t* col = at + a * r;
      FELIS_TENSOR_SIMD
      for (int i = 0; i < r; ++i) t[i] += col[i] * ua;
    }
    FELIS_TENSOR_SIMD
    for (int i = 0; i < r; ++i) uout[i] = t[i];
  }
}

/// apply_axis0 specialized to an N×N operator: compile-time trip counts, the
/// transposed operator and the accumulator strip live on the stack. Delegates
/// to the generic simd variant when the runtime shape is not N×N.
template <int N>
inline void apply_axis0_fixed(const Op1D& op, const real_t* u, real_t* out,
                              int d1, int d2) {
  if (op.rows != N || op.cols != N) {
    apply_axis0_simd(op, u, out, d1, d2);
    return;
  }
  detail::check_op(op, d1, d2);
  real_t at[N * N];
  for (int i = 0; i < N; ++i)
    for (int a = 0; a < N; ++a)
      at[a * N + i] = op.a[static_cast<usize>(i * N + a)];
  const lidx_t ncol = static_cast<lidx_t>(d1) * static_cast<lidx_t>(d2);
  real_t t[N];
  for (lidx_t m = 0; m < ncol; ++m) {
    const real_t* uin = u + static_cast<usize>(N) * static_cast<usize>(m);
    real_t* uout = out + static_cast<usize>(N) * static_cast<usize>(m);
    FELIS_TENSOR_SIMD
    for (int i = 0; i < N; ++i) t[i] = 0;
    for (int a = 0; a < N; ++a) {
      const real_t ua = uin[a];
      const real_t* col = at + a * N;
      FELIS_TENSOR_SIMD
      for (int i = 0; i < N; ++i) t[i] += col[i] * ua;
    }
    FELIS_TENSOR_SIMD
    for (int i = 0; i < N; ++i) uout[i] = t[i];
  }
}

// ---- axis1 ------------------------------------------------------------------

/// apply_axis1 with explicit lane hints: the reference loop order already
/// streams the contiguous d0 lanes, the pragma just guarantees the compiler
/// vectorizes them.
inline void apply_axis1_simd(const Op1D& op, const real_t* u, real_t* out,
                             int d0, int d2) {
  detail::check_op(op, d0, d2);
  const int r = op.rows, c = op.cols;
  for (int k = 0; k < d2; ++k) {
    const real_t* uk = u + static_cast<usize>(d0) * static_cast<usize>(c) *
                               static_cast<usize>(k);
    real_t* ok = out + static_cast<usize>(d0) * static_cast<usize>(r) *
                           static_cast<usize>(k);
    for (int j = 0; j < r; ++j) {
      real_t* oj = ok + static_cast<usize>(d0) * static_cast<usize>(j);
      FELIS_TENSOR_SIMD
      for (int i = 0; i < d0; ++i) oj[i] = 0;
      const real_t* row =
          op.a.data() + static_cast<usize>(j) * static_cast<usize>(c);
      for (int a = 0; a < c; ++a) {
        const real_t w = row[a];
        const real_t* ua = uk + static_cast<usize>(d0) * static_cast<usize>(a);
        FELIS_TENSOR_SIMD
        for (int i = 0; i < d0; ++i) oj[i] += w * ua[i];
      }
    }
  }
}

/// apply_axis1 specialized to an N×N operator applied to N-long lanes
/// (the square element case). Delegates to simd otherwise.
template <int N>
inline void apply_axis1_fixed(const Op1D& op, const real_t* u, real_t* out,
                              int d0, int d2) {
  if (op.rows != N || op.cols != N || d0 != N) {
    apply_axis1_simd(op, u, out, d0, d2);
    return;
  }
  detail::check_op(op, d0, d2);
  for (int k = 0; k < d2; ++k) {
    const real_t* uk = u + static_cast<usize>(N) * static_cast<usize>(N) *
                               static_cast<usize>(k);
    real_t* ok = out + static_cast<usize>(N) * static_cast<usize>(N) *
                           static_cast<usize>(k);
    for (int j = 0; j < N; ++j) {
      real_t* oj = ok + static_cast<usize>(N) * static_cast<usize>(j);
      FELIS_TENSOR_SIMD
      for (int i = 0; i < N; ++i) oj[i] = 0;
      const real_t* row = op.a.data() + static_cast<usize>(j * N);
      for (int a = 0; a < N; ++a) {
        const real_t w = row[a];
        const real_t* ua = uk + static_cast<usize>(N) * static_cast<usize>(a);
        FELIS_TENSOR_SIMD
        for (int i = 0; i < N; ++i) oj[i] += w * ua[i];
      }
    }
  }
}

// ---- axis2 ------------------------------------------------------------------

/// apply_axis2 with explicit lane hints over the contiguous plane.
inline void apply_axis2_simd(const Op1D& op, const real_t* u, real_t* out,
                             int d0, int d1) {
  detail::check_op(op, d0, d1);
  const int r = op.rows, c = op.cols;
  const usize plane = static_cast<usize>(d0) * static_cast<usize>(d1);
  for (int k = 0; k < r; ++k) {
    real_t* ok = out + plane * static_cast<usize>(k);
    FELIS_TENSOR_SIMD
    for (usize i = 0; i < plane; ++i) ok[i] = 0;
    const real_t* row =
        op.a.data() + static_cast<usize>(k) * static_cast<usize>(c);
    for (int a = 0; a < c; ++a) {
      const real_t w = row[a];
      const real_t* ua = u + plane * static_cast<usize>(a);
      FELIS_TENSOR_SIMD
      for (usize i = 0; i < plane; ++i) ok[i] += w * ua[i];
    }
  }
}

/// apply_axis2 specialized to an N×N operator over an N×N plane. Delegates
/// to simd otherwise.
template <int N>
inline void apply_axis2_fixed(const Op1D& op, const real_t* u, real_t* out,
                              int d0, int d1) {
  if (op.rows != N || op.cols != N || d0 != N || d1 != N) {
    apply_axis2_simd(op, u, out, d0, d1);
    return;
  }
  detail::check_op(op, d0, d1);
  constexpr usize plane = static_cast<usize>(N) * static_cast<usize>(N);
  for (int k = 0; k < N; ++k) {
    real_t* ok = out + plane * static_cast<usize>(k);
    FELIS_TENSOR_SIMD
    for (usize i = 0; i < plane; ++i) ok[i] = 0;
    const real_t* row = op.a.data() + static_cast<usize>(k * N);
    for (int a = 0; a < N; ++a) {
      const real_t w = row[a];
      const real_t* ua = u + plane * static_cast<usize>(a);
      FELIS_TENSOR_SIMD
      for (usize i = 0; i < plane; ++i) ok[i] += w * ua[i];
    }
  }
}

// ---- composite kernels ------------------------------------------------------

template <int N>
inline void grad_ref_fixed(const Op1D& d, const real_t* u, real_t* ur,
                           real_t* us, real_t* ut, int n) {
  FELIS_ASSERT_MSG(d.rows == n && d.cols == n,
                   "grad_ref: operator is " << d.rows << "x" << d.cols
                                            << ", element order is " << n);
  apply_axis0_fixed<N>(d, u, ur, n, n);
  apply_axis1_fixed<N>(d, u, us, n, n);
  apply_axis2_fixed<N>(d, u, ut, n, n);
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
  ///
  ///   n                | axis0  | axis1  | axis2  | grad   | interp
  ///   4                | fixed4 | fixed4 | fixed4 | fixed4 | ref
  ///   6, 8, 10, 12     | fixedN | fixedN | ref    | fixedN | ref
  ///   any other n      | ref    | ref    | ref    | ref    | ref
  ///
  /// fixedN where it won every timing; the reference elsewhere, where the
  /// other variants won only by noise or only at orders no workload runs
  /// (DESIGN.md §13 holds the measurements).
  static TensorKernels for_order(int n);
};

namespace detail {
/// The n = N row of the table at n = 6, 8, 10, 12: fixed axis0/axis1/grad.
template <int N>
TensorKernels fixed_kernels() {
  TensorKernels k;
  k.axis0 = &apply_axis0_fixed<N>;
  k.axis1 = &apply_axis1_fixed<N>;
  k.grad = &grad_ref_fixed<N>;
  return k;
}
}  // namespace detail

inline TensorKernels TensorKernels::for_order(int n) {
  switch (n) {
    case 4: {
      TensorKernels k = detail::fixed_kernels<4>();
      k.axis2 = &apply_axis2_fixed<4>;
      return k;
    }
    case 6: return detail::fixed_kernels<6>();
    case 8: return detail::fixed_kernels<8>();
    case 10: return detail::fixed_kernels<10>();
    case 12: return detail::fixed_kernels<12>();
    default: return TensorKernels{};
  }
}

}  // namespace felis::field
