#include "field/space.hpp"

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "quadrature/basis.hpp"

namespace felis::field {

namespace {
Op1D to_op(const linalg::Matrix& m) {
  Op1D op;
  op.rows = m.rows();
  op.cols = m.cols();
  op.a.resize(static_cast<usize>(op.rows) * static_cast<usize>(op.cols));
  for (lidx_t i = 0; i < m.rows(); ++i)
    for (lidx_t j = 0; j < m.cols(); ++j)
      op.a[static_cast<usize>(i) * static_cast<usize>(op.cols) + static_cast<usize>(j)] =
          m(i, j);
  return op;
}
}  // namespace

Space Space::make(int degree, bool dealias) {
  FELIS_CHECK_MSG(degree >= 1, "Space requires degree >= 1");
  Space sp;
  sp.degree = degree;
  sp.n = degree + 1;
  // ⌈3n/2⌉ Gauss points per the 3/2 dealiasing rule; the aliased variant
  // evaluates the convective products on the GLL grid itself.
  sp.nd = dealias ? dealias_points(sp.n) : sp.n;

  const quadrature::QuadRule gll = quadrature::gauss_lobatto_legendre(sp.n);
  const quadrature::QuadRule gl = dealias
                                      ? quadrature::gauss_legendre(sp.nd)
                                      : gll;
  sp.gll_pts = gll.points;
  sp.gll_wts = gll.weights;
  sp.gl_pts = gl.points;
  sp.gl_wts = gl.weights;

  const linalg::Matrix d = quadrature::diff_matrix(gll.points);
  const linalg::Matrix j = quadrature::interp_matrix(gll.points, gl.points);
  sp.d = to_op(d);
  sp.dt = to_op(d.transposed());
  sp.interp = to_op(j);
  sp.interp_t = to_op(j.transposed());
  sp.dgl = to_op(linalg::matmul(j, d));
  return sp;
}

}  // namespace felis::field
