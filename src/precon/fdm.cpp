#include "precon/fdm.hpp"

#include <cmath>

#include "device/workspace.hpp"
#include "field/kernel_cost.hpp"
#include "linalg/decomp.hpp"

namespace felis::precon {

namespace {

/// 1-D reference stiffness Â_ij = Σ_q w_q D(q,i) D(q,j) and lumped mass on
/// GLL points of the space.
void reference_1d(const field::Space& sp, linalg::Matrix& a, linalg::Matrix& b) {
  const int n = sp.n;
  a = linalg::Matrix(n, n);
  b = linalg::Matrix(n, n);
  for (int i = 0; i < n; ++i) {
    b(i, i) = sp.gll_wts[static_cast<usize>(i)];
    for (int j = 0; j < n; ++j) {
      real_t s = 0;
      for (int q = 0; q < n; ++q)
        s += sp.gll_wts[static_cast<usize>(q)] * sp.d(q, i) * sp.d(q, j);
      a(i, j) = s;
    }
  }
}

field::Op1D to_op(const linalg::Matrix& m) {
  field::Op1D op;
  op.rows = m.rows();
  op.cols = m.cols();
  op.a.resize(static_cast<usize>(op.rows) * static_cast<usize>(op.cols));
  for (lidx_t i = 0; i < m.rows(); ++i)
    for (lidx_t j = 0; j < m.cols(); ++j)
      op.a[static_cast<usize>(i) * static_cast<usize>(op.cols) +
           static_cast<usize>(j)] = m(i, j);
  return op;
}

}  // namespace

FdmSolver::FdmSolver(const operators::Context& ctx) : ctx_(ctx) {
  const field::Space& sp = *ctx.space;
  const mesh::LocalMesh& lm = *ctx.lmesh;
  const int n = sp.n;
  const lidx_t npe = sp.nodes_per_element();
  const lidx_t nelem = ctx.num_elements();

  linalg::Matrix a_ref, b_ref;
  reference_1d(sp, a_ref, b_ref);
  // Reference ghost spacing: the first interior GLL gap (the neighbour's
  // wall-adjacent spacing under the average-geometry approximation).
  const real_t h_ref = sp.gll_pts[1] - sp.gll_pts[0];

  s_.resize(static_cast<usize>(3 * nelem));
  st_.resize(static_cast<usize>(3 * nelem));
  lambda_.resize(static_cast<usize>(3 * nelem));

  const auto at = [n](int i, int j, int k) {
    return static_cast<usize>(i + n * (j + n * k));
  };

  // Each element's eigendecompositions are independent; dispatch the setup
  // loop too (it is O(nelem·n³) with dense eigensolves — not cheap).
  ctx.dev().parallel_for_blocked(nelem, /*grain=*/0, [&](lidx_t e0, lidx_t e1,
                                                         int /*worker*/) {
  for (lidx_t e = e0; e < e1; ++e) {
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    // Average extent of the element along each reference direction.
    real_t length[3] = {0, 0, 0};
    int count = 0;
    for (int b = 0; b < n; ++b) {
      for (int c = 0; c < n; ++c) {
        const usize pr0 = base + at(0, b, c), pr1 = base + at(n - 1, b, c);
        const usize ps0 = base + at(b, 0, c), ps1 = base + at(b, n - 1, c);
        const usize pt0 = base + at(b, c, 0), pt1 = base + at(b, c, n - 1);
        const auto dist = [&](usize p, usize q) {
          const real_t dx = ctx_.coef->x[q] - ctx_.coef->x[p];
          const real_t dy = ctx_.coef->y[q] - ctx_.coef->y[p];
          const real_t dz = ctx_.coef->z[q] - ctx_.coef->z[p];
          return std::sqrt(dx * dx + dy * dy + dz * dz);
        };
        length[0] += dist(pr0, pr1);
        length[1] += dist(ps0, ps1);
        length[2] += dist(pt0, pt1);
        ++count;
      }
    }
    for (real_t& l : length) l /= count;

    for (int dir = 0; dir < 3; ++dir) {
      const real_t len = std::max(length[dir], real_t(1e-12));
      linalg::Matrix a = a_ref;  // scaled below
      linalg::Matrix b = b_ref;
      const real_t a_scale = 2.0 / len;
      const real_t b_scale = len / 2.0;
      for (lidx_t i = 0; i < a.rows(); ++i)
        for (lidx_t j = 0; j < a.cols(); ++j) {
          a(i, j) *= a_scale;
          b(i, j) *= b_scale;
        }
      // Overlap coupling: a Dirichlet-terminated linear element of the
      // neighbour's near-wall spacing on each *interior* end.
      const real_t h_g = b_scale * h_ref;
      // Faces for direction dir: 2*dir (low end), 2*dir+1 (high end).
      const mesh::FaceTag lo = lm.face_tags[static_cast<usize>(e)][static_cast<usize>(2 * dir)];
      const mesh::FaceTag hi = lm.face_tags[static_cast<usize>(e)][static_cast<usize>(2 * dir + 1)];
      const bool lo_interior =
          lo == mesh::FaceTag::kInterior || lo == mesh::FaceTag::kPeriodic;
      const bool hi_interior =
          hi == mesh::FaceTag::kInterior || hi == mesh::FaceTag::kPeriodic;
      if (lo_interior) {
        a(0, 0) += 1.0 / h_g;
        b(0, 0) += h_g / 3.0;
      }
      if (hi_interior) {
        a(n - 1, n - 1) += 1.0 / h_g;
        b(n - 1, n - 1) += h_g / 3.0;
      }
      const linalg::EigenSym eig = linalg::eig_sym_generalized(a, b);
      s_[static_cast<usize>(3 * e + dir)] = to_op(eig.vectors);
      st_[static_cast<usize>(3 * e + dir)] = to_op(eig.vectors.transposed());
      lambda_[static_cast<usize>(3 * e + dir)] = eig.values;
    }
  }
  });
}

void FdmSolver::apply(const RealVec& r, RealVec& z) const {
  const field::Space& sp = *ctx_.space;
  const int n = sp.n;
  const lidx_t npe = sp.nodes_per_element();
  const field::TensorKernels& kern = ctx_.kern();
  FELIS_CHECK(r.size() == ctx_.num_dofs());
  z.resize(r.size());

  ctx_.dev().parallel_for_blocked(ctx_.num_elements(), /*grain=*/0,
                                  [&](lidx_t e0, lidx_t e1, int /*worker*/) {
  device::WorkspaceFrame scratch;
  RealVec& t1 = scratch.vec(static_cast<usize>(npe));
  RealVec& t2 = scratch.vec(static_cast<usize>(npe));
  for (lidx_t e = e0; e < e1; ++e) {
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    const field::Op1D& sr = s_[static_cast<usize>(3 * e + 0)];
    const field::Op1D& ss = s_[static_cast<usize>(3 * e + 1)];
    const field::Op1D& st = s_[static_cast<usize>(3 * e + 2)];
    const field::Op1D& str = st_[static_cast<usize>(3 * e + 0)];
    const field::Op1D& sts = st_[static_cast<usize>(3 * e + 1)];
    const field::Op1D& stt = st_[static_cast<usize>(3 * e + 2)];
    const RealVec& lr = lambda_[static_cast<usize>(3 * e + 0)];
    const RealVec& ls = lambda_[static_cast<usize>(3 * e + 1)];
    const RealVec& lt = lambda_[static_cast<usize>(3 * e + 2)];
    // Forward transform Sᵀ r.
    kern.axis0(str, r.data() + base, t1.data(), n, n);
    kern.axis1(sts, t1.data(), t2.data(), n, n);
    kern.axis2(stt, t2.data(), t1.data(), n, n);
    // Diagonal solve with zero-mode guard (pure-Neumann elements).
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          const real_t lam = lr[static_cast<usize>(i)] + ls[static_cast<usize>(j)] +
                             lt[static_cast<usize>(k)];
          real_t& v = t1[static_cast<usize>(i + n * (j + n * k))];
          v = (std::abs(lam) > 1e-10) ? v / lam : 0.0;
        }
    // Backward transform S.
    kern.axis0(sr, t1.data(), t2.data(), n, n);
    kern.axis1(ss, t2.data(), t1.data(), n, n);
    kern.axis2(st, t1.data(), z.data() + base, n, n);
  }
  });
  if (ctx_.prof) ctx_.prof->add(field::cost::fdm_apply(n, ctx_.num_elements()));
}

}  // namespace felis::precon
