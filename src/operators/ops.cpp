#include "operators/ops.hpp"

#include <cmath>
#include <limits>

#include "device/workspace.hpp"

namespace felis::operators {

namespace {

/// Block length for dof-level reductions: the fixed association contract
/// (device::kReduceGrain) shared by every backend and thread count.
constexpr lidx_t kDofGrain = device::kReduceGrain;

lidx_t vec_len(const RealVec& x) { return static_cast<lidx_t>(x.size()); }

}  // namespace

real_t glsc3(const Context& ctx, const RealVec& x, const RealVec& y,
             const RealVec& w) {
  FELIS_CHECK(x.size() == y.size() && x.size() == w.size());
  real_t s = ctx.dev().reduce_sum(
      vec_len(x),
      [&](lidx_t begin, lidx_t end) {
        real_t acc = 0;
        for (lidx_t i = begin; i < end; ++i) {
          const usize u = static_cast<usize>(i);
          acc += x[u] * y[u] * w[u];
        }
        return acc;
      },
      kDofGrain);
  ctx.comm->allreduce(&s, 1, comm::ReduceOp::kSum);
  if (ctx.prof) {
    ctx.prof->add_flops(3.0 * static_cast<double>(x.size()));
    ctx.prof->add_bytes(3.0 * static_cast<double>(x.size() * sizeof(real_t)));
    ctx.prof->add_reduction();
  }
  return s;
}

real_t gdot(const Context& ctx, const RealVec& x, const RealVec& y) {
  return glsc3(ctx, x, y, ctx.gs->inverse_multiplicity());
}

void remove_mean(const Context& ctx, RealVec& x) {
  const RealVec& inv_mult = ctx.gs->inverse_multiplicity();
  const RealVec& mass = ctx.coef->mass;
  real_t sums[2] = {0, 0};
  ctx.dev().reduce_sum(
      vec_len(x), 2, sums,
      [&](lidx_t begin, lidx_t end, real_t* acc) {
        for (lidx_t i = begin; i < end; ++i) {
          const usize u = static_cast<usize>(i);
          const real_t bw = mass[u] * inv_mult[u];
          acc[0] += bw * x[u];
          acc[1] += bw;
        }
      },
      kDofGrain);
  ctx.comm->allreduce(sums, 2, comm::ReduceOp::kSum);
  if (ctx.prof) ctx.prof->add_reduction();
  vec_shift(ctx.dev(), -sums[0] / sums[1], x);
}

void remove_null_component(const Context& ctx, RealVec& b) {
  const RealVec& inv_mult = ctx.gs->inverse_multiplicity();
  real_t sums[2] = {0, 0};
  ctx.dev().reduce_sum(
      vec_len(b), 2, sums,
      [&](lidx_t begin, lidx_t end, real_t* acc) {
        for (lidx_t i = begin; i < end; ++i) {
          const usize u = static_cast<usize>(i);
          acc[0] += b[u] * inv_mult[u];
          acc[1] += inv_mult[u];
        }
      },
      kDofGrain);
  ctx.comm->allreduce(sums, 2, comm::ReduceOp::kSum);
  if (ctx.prof) ctx.prof->add_reduction();
  vec_shift(ctx.dev(), -sums[0] / sums[1], b);
}

void ax_helmholtz(const Context& ctx, const RealVec& u, RealVec& out, real_t h1,
                  real_t h2) {
  const field::Space& sp = *ctx.space;
  const field::Coef& coef = *ctx.coef;
  const int n = sp.n;
  const lidx_t npe = sp.nodes_per_element();
  const lidx_t nelem = ctx.num_elements();
  const field::TensorKernels& kern = ctx.kern();
  FELIS_CHECK(u.size() == ctx.num_dofs() && out.size() == ctx.num_dofs());

  ctx.dev().parallel_for_blocked(
      nelem, /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        const usize npeu = static_cast<usize>(npe);
        RealVec& ur = scratch.vec(npeu);
        RealVec& us = scratch.vec(npeu);
        RealVec& ut = scratch.vec(npeu);
        RealVec& wr = scratch.vec(npeu);
        RealVec& ws = scratch.vec(npeu);
        RealVec& wt = scratch.vec(npeu);
        RealVec& tmp = scratch.vec(npeu);
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base = static_cast<usize>(e) * npeu;
          const real_t* ue = u.data() + base;
          real_t* oe = out.data() + base;
          kern.grad(sp.d, ue, ur.data(), us.data(), ut.data(), n);
          for (lidx_t q = 0; q < npe; ++q) {
            const usize o = base + static_cast<usize>(q);
            const real_t g11 = coef.g[0][o], g12 = coef.g[1][o],
                         g13 = coef.g[2][o];
            const real_t g22 = coef.g[3][o], g23 = coef.g[4][o],
                         g33 = coef.g[5][o];
            const usize i = static_cast<usize>(q);
            wr[i] = g11 * ur[i] + g12 * us[i] + g13 * ut[i];
            ws[i] = g12 * ur[i] + g22 * us[i] + g23 * ut[i];
            wt[i] = g13 * ur[i] + g23 * us[i] + g33 * ut[i];
          }
          // out = h1 (D_rᵀ wr + D_sᵀ ws + D_tᵀ wt) + h2 B u.
          kern.axis0(sp.dt, wr.data(), tmp.data(), n, n);
          for (lidx_t q = 0; q < npe; ++q)
            oe[q] = h1 * tmp[static_cast<usize>(q)];
          kern.axis1(sp.dt, ws.data(), tmp.data(), n, n);
          for (lidx_t q = 0; q < npe; ++q)
            oe[q] += h1 * tmp[static_cast<usize>(q)];
          kern.axis2(sp.dt, wt.data(), tmp.data(), n, n);
          for (lidx_t q = 0; q < npe; ++q)
            oe[q] += h1 * tmp[static_cast<usize>(q)];
          if (h2 != 0.0) {
            for (lidx_t q = 0; q < npe; ++q)
              oe[q] += h2 * coef.mass[base + static_cast<usize>(q)] * ue[q];
          }
        }
      });
  if (ctx.prof) {
    // 6 tensor contractions of 2n⁴ flops each + ~18n³ pointwise per element.
    const double flops = static_cast<double>(nelem) *
                         (12.0 * std::pow(n, 4) + 18.0 * std::pow(n, 3));
    ctx.prof->add_flops(flops);
    ctx.prof->add_bytes(10.0 * static_cast<double>(ctx.num_dofs() * sizeof(real_t)));
  }
}

void grad(const Context& ctx, const RealVec& u, RealVec& dudx, RealVec& dudy,
          RealVec& dudz) {
  const field::Space& sp = *ctx.space;
  const field::Coef& coef = *ctx.coef;
  const int n = sp.n;
  const lidx_t npe = sp.nodes_per_element();
  const field::TensorKernels& kern = ctx.kern();
  ctx.dev().parallel_for_blocked(
      ctx.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        const usize npeu = static_cast<usize>(npe);
        RealVec& ur = scratch.vec(npeu);
        RealVec& us = scratch.vec(npeu);
        RealVec& ut = scratch.vec(npeu);
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base = static_cast<usize>(e) * npeu;
          kern.grad(sp.d, u.data() + base, ur.data(), us.data(), ut.data(), n);
          for (lidx_t q = 0; q < npe; ++q) {
            const usize o = base + static_cast<usize>(q);
            const usize i = static_cast<usize>(q);
            dudx[o] = coef.drdx[0][o] * ur[i] + coef.drdx[3][o] * us[i] +
                      coef.drdx[6][o] * ut[i];
            dudy[o] = coef.drdx[1][o] * ur[i] + coef.drdx[4][o] * us[i] +
                      coef.drdx[7][o] * ut[i];
            dudz[o] = coef.drdx[2][o] * ur[i] + coef.drdx[5][o] * us[i] +
                      coef.drdx[8][o] * ut[i];
          }
        }
      });
  if (ctx.prof)
    ctx.prof->add_flops(static_cast<double>(ctx.num_elements()) *
                        (6.0 * std::pow(n, 4) + 15.0 * std::pow(n, 3)));
}

void div_weak(const Context& ctx, const RealVec& ux, const RealVec& uy,
              const RealVec& uz, RealVec& out) {
  const field::Space& sp = *ctx.space;
  const field::Coef& coef = *ctx.coef;
  const int n = sp.n;
  const lidx_t npe = sp.nodes_per_element();
  const field::TensorKernels& kern = ctx.kern();
  const RealVec* u[3] = {&ux, &uy, &uz};
  ctx.dev().parallel_for_blocked(
      ctx.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        const usize npeu = static_cast<usize>(npe);
        RealVec& wr = scratch.vec(npeu);
        RealVec& ws = scratch.vec(npeu);
        RealVec& wt = scratch.vec(npeu);
        RealVec& tmp = scratch.vec(npeu);
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base = static_cast<usize>(e) * npeu;
          real_t* oe = out.data() + base;
          // wr_c(q) = B(q)·Σ_a drdx(c,a)(q)·u_a(q); then out = Σ_c D_cᵀ wr_c.
          for (lidx_t q = 0; q < npe; ++q) {
            const usize o = base + static_cast<usize>(q);
            const usize i = static_cast<usize>(q);
            real_t sr = 0, ss = 0, st = 0;
            for (int a = 0; a < 3; ++a) {
              const real_t ua = (*u[a])[o];
              sr += coef.drdx[static_cast<usize>(0 + a)][o] * ua;
              ss += coef.drdx[static_cast<usize>(3 + a)][o] * ua;
              st += coef.drdx[static_cast<usize>(6 + a)][o] * ua;
            }
            // mass = jac·w, so wr carries the full jac·w·drdx·u quadrature
            // factor.
            wr[i] = coef.mass[o] * sr;
            ws[i] = coef.mass[o] * ss;
            wt[i] = coef.mass[o] * st;
          }
          kern.axis0(sp.dt, wr.data(), tmp.data(), n, n);
          for (lidx_t q = 0; q < npe; ++q) oe[q] = tmp[static_cast<usize>(q)];
          kern.axis1(sp.dt, ws.data(), tmp.data(), n, n);
          for (lidx_t q = 0; q < npe; ++q) oe[q] += tmp[static_cast<usize>(q)];
          kern.axis2(sp.dt, wt.data(), tmp.data(), n, n);
          for (lidx_t q = 0; q < npe; ++q) oe[q] += tmp[static_cast<usize>(q)];
        }
      });
  if (ctx.prof)
    ctx.prof->add_flops(static_cast<double>(ctx.num_elements()) *
                        (6.0 * std::pow(n, 4) + 24.0 * std::pow(n, 3)));
}

void div_strong(const Context& ctx, const RealVec& ux, const RealVec& uy,
                const RealVec& uz, RealVec& out) {
  const usize nd = ctx.num_dofs();
  device::WorkspaceFrame scratch;
  RealVec& dx = scratch.vec(nd);
  RealVec& dy = scratch.vec(nd);
  RealVec& dz = scratch.vec(nd);
  grad(ctx, ux, dx, dy, dz);
  vec_copy(ctx.dev(), dx, out);
  grad(ctx, uy, dx, dy, dz);
  vec_add(ctx.dev(), dy, out);
  grad(ctx, uz, dx, dy, dz);
  vec_add(ctx.dev(), dz, out);
}

RealVec diag_helmholtz(const Context& ctx, real_t h1, real_t h2) {
  const field::Space& sp = *ctx.space;
  const field::Coef& coef = *ctx.coef;
  const int n = sp.n;
  const lidx_t npe = sp.nodes_per_element();
  RealVec diag(ctx.num_dofs(), 0.0);
  // Exact diagonal of the local stiffness:
  //   A_(ijk),(ijk) = Σ_m D(m,i)² g11(m,j,k) + Σ_m D(m,j)² g22(i,m,k)
  //                 + Σ_m D(m,k)² g33(i,j,m)
  //                 + 2 D(i,i)D(j,j) g12(i,j,k) + 2 D(i,i)D(k,k) g13(i,j,k)
  //                 + 2 D(j,j)D(k,k) g23(i,j,k).
  RealVec d2(static_cast<usize>(n) * static_cast<usize>(n));
  RealVec ddiag(static_cast<usize>(n));
  for (int m = 0; m < n; ++m)
    for (int i = 0; i < n; ++i)
      d2[static_cast<usize>(m * n + i)] = sp.d(m, i) * sp.d(m, i);
  for (int i = 0; i < n; ++i) ddiag[static_cast<usize>(i)] = sp.d(i, i);
  const auto at = [n](int i, int j, int k) {
    return static_cast<usize>(i + n * (j + n * k));
  };
  ctx.dev().parallel_for_blocked(
      ctx.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
          for (int k = 0; k < n; ++k)
            for (int j = 0; j < n; ++j)
              for (int i = 0; i < n; ++i) {
                real_t v = 0;
                for (int m = 0; m < n; ++m) {
                  v += d2[static_cast<usize>(m * n + i)] *
                       coef.g[0][base + at(m, j, k)];
                  v += d2[static_cast<usize>(m * n + j)] *
                       coef.g[3][base + at(i, m, k)];
                  v += d2[static_cast<usize>(m * n + k)] *
                       coef.g[5][base + at(i, j, m)];
                }
                const usize o = base + at(i, j, k);
                v += 2.0 * ddiag[static_cast<usize>(i)] *
                     ddiag[static_cast<usize>(j)] * coef.g[1][o];
                v += 2.0 * ddiag[static_cast<usize>(i)] *
                     ddiag[static_cast<usize>(k)] * coef.g[2][o];
                v += 2.0 * ddiag[static_cast<usize>(j)] *
                     ddiag[static_cast<usize>(k)] * coef.g[4][o];
                diag[o] = h1 * v + h2 * coef.mass[o];
              }
        }
      });
  ctx.gs->apply(diag, gs::GsOp::kAdd);
  return diag;
}

real_t cfl(const Context& ctx, const RealVec& ux, const RealVec& uy,
           const RealVec& uz, real_t dt) {
  const field::Space& sp = *ctx.space;
  const field::Coef& coef = *ctx.coef;
  const int n = sp.n;
  // Reference-space spacings around each GLL index.
  RealVec dr(static_cast<usize>(n));
  for (int i = 0; i < n; ++i) {
    real_t h = 2.0;
    if (i > 0) h = std::min(h, sp.gll_pts[static_cast<usize>(i)] -
                                   sp.gll_pts[static_cast<usize>(i - 1)]);
    if (i + 1 < n) h = std::min(h, sp.gll_pts[static_cast<usize>(i + 1)] -
                                       sp.gll_pts[static_cast<usize>(i)]);
    dr[static_cast<usize>(i)] = h;
  }
  const lidx_t npe = sp.nodes_per_element();
  // max is exact under any block partition; grain 1 = one partial per element.
  const real_t worst = ctx.dev().reduce_max(
      ctx.num_elements(),
      [&](lidx_t e0, lidx_t e1) {
        real_t local = 0;
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
          for (int k = 0; k < n; ++k)
            for (int j = 0; j < n; ++j)
              for (int i = 0; i < n; ++i) {
                const usize o = base + static_cast<usize>(i + n * (j + n * k));
                const real_t u[3] = {ux[o], uy[o], uz[o]};
                const int ref[3] = {i, j, k};
                real_t sum = 0;
                for (int a = 0; a < 3; ++a) {
                  real_t ua = 0;
                  for (int b = 0; b < 3; ++b)
                    ua += u[b] * coef.drdx[static_cast<usize>(3 * a + b)][o];
                  sum += std::abs(ua) / dr[static_cast<usize>(ref[a])];
                }
                // NaN loses every comparison and would vanish from the max
                // (here, in reduce_max and in the allreduce): a non-finite
                // node counts as +inf so the caller's CFL guard fires.
                if (!std::isfinite(sum))
                  sum = std::numeric_limits<real_t>::infinity();
                if (sum > local) local = sum;
              }
        }
        return local;
      },
      /*grain=*/1);
  real_t global = std::max(worst, real_t{0}) * dt;
  ctx.comm->allreduce(&global, 1, comm::ReduceOp::kMax);
  return global;
}

Advector::Advector(const Context& ctx) : ctx_(ctx) {
  const field::Space& sp = *ctx.space;
  const usize nd3 = static_cast<usize>(sp.dealias_nodes_per_element());
  const usize total_d = static_cast<usize>(ctx.num_elements()) * nd3;
  cr_.resize(total_d);
  cs_.resize(total_d);
  ct_.resize(total_d);
  FELIS_CHECK_MSG(!ctx.coef->wjac_d.empty(),
                  "Advector requires dealias geometric factors (build_coef "
                  "with dealias=true)");
}

void Advector::set_velocity(const RealVec& cx, const RealVec& cy,
                            const RealVec& cz) {
  const field::Space& sp = *ctx_.space;
  const field::Coef& coef = *ctx_.coef;
  const int n = sp.n, m = sp.nd;
  const lidx_t npe_d = sp.dealias_nodes_per_element();
  const field::TensorKernels& kern = ctx_.kern();
  const RealVec* c[3] = {&cx, &cy, &cz};
  ctx_.dev().parallel_for_blocked(
      ctx_.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        RealVec& cgl = scratch.vec(static_cast<usize>(npe_d));
        RealVec& work = scratch.vec(static_cast<usize>(sp.nd) *
                                    static_cast<usize>(sp.n) *
                                    static_cast<usize>(sp.nd + sp.n));
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base =
              static_cast<usize>(e) * static_cast<usize>(sp.nodes_per_element());
          const usize base_d = static_cast<usize>(e) * static_cast<usize>(npe_d);
          real_t* dst[3] = {cr_.data() + base_d, cs_.data() + base_d,
                            ct_.data() + base_d};
          for (lidx_t q = 0; q < npe_d; ++q)
            for (int a = 0; a < 3; ++a) dst[a][q] = 0;
          for (int b = 0; b < 3; ++b) {
            kern.interp(sp.interp, c[b]->data() + base, cgl.data(),
                        work.data(), n, m);
            for (lidx_t q = 0; q < npe_d; ++q) {
              const usize o = base_d + static_cast<usize>(q);
              const real_t cb = cgl[static_cast<usize>(q)] * coef.wjac_d[o];
              dst[0][q] += cb * coef.drdx_d[static_cast<usize>(0 + b)][o];
              dst[1][q] += cb * coef.drdx_d[static_cast<usize>(3 + b)][o];
              dst[2][q] += cb * coef.drdx_d[static_cast<usize>(6 + b)][o];
            }
          }
        }
      });
  if (ctx_.prof)
    ctx_.prof->add_flops(static_cast<double>(ctx_.num_elements()) *
                         field::advector_set_velocity_flops(sp.n, sp.nd));
}

void Advector::apply(const RealVec& u, RealVec& out, real_t sign) const {
  const field::Space& sp = *ctx_.space;
  const int n = sp.n, m = sp.nd;
  const lidx_t npe = sp.nodes_per_element();
  const lidx_t npe_d = sp.dealias_nodes_per_element();
  const field::TensorKernels& kern = ctx_.kern();
  ctx_.dev().parallel_for_blocked(
      ctx_.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        const usize nd3 = static_cast<usize>(npe_d);
        RealVec& t1 = scratch.vec(nd3);
        RealVec& t2 = scratch.vec(nd3);
        RealVec& s = scratch.vec(nd3);
        RealVec& ir = scratch.vec(static_cast<usize>(m) *
                                  static_cast<usize>(n) *
                                  static_cast<usize>(n));
        RealVec& ua = scratch.vec(static_cast<usize>(npe));
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
          const usize base_d = static_cast<usize>(e) * static_cast<usize>(npe_d);
          const real_t* ue = u.data() + base;
          // s(q) = Σ_a c_a(q) · (∂u/∂r_a)(q) on the Gauss grid; ∂u/∂r_a at
          // Gauss points via mixed tensor chains (derivative on axis a,
          // interpolation on the others). The s and t chains both start by
          // interpolating along r: that sweep runs once, into ir.
          kern.axis0(sp.interp, ue, ir.data(), n, n);
          // axis r: dgl ⊗ interp ⊗ interp.
          kern.axis0(sp.dgl, ue, t1.data(), n, n);
          kern.axis1(sp.interp, t1.data(), t2.data(), m, n);
          kern.axis2(sp.interp, t2.data(), t1.data(), m, m);
          for (lidx_t q = 0; q < npe_d; ++q)
            s[static_cast<usize>(q)] =
                cr_[base_d + static_cast<usize>(q)] * t1[static_cast<usize>(q)];
          // axis s.
          kern.axis1(sp.dgl, ir.data(), t2.data(), m, n);
          kern.axis2(sp.interp, t2.data(), t1.data(), m, m);
          for (lidx_t q = 0; q < npe_d; ++q)
            s[static_cast<usize>(q)] +=
                cs_[base_d + static_cast<usize>(q)] * t1[static_cast<usize>(q)];
          // axis t.
          kern.axis1(sp.interp, ir.data(), t2.data(), m, n);
          kern.axis2(sp.dgl, t2.data(), t1.data(), m, m);
          for (lidx_t q = 0; q < npe_d; ++q)
            s[static_cast<usize>(q)] +=
                ct_[base_d + static_cast<usize>(q)] * t1[static_cast<usize>(q)];
          // Project back: out += sign · interpᵀ s (Galerkin weak form).
          kern.axis0(sp.interp_t, s.data(), t1.data(), m, m);
          kern.axis1(sp.interp_t, t1.data(), t2.data(), n, m);
          kern.axis2(sp.interp_t, t2.data(), ua.data(), n, n);
          real_t* oe = out.data() + base;
          for (lidx_t q = 0; q < npe; ++q)
            oe[q] += sign * ua[static_cast<usize>(q)];
        }
      });
  if (ctx_.prof)
    ctx_.prof->add_flops(static_cast<double>(ctx_.num_elements()) *
                         field::advector_apply_flops(n, m));
}

// ---- backend-dispatched vector kernels --------------------------------------

void vec_copy(device::Backend& dev, const RealVec& x, RealVec& y) {
  FELIS_ASSERT(x.size() == y.size());
  dev.parallel_for_blocked(vec_len(x), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] =
                                   x[static_cast<usize>(i)];
                           });
}

void vec_fill(device::Backend& dev, real_t a, RealVec& y) {
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] = a;
                           });
}

void vec_scale(device::Backend& dev, real_t a, RealVec& y) {
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] *= a;
                           });
}

void vec_shift(device::Backend& dev, real_t a, RealVec& y) {
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] += a;
                           });
}

void vec_axpy(device::Backend& dev, real_t a, const RealVec& x, RealVec& y) {
  FELIS_ASSERT(x.size() == y.size());
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] +=
                                   a * x[static_cast<usize>(i)];
                           });
}

void vec_xpay(device::Backend& dev, const RealVec& x, real_t a, RealVec& y) {
  FELIS_ASSERT(x.size() == y.size());
  dev.parallel_for_blocked(
      vec_len(y), 0, [&](lidx_t begin, lidx_t end, int /*worker*/) {
        for (lidx_t i = begin; i < end; ++i) {
          const usize u = static_cast<usize>(i);
          y[u] = x[u] + a * y[u];
        }
      });
}

void vec_scaled(device::Backend& dev, real_t a, const RealVec& x, RealVec& y) {
  FELIS_ASSERT(x.size() == y.size());
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] =
                                   a * x[static_cast<usize>(i)];
                           });
}

void vec_sub(device::Backend& dev, const RealVec& x, const RealVec& y,
             RealVec& z) {
  FELIS_ASSERT(x.size() == y.size() && x.size() == z.size());
  dev.parallel_for_blocked(
      vec_len(z), 0, [&](lidx_t begin, lidx_t end, int /*worker*/) {
        for (lidx_t i = begin; i < end; ++i) {
          const usize u = static_cast<usize>(i);
          z[u] = x[u] - y[u];
        }
      });
}

void vec_add(device::Backend& dev, const RealVec& x, RealVec& y) {
  FELIS_ASSERT(x.size() == y.size());
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] +=
                                   x[static_cast<usize>(i)];
                           });
}

void vec_mul(device::Backend& dev, const RealVec& x, RealVec& y) {
  FELIS_ASSERT(x.size() == y.size());
  dev.parallel_for_blocked(vec_len(y), 0,
                           [&](lidx_t begin, lidx_t end, int /*worker*/) {
                             for (lidx_t i = begin; i < end; ++i)
                               y[static_cast<usize>(i)] *=
                                   x[static_cast<usize>(i)];
                           });
}

}  // namespace felis::operators
