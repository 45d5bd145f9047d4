// Ablation: 3/2-rule dealiasing (overintegration, §6).
//
// Runs a marginally-resolved convection case with (a) the 3/2-rule Gauss
// grid and (b) aliased collocation of the convective products on the GLL
// grid. Aliasing injects spurious energy at the grid scale; the dealiased
// run stays clean. This is why production spectral-element DNS (Nek5000,
// Neko, felis) always overintegrates the advection operator.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_utils.hpp"
#include "case/rbc.hpp"
#include "operators/ops.hpp"
#include "precon/coarse.hpp"
#include "quadrature/basis.hpp"

using namespace felis;

namespace {

struct Outcome {
  int steps_completed = 0;
  real_t final_ke = 0;
  real_t max_cfl = 0;
  bool blew_up = false;
};

Outcome run_case(bool dealias) {
  comm::SelfComm comm;
  mesh::BoxMeshConfig box;
  box.nx = box.ny = 3;
  box.nz = 3;
  box.lx = box.ly = 2.0;
  box.periodic_x = box.periodic_y = true;
  const mesh::HexMesh mesh = make_box_mesh(box);
  // Deliberately marginal resolution at a vigorous Ra.
  auto fine = operators::make_rank_setup(mesh, 4, comm, true, dealias);
  auto coarse = precon::make_coarse_setup(mesh, comm);
  rbc::RbcConfig config;
  config.rayleigh = 2e6;
  config.dt = 6e-3;
  config.perturbation = 5e-2;
  config.perturbation_lx = box.lx;
  config.perturbation_ly = box.ly;
  config.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
  config.flow.max_cfl = 2.5;
  rbc::RbcSimulation sim(fine.ctx(), coarse.ctx(), config);
  sim.set_initial_conditions();

  Outcome out;
  try {
    for (int s = 0; s < 700; ++s) {
      const fluid::StepInfo info = sim.step();
      out.steps_completed = s + 1;
      out.max_cfl = std::max(out.max_cfl, info.cfl);
      out.final_ke = sim.diagnostics().kinetic_energy;
      if (!std::isfinite(out.final_ke)) {
        out.blew_up = true;
        break;
      }
    }
  } catch (const Error&) {
    out.blew_up = true;  // CFL guard tripped: the run went unstable
  }
  return out;
}

}  // namespace

namespace {

/// Quadrature accuracy of the advection moments: (φ_i, (c·∇)u) involves a
/// degree ~3N integrand; GLL collocation (exact to 2N-1) misintegrates it —
/// aliasing — while the 3/2-rule Gauss grid (exact to 3N+2) captures it.
/// Reference: the same operator on a doubly-fine Gauss grid.
void quadrature_error_study() {
  std::printf("A) relative error of the weak advection moments vs an "
              "over-integrated reference\n");
  std::printf("   (TG advecting field, full-degree polynomial u):\n\n");
  std::printf("   %4s %22s %22s %10s\n", "N", "3/2-rule Gauss grid",
              "aliased (GLL)", "overhead");
  bench::print_rule(66);
  comm::SelfComm comm;
  for (const int degree : {3, 4, 5, 7}) {
    mesh::BoxMeshConfig box;
    box.nx = box.ny = box.nz = 3;
    box.lx = box.ly = box.lz = 2 * M_PI;
    box.periodic_x = box.periodic_y = box.periodic_z = true;
    const mesh::HexMesh mesh = make_box_mesh(box);

    // Reference space: Gauss grid with 2n points per direction.
    RealVec reference;
    double err[2] = {0, 0};
    double cost[2] = {0, 0};
    for (int variant = 0; variant < 3; ++variant) {
      operators::RankSetup setup;
      if (variant == 0) {
        // Over-integrated reference: build a space whose Gauss grid has 2n
        // points (always alias-free for this integrand).
        auto locals = mesh::distribute_mesh(mesh, degree, 1);
        setup.lmesh = std::move(locals[0]);
        setup.space = field::Space::make(degree);
        setup.space.nd = 2 * setup.space.n;
        const quadrature::QuadRule gl =
            quadrature::gauss_legendre(setup.space.nd);
        setup.space.gl_pts = gl.points;
        setup.space.gl_wts = gl.weights;
        const linalg::Matrix d = quadrature::diff_matrix(setup.space.gll_pts);
        const linalg::Matrix j =
            quadrature::interp_matrix(setup.space.gll_pts, gl.points);
        const auto to_op = [](const linalg::Matrix& m) {
          field::Op1D op;
          op.rows = m.rows();
          op.cols = m.cols();
          op.a.resize(static_cast<usize>(op.rows) * static_cast<usize>(op.cols));
          for (lidx_t r = 0; r < m.rows(); ++r)
            for (lidx_t c = 0; c < m.cols(); ++c)
              op.a[static_cast<usize>(r) * static_cast<usize>(op.cols) +
                   static_cast<usize>(c)] = m(r, c);
          return op;
        };
        setup.space.interp = to_op(j);
        setup.space.interp_t = to_op(j.transposed());
        setup.space.dgl = to_op(linalg::matmul(j, d));
        setup.coef = field::build_coef(setup.lmesh, setup.space, true);
        setup.gs = std::make_unique<gs::GatherScatter>(setup.lmesh, comm);
        setup.prof = std::make_unique<Profiler>();
        setup.comm = &comm;
      } else {
        setup = operators::make_rank_setup(mesh, degree, comm, true,
                                           /*three_halves=*/variant == 1);
      }
      const operators::Context ctx = setup.ctx();
      RealVec cx(ctx.num_dofs()), cy(ctx.num_dofs()), cz(ctx.num_dofs(), 0.0);
      RealVec u(ctx.num_dofs());
      for (usize i = 0; i < u.size(); ++i) {
        const real_t x = ctx.coef->x[i], y = ctx.coef->y[i];
        cx[i] = std::sin(x) * std::cos(y);
        cy[i] = -std::cos(x) * std::sin(y);
        u[i] = std::sin(x + 0.5 * y) + std::cos(2 * x);
      }
      operators::Advector adv(ctx);
      adv.set_velocity(cx, cy, cz);
      RealVec conv(ctx.num_dofs(), 0.0);
      const auto t0 = std::chrono::steady_clock::now();
      adv.apply(u, conv, 1.0);
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (variant == 0) {
        reference = conv;
      } else {
        real_t emax = 0, scale = 0;
        for (usize i = 0; i < conv.size(); ++i) {
          emax = std::max(emax, std::abs(conv[i] - reference[i]));
          scale = std::max(scale, std::abs(reference[i]));
        }
        err[variant - 1] = emax / scale;
        cost[variant - 1] = dt;
      }
    }
    std::printf("   %4d %22.3e %22.3e %9.2fx\n", degree, err[0], err[1],
                cost[0] / std::max(cost[1], 1e-12));
  }
  bench::print_rule(66);
  std::printf("\n   => the 3/2-rule moments match the over-integrated "
              "reference orders of magnitude\n      more closely than aliased "
              "GLL collocation, at ~1.5-2.3x kernel cost - the\n      "
              "aliasing error is what pollutes the grid scale in marginal "
              "long runs.\n\n");
}

}  // namespace

int main() {
  quadrature_error_study();
  std::printf("B) marginally resolved RBC at Ra=2e6, N=4 (long-run "
              "behaviour):\n\n");
  std::printf("%-26s %10s %14s %10s %10s\n", "advection evaluation", "steps",
              "final KE", "max CFL", "outcome");
  bench::print_rule(76);
  for (const bool dealias : {true, false}) {
    const Outcome o = run_case(dealias);
    std::printf("%-26s %10d %14.4e %10.3f %10s\n",
                dealias ? "3/2-rule Gauss grid" : "aliased (GLL collocation)",
                o.steps_completed, o.final_ke, o.max_cfl,
                o.blew_up ? "UNSTABLE" : "stable");
  }
  bench::print_rule(76);
  std::printf("\n=> the dealiased operator conserves energy in the discrete "
              "advection (see\n   test_operators.EnergyConservationPeriodicBox)"
              "; aliased collocation feeds the\n   unresolved tail and "
              "destabilizes marginal runs — \"we perform dealiasing\n   "
              "(overintegration) according to the 3/2-rule\" (§6).\n");
  return 0;
}
