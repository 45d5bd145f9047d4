// Fig. 1 reproduction: the canonical RBC cell — flow heated from below and
// cooled from above in a cylindrical container, with cross-section AA close
// to the heated bottom wall showing velocity magnitude and temperature.
//
// Runs the real cylinder DNS (laptop-scale Ra) and verifies/reports the
// qualitative structure of Fig. 1: hot fluid near the bottom plate, plumes
// carrying heat upward (positive w-T correlation), and side-wall confinement.
// examples/rbc_cylinder renders the full cross-sections; this bench prints
// the quantitative signature.
#include <cmath>
#include <cstdio>

#include "bench_utils.hpp"

using namespace felis;

int main() {
  std::printf("Fig. 1 — canonical RBC in a cylindrical cell (qualitative "
              "signature)\n\n");
  // The registered cylinder cell at its default mesh (2×2 core, 2 rings,
  // 6 layers: D/H = 1, 120 elements).
  const real_t rayleigh = 2e5;
  ParamMap params;
  params.set("case.type", "rbc_cyl");
  params.set("case.Ra", rayleigh);
  params.set("case.dt", 1.5e-2);
  params.set("case.perturbation", 2e-2);
  params.set("mesh.degree", 5);
  comm::SelfComm comm;
  const std::unique_ptr<cases::CaseSetup> setup =
      cases::build_case(cases::resolve_case(params), params, comm);
  cases::Case& sim = *setup->sim;
  sim.set_initial_conditions();

  int steps = 0;
  for (; steps < 500; ++steps) {
    sim.step();
    if (sim.observables().at("kinetic_energy") > 2e-3) break;
  }
  const operators::Context ctx = setup->fine.ctx();
  const cases::Observables d = sim.observables();
  std::printf("cylinder D/H=1, Ra=%.0e, %d elements N=5, %d steps to "
              "convection\n\n",
              rayleigh, setup->geometry.mesh.num_elements(), steps);

  // Horizontally averaged temperature profile: the Fig. 1 colour story (red
  // bottom, blue top) with boundary layers at the plates.
  const int bins = 12;
  std::vector<real_t> t_mean(bins, 0), t_w(bins, 0), wgt(bins, 0);
  const RealVec& temp = sim.solver().temperature();
  const RealVec& w = sim.solver().w();
  const RealVec& mult = ctx.gs->inverse_multiplicity();
  for (usize i = 0; i < temp.size(); ++i) {
    int b = static_cast<int>(ctx.coef->z[i] * bins);
    if (b >= bins) b = bins - 1;
    const real_t bw = ctx.coef->mass[i] * mult[i];
    t_mean[static_cast<usize>(b)] += bw * temp[i];
    t_w[static_cast<usize>(b)] += bw * w[i] * temp[i];
    wgt[static_cast<usize>(b)] += bw;
  }
  std::printf("horizontally averaged profiles:\n");
  std::printf("%10s %10s %14s\n", "z", "<T>", "<w·T> (flux)");
  bench::print_rule(40);
  for (int b = bins - 1; b >= 0; --b) {
    std::printf("%10.3f %10.4f %14.3e\n", (b + 0.5) / bins,
                t_mean[static_cast<usize>(b)] / wgt[static_cast<usize>(b)],
                t_w[static_cast<usize>(b)] / wgt[static_cast<usize>(b)]);
  }
  bench::print_rule(40);
  std::printf("\nsignatures of Fig. 1's physics:\n");
  const real_t t_bottom = t_mean[0] / wgt[0];
  const real_t t_top = t_mean[static_cast<usize>(bins - 1)] /
                       wgt[static_cast<usize>(bins - 1)];
  std::printf("  hot fluid at the bottom, cold at the top: <T>(z->0)=%.3f > "
              "<T>(z->1)=%.3f  [%s]\n",
              t_bottom, t_top, t_bottom > t_top ? "ok" : "FAIL");
  real_t flux_mid = t_w[bins / 2] / wgt[bins / 2];
  std::printf("  upward convective heat flux in the bulk: <wT>(z=0.5)=%.3e > 0"
              "  [%s]\n",
              flux_mid, flux_mid > 0 ? "ok" : "FAIL");
  std::printf("  heat transport above conduction: Nu_vol=%.3f > 1  [%s]\n",
              d.at("nu_volume"), d.at("nu_volume") > 1.0 ? "ok" : "FAIL");
  std::printf("\n(cross-section AA renderings: run examples/rbc_cylinder)\n");
  return 0;
}
