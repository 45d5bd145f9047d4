// The paper's geometry: Rayleigh–Bénard convection in a cylindrical cell.
//
// Builds the o-grid cylinder mesh (curved side walls, plate-refined layers),
// runs the DNS and writes horizontal cross-sections of temperature and
// velocity magnitude near the heated plate — the content of the paper's
// Fig. 1 — to CSV, plus an ASCII preview.
//
//   ./rbc_cylinder [Ra] [steps] [aspect D/H]
//
// Exit code (felis_campaign's): 64 usage, 65 any felis::Error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "case/registry.hpp"
#include "io/field_io.hpp"

using namespace felis;

namespace {

const Param<real_t> kRayleigh{"Ra", kPositive, "Rayleigh number"};
const Param<int> kSteps{"steps", 1, "time steps to run"};
const Param<real_t> kAspectArg{"aspect", kPositive, "cell diameter / height"};
const CommandLine kCli{"rbc_cylinder", {}, {&kRayleigh, &kSteps, &kAspectArg}};

/// Sample a field on a horizontal plane z = z0 over an nx×ny grid covering
/// the cylinder's bounding square (NaN outside the cell → rendered blank).
struct Slice {
  int nx, ny;
  std::vector<real_t> values;  // row-major, NaN = outside
};

Slice sample_slice(const operators::Context& ctx, const RealVec& f, real_t z0,
                   real_t radius, int nx, int ny) {
  Slice s{nx, ny, std::vector<real_t>(static_cast<usize>(nx * ny),
                                      std::nan(""))};
  // Nearest-node sampling: fine meshes make this adequate for visualization.
  // Pick, for each grid cell, the closest GLL node within a search radius.
  std::vector<real_t> best(static_cast<usize>(nx * ny), 1e30);
  for (usize i = 0; i < f.size(); ++i) {
    if (std::abs(ctx.coef->z[i] - z0) > 0.05) continue;
    const real_t x = ctx.coef->x[i], y = ctx.coef->y[i];
    const int gx = static_cast<int>((x + radius) / (2 * radius) * nx);
    const int gy = static_cast<int>((y + radius) / (2 * radius) * ny);
    if (gx < 0 || gx >= nx || gy < 0 || gy >= ny) continue;
    const real_t d = std::abs(ctx.coef->z[i] - z0);
    const usize cell = static_cast<usize>(gy * nx + gx);
    if (d < best[cell]) {
      best[cell] = d;
      s.values[cell] = f[i];
    }
  }
  return s;
}

void write_csv(const Slice& s, real_t radius, const char* path) {
  std::ofstream out(path);
  out << "x,y,value\n";
  for (int j = 0; j < s.ny; ++j)
    for (int i = 0; i < s.nx; ++i) {
      const real_t v = s.values[static_cast<usize>(j * s.nx + i)];
      if (std::isnan(v)) continue;
      const real_t x = -radius + (i + 0.5) * 2 * radius / s.nx;
      const real_t y = -radius + (j + 0.5) * 2 * radius / s.ny;
      out << x << ',' << y << ',' << v << '\n';
    }
}

void ascii_render(const Slice& s, const char* title) {
  real_t lo = 1e30, hi = -1e30;
  for (const real_t v : s.values) {
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) hi = lo + 1;
  static const char shades[] = " .:-=+*#%@";
  std::printf("%s  [min %.3g, max %.3g]\n", title, lo, hi);
  for (int j = s.ny - 1; j >= 0; --j) {
    std::fputs("  ", stdout);
    for (int i = 0; i < s.nx; ++i) {
      const real_t v = s.values[static_cast<usize>(j * s.nx + i)];
      if (std::isnan(v)) {
        std::fputc(' ', stdout);
      } else {
        const int level = std::clamp(
            static_cast<int>((v - lo) / (hi - lo) * 9.999), 0, 9);
        std::fputc(shades[level], stdout);
      }
    }
    std::fputc('\n', stdout);
  }
}

int run(const ParamMap& args) {
  const real_t rayleigh = kRayleigh.get(args, 1e5);
  const real_t aspect = kAspectArg.get(args, 1.0);
  const int steps = kSteps.get(args, 400);
  // The cylinder case from the case table (paper geometry, Pr = 1); the
  // factory owns the o-grid mesh and boundary conditions.
  ParamMap params;
  params.set(cases::kType.name, "rbc_cyl");
  params.set(cases::kRa.name, rayleigh);
  params.set(cases::kDt.name, 1.5e-2);
  params.set(cases::kAspect.name, aspect);
  params.set(cases::kPerturbation.name, 2e-2);
  params.set(cases::kDegree.name, 5);
  comm::SelfComm comm;
  const std::unique_ptr<cases::CaseSetup> setup =
      cases::build_case(cases::resolve_case(params), params, comm);
  const cases::Geometry& geo = setup->geometry;
  const real_t radius = 0.5 * geo.lx;
  cases::Case& sim = *setup->sim;
  sim.set_initial_conditions();

  std::printf("RBC cylinder: D/H=%.2f, Ra=%.2g, Pr=1, %d elements, N=%d\n",
              aspect, rayleigh, geo.mesh.num_elements(), geo.degree);
  for (int s = 1; s <= steps; ++s) {
    const fluid::StepInfo info = sim.step();
    if (s % 50 == 0) {
      const cases::Observables obs = sim.observables();
      std::printf(
          "step %5lld t=%7.3f cfl=%.3f p_iters=%3d Nu_vol=%7.4f KE=%.4e\n",
          static_cast<long long>(info.step), info.time, info.cfl,
          info.pressure_iterations, obs.at("nu_volume"),
          obs.at("kinetic_energy"));
    }
  }

  // Fig. 1-style output: cross-section AA near the heated bottom wall.
  const operators::RankSetup& fine = setup->fine;
  const operators::Context ctx = fine.ctx();
  const fluid::FlowSolver& solver = sim.solver();
  RealVec umag(ctx.num_dofs());
  const RealVec& u = solver.u();
  const RealVec& v = solver.v();
  const RealVec& w = solver.w();
  for (usize i = 0; i < umag.size(); ++i)
    umag[i] = std::sqrt(u[i] * u[i] + v[i] * v[i] + w[i] * w[i]);
  const real_t z_aa = 0.1;  // close to the heated bottom wall
  const Slice temp_slice =
      sample_slice(ctx, solver.temperature(), z_aa, radius, 48, 24);
  const Slice umag_slice = sample_slice(ctx, umag, z_aa, radius, 48, 24);
  write_csv(temp_slice, radius, "rbc_cylinder_temperature_AA.csv");
  write_csv(umag_slice, radius, "rbc_cylinder_velocity_AA.csv");
  // Full 3-D fields for ParaView (GLL-subdivided hexes).
  io::write_vtk("rbc_cylinder.vtk", fine.lmesh, fine.space, fine.coef,
                {{"temperature", &solver.temperature()},
                 {"u", &u},
                 {"v", &v},
                 {"w", &w},
                 {"pressure", &solver.pressure()}});
  std::printf("\ncross-section AA at z=%.2f (Fig. 1 content):\n", z_aa);
  ascii_render(umag_slice, "velocity magnitude");
  ascii_render(temp_slice, "temperature");
  std::printf("CSV written: rbc_cylinder_{temperature,velocity}_AA.csv\n");
  std::printf("VTK written: rbc_cylinder.vtk (open in ParaView)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string message;
  const int rc = kCli.main(argc, argv, run, message);
  std::fputs(message.c_str(), stderr);
  return rc;
}
