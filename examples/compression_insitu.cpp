// The full in-situ workflow of §5.2: the solver streams flow snapshots to an
// asynchronous consumer that (a) compresses them with the error-bounded
// spectral compressor and (b) feeds a streaming POD — while time stepping
// continues.
//
//   ./compression_insitu [Ra] [steps] [snapshot_every]
//
// Exit code (felis_campaign's): 64 usage (also a snapshot interval longer
// than the run), 65 any felis::Error.
#include <cstdio>

#include "case/registry.hpp"
#include "compression/compressor.hpp"
#include "insitu/async_pod.hpp"

using namespace felis;

namespace {

const Param<real_t> kRayleigh{"Ra", kPositive, "Rayleigh number"};
const Param<int> kSteps{"steps", 1, "time steps to run"};
const Param<int> kEvery{"snapshot_every", 1, "steps between snapshots"};
const CommandLine kCli{"compression_insitu", {}, {&kRayleigh, &kSteps, &kEvery}};

int run(const ParamMap& args) {
  const real_t rayleigh = kRayleigh.get(args, 1e5);
  const int steps = kSteps.get(args, 300), every = kEvery.get(args, 10);
  if (every > steps) throw UsageError("snapshot_every exceeds steps");
  // The periodic-slab RBC case from the case table, at degree 6 (snapshots
  // with enough modal content to make the spectral compressor interesting).
  ParamMap params;
  params.set(cases::kType.name, "rbc");
  params.set(cases::kRa.name, rayleigh);
  params.set(cases::kDt.name, 1.5e-2);
  params.set(cases::kDegree.name, 6);
  comm::SelfComm comm;
  const std::unique_ptr<cases::CaseSetup> setup =
      cases::build_case(cases::resolve_case(params), params, comm);
  cases::Case& sim = *setup->sim;
  sim.set_initial_conditions();
  const operators::RankSetup& fine = setup->fine;
  const operators::Context ctx = fine.ctx();

  // In-situ consumers: compressor + asynchronous streaming POD of the
  // vertical velocity (the buoyancy-carrying component).
  const compression::Compressor compressor(fine.lmesh, fine.space);
  compression::CompressOptions copt;
  copt.error_bound = 0.025;  // the paper's Fig. 5 operating point
  RealVec pod_weights = ctx.coef->mass;
  {
    const RealVec& inv = ctx.gs->inverse_multiplicity();
    for (usize i = 0; i < pod_weights.size(); ++i) pod_weights[i] *= inv[i];
  }
  insitu::SnapshotStream stream(4);
  insitu::AsyncPod pod(stream, pod_weights, 10);

  std::printf("in-situ RBC: Ra=%.2g, snapshot every %d steps, error bound "
              "%.1f%%\n\n",
              rayleigh, every, copt.error_bound * 100);
  usize total_raw = 0, total_compressed = 0;
  int snapshots = 0;
  for (int s = 1; s <= steps; ++s) {
    sim.step();
    if (s % every != 0) continue;
    const RealVec& w = sim.solver().w();
    // Lossy in-situ compression (what would be written to disk)...
    const compression::CompressedField c = compressor.compress(w, copt);
    total_raw += c.original_bytes;
    total_compressed += c.compressed_bytes;
    // ... and asynchronous streaming analysis of the same snapshot.
    stream.push(w);
    ++snapshots;
    if (snapshots % 5 == 0) {
      const RealVec back = compressor.decompress(c);
      std::printf("step %4d: snapshot %2d  reduction %.1f%%  rel.err %.3f%%  "
                  "(queue depth %zu)\n",
                  s, snapshots, 100 * c.reduction(),
                  100 * compressor.relative_error(w, back), stream.size());
    }
  }

  insitu::StreamingPod& result = pod.finish();
  std::printf("\ncompression: %d snapshots, %.2f MB raw -> %.3f MB stored "
              "(%.1f%% reduction)\n",
              snapshots, total_raw / 1e6, total_compressed / 1e6,
              100.0 * (1.0 - static_cast<double>(total_compressed) /
                                 static_cast<double>(total_raw)));
  std::printf("streaming POD of w (rank %zu, %zu snapshots):\n", result.rank(),
              result.snapshot_count());
  for (usize k = 0; k < std::min<usize>(result.rank(), 6); ++k)
    std::printf("  sigma_%zu = %.4e   cumulative energy %.2f%%\n", k,
                result.singular_values()[k],
                100 * result.captured_energy(k + 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string message;
  const int rc = kCli.main(argc, argv, run, message);
  std::fputs(message.c_str(), stderr);
  return rc;
}
