// Fig. 2 reproduction: serial vs task-parallel additive Schwarz
// preconditioner.
//
// Part A — discrete-event replay of the preconditioner's task DAG on a
// modelled A100 node (the paper's setting: "a single-node 4-GPU run of a
// small test case representative of the strong-scaling regime"), printing
// the two timelines and the wall-time reduction (paper: ~20% over the
// Schwarz phase).
//
// Part B — the *real* felis preconditioner executed both ways on this
// machine (functional equivalence + actual timings; on a single hardware
// thread the host-side overlap cannot shorten wall time, which is exactly
// why Part A models the GPU-node schedule).
#include <chrono>
#include <cstdio>

#include "bench_utils.hpp"
#include "perfmodel/event_sim.hpp"
#include "perfmodel/precon_schedule.hpp"

using namespace felis;
using namespace felis::perfmodel;

namespace {

void render_trace(const std::vector<device::TraceEvent>& events, double t_max,
                  int rows, int width) {
  for (int r = 0; r < rows; ++r) {
    std::string row(static_cast<usize>(width), '.');
    for (const auto& e : events) {
      if (e.stream != r) continue;
      int b = static_cast<int>(e.t_begin / t_max * width);
      int en = static_cast<int>(e.t_end / t_max * width);
      if (b < 0) b = 0;
      if (en <= b) en = b + 1;
      if (en > width) en = width;
      const char mark = e.name.rfind("coarse", 0) == 0 ? 'c'
                        : e.name.rfind("fdm", 0) == 0  ? 'F'
                        : e.name.rfind("gs", 0) == 0   ? 'g'
                                                       : '#';
      for (int i = b; i < en; ++i) row[static_cast<usize>(i)] = mark;
    }
    const char* label = r == 0   ? "stream 0 (fine)  "
                        : r == 1 ? "stream 1 (coarse)"
                        : r == 2 ? "host 0           "
                                 : "host 1           ";
    std::printf("  %s |%s|\n", label, row.c_str());
  }
}

}  // namespace

int main() {
  std::printf("Fig. 2 — serial (A) vs task-parallel (B) additive Schwarz "
              "preconditioner\n\n");

  // ---- Part A: modelled GPU-node schedules -------------------------------
  const Machine leonardo = make_leonardo();
  PartitionStats part;
  part.local_elements = 7000;  // strong-scaling regime (<7000 elem/GPU)
  part.neighbors = 3;          // node-internal decomposition, 4 GPUs
  part.shared_nodes = 2 * 432 * 64;
  part.coarse_shared_nodes = 2 * 432 * 4;
  const PreconSchedule sched =
      build_precon_schedule(leonardo, part.local_elements, 7, 10, 4, part);
  const SimResult serial = simulate_streams(sched.serial, sched.launch_latency);
  const SimResult parallel =
      simulate_streams(sched.parallel, sched.launch_latency);

  std::printf("modelled A100 node, %0.f elements/GPU, N=7, 10 coarse PCG "
              "iterations per apply\n\n",
              part.local_elements);
  std::printf("timeline A (serial): makespan %.1f us, GPU utilization %.0f%%\n",
              serial.makespan * 1e6, 100 * serial.utilization());
  render_trace(serial.trace, serial.makespan, 3, 90);
  std::printf("\ntimeline B (task-parallel): makespan %.1f us, GPU utilization "
              "%.0f%%\n",
              parallel.makespan * 1e6, 100 * parallel.utilization());
  render_trace(parallel.trace, serial.makespan, 4, 90);
  const double reduction = 1.0 - parallel.makespan / serial.makespan;
  std::printf("\n  (c = coarse kernels, F = FDM smoother, g = gather-scatter; "
              "host rows show MPI waits)\n");
  std::printf("\n=> wall-time reduction of the Schwarz phase: %.1f%%  "
              "(paper: ~20%%)\n\n",
              100 * reduction);

  // Over 50 time steps (the paper's Fig. 2 measurement window), ~15 GMRES
  // iterations each:
  const double per_step = 15;
  std::printf("over 50 steps x %.0f preconditioner applications: serial "
              "%.1f ms vs overlapped %.1f ms\n\n",
              per_step, 50 * per_step * serial.makespan * 1e3,
              50 * per_step * parallel.makespan * 1e3);

  // ---- Part B: real preconditioner on this machine ------------------------
  std::printf("real felis preconditioner (this machine, %u hardware "
              "threads):\n",
              std::thread::hardware_concurrency());
  comm::SelfComm comm;
  const auto run = bench::make_rbc_run(comm, 1e5, 5, 1e-2);
  const operators::Context ctx = run->fine.ctx();
  precon::HsmgPrecon hsmg(ctx, run->coarse.ctx(), precon::OverlapMode::kSerial);
  RealVec r(ctx.num_dofs());
  for (usize i = 0; i < r.size(); ++i)
    r[i] = ctx.coef->mass[i] * std::sin(3.0 * ctx.coef->x[i]);
  ctx.gs->apply(r, gs::GsOp::kAdd);
  RealVec z1, z2;
  const auto time_apply = [&](precon::OverlapMode mode, RealVec& z) {
    hsmg.set_mode(mode);
    hsmg.apply(r, z);  // warmup
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) hsmg.apply(r, z);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() /
           20;
  };
  const double t_serial = time_apply(precon::OverlapMode::kSerial, z1);
  const double t_parallel = time_apply(precon::OverlapMode::kTaskParallel, z2);
  real_t max_diff = 0;
  for (usize i = 0; i < z1.size(); ++i)
    max_diff = std::max(max_diff, std::abs(z1[i] - z2[i]));
  std::printf("  serial apply: %.3f ms, task-parallel apply: %.3f ms, "
              "max |difference| = %.2e (bitwise-equivalent math)\n",
              t_serial * 1e3, t_parallel * 1e3, max_diff);
  return 0;
}
