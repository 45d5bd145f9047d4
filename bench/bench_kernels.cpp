// Kernel microbenchmarks (google-benchmark): the matrix-free tensor-product
// operators that dominate the solver, swept across polynomial orders AND
// device backends / thread counts, plus the gather-scatter. Each operator
// runs with the per-order kernel table (field::TensorKernels::for_order).
//
// Besides the normal console table, the binary writes BENCH_kernels.json —
// one record per run with {kernel, degree, backend, threads, ns_per_iter,
// GF/s, GB/s} — so CI and the perfmodel can consume the sweep without
// scraping stdout. The flop/byte counts are the kernels' declarations in
// field/kernel_cost.hpp — the counts their Profiler charges and the perfmodel
// read — not hardware counters.
//
// Thread-count encoding in the benchmark args: 0 = SerialBackend, k > 0 =
// OpenMpBackend(k). A benchmark named BM_AxHelmholtz/5/2 is degree 5 on the
// OpenMP backend with 2 threads.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "field/kernel_cost.hpp"
#include "operators/ops.hpp"
#include "operators/setup.hpp"
#include "precon/fdm.hpp"

using namespace felis;
namespace cost = felis::field::cost;

namespace {

/// Backend choice from the benchmark's second arg: 0 = serial, k = OpenMP(k).
struct BackendChoice {
  device::SerialBackend serial;
  device::OpenMpBackend openmp;
  device::Backend* active;

  explicit BackendChoice(int threads)
      : openmp(threads > 0 ? threads : 1),
        active(threads > 0 ? static_cast<device::Backend*>(&openmp) : &serial) {}
};

struct KernelFixture {
  comm::SelfComm comm;
  BackendChoice backend;
  operators::RankSetup setup;
  RealVec u, out, cx, cy, cz;

  KernelFixture(int degree, int threads) : backend(threads) {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4;  // 64 elements
    setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), degree, comm,
                                       true, true, backend.active);
    const operators::Context ctx = setup.ctx();
    u.resize(ctx.num_dofs());
    out.resize(ctx.num_dofs());
    for (usize i = 0; i < u.size(); ++i)
      u[i] = std::sin(3 * ctx.coef->x[i]) * ctx.coef->y[i];
    cx.assign(ctx.num_dofs(), 1.0);
    cy.assign(ctx.num_dofs(), 0.5);
    cz.assign(ctx.num_dofs(), -0.2);
  }
};

/// Tag the run with the backend/thread info the JSON collector picks up, and
/// with the rates of one iteration's declared counts.
void annotate(benchmark::State& state, const OpCounters& per_iter) {
  state.counters["threads"] = static_cast<double>(state.range(1));
  if (per_iter.flops > 0)
    state.counters["GF/s"] = benchmark::Counter(
        per_iter.flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  if (per_iter.bytes > 0)
    state.counters["GB/s"] = benchmark::Counter(
        per_iter.bytes * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

void sweep(benchmark::internal::Benchmark* b, std::initializer_list<int> degrees) {
  for (const int degree : degrees)
    for (const int threads : {0, 1, 2, 4}) b->Args({degree, threads});
  // Wall-clock rates: with worker threads doing the flops, main-thread CPU
  // time would overstate GF/s by the thread count.
  b->UseRealTime();
}

void BM_AxHelmholtz(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  const operators::Context ctx = f.setup.ctx();
  for (auto _ : state) {
    operators::ax_helmholtz(ctx, f.u, f.out, 1.0, 0.5);
    benchmark::DoNotOptimize(f.out.data());
  }
  annotate(state, cost::ax_helmholtz(ctx.space->n, ctx.num_elements(), true));
}
BENCHMARK(BM_AxHelmholtz)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {3, 5, 7, 9});
});

/// The same operator with the tensor kernels pinned to the scalar reference:
/// the BM_AxHelmholtz / BM_AxHelmholtzRef ratio is the measured margin of the
/// per-order kernel table the perf gate's --require-speedup check consumes.
void BM_AxHelmholtzRef(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  f.setup.kernels = field::TensorKernels::reference();
  const operators::Context ctx = f.setup.ctx();
  for (auto _ : state) {
    operators::ax_helmholtz(ctx, f.u, f.out, 1.0, 0.5);
    benchmark::DoNotOptimize(f.out.data());
  }
  annotate(state, cost::ax_helmholtz(ctx.space->n, ctx.num_elements(), true));
}
BENCHMARK(BM_AxHelmholtzRef)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {3, 5, 7, 9});
});

/// Advector::apply on a fixed velocity.
void dealiased_advection(benchmark::State& state, bool reference) {
  KernelFixture f(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  if (reference) f.setup.kernels = field::TensorKernels::reference();
  const operators::Context ctx = f.setup.ctx();
  operators::Advector adv(ctx);
  adv.set_velocity(f.cx, f.cy, f.cz);
  for (auto _ : state) {
    std::fill(f.out.begin(), f.out.end(), 0.0);
    adv.apply(f.u, f.out, 1.0);
    benchmark::DoNotOptimize(f.out.data());
  }
  annotate(state, cost::advector_apply(ctx.space->n, ctx.space->nd,
                                       ctx.num_elements()));
}

void BM_DealiasedAdvection(benchmark::State& state) {
  dealiased_advection(state, false);
}
BENCHMARK(BM_DealiasedAdvection)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {3, 5, 7});
});

/// The same advector on the scalar reference kernels: the
/// BM_DealiasedAdvection / BM_DealiasedAdvectionRef ratio is the table's
/// margin on the rectangular sweeps, gated like the Ax/AxRef ratio.
void BM_DealiasedAdvectionRef(benchmark::State& state) {
  dealiased_advection(state, true);
}
BENCHMARK(BM_DealiasedAdvectionRef)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {3, 5, 7});
});

void BM_FdmSchwarz(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  const operators::Context ctx = f.setup.ctx();
  const precon::FdmSolver fdm(ctx);
  for (auto _ : state) {
    fdm.apply(f.u, f.out);
    benchmark::DoNotOptimize(f.out.data());
  }
  annotate(state, cost::fdm_apply(ctx.space->n, ctx.num_elements()));
}
BENCHMARK(BM_FdmSchwarz)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {3, 5, 7});
});

void BM_GatherScatter(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  const operators::Context ctx = f.setup.ctx();
  // kAdd mutates u in place: without restoring it every iteration the values
  // grow without bound (u ← Σ-duplicates u each pass) until they overflow to
  // inf, so later iterations time denormal/inf arithmetic instead of the
  // kernel. Restore from a pristine copy outside the timed region.
  const RealVec pristine = f.u;
  // The local phase's declared counts depend on which dofs the mesh shares:
  // one untimed apply charges them to a Profiler.
  Profiler counted;
  ctx.gs->apply(f.u, gs::GsOp::kAdd, &counted);
  for (auto _ : state) {
    state.PauseTiming();
    f.u = pristine;
    state.ResumeTiming();
    ctx.gs->apply(f.u, gs::GsOp::kAdd);
    benchmark::DoNotOptimize(f.u.data());
  }
  annotate(state, counted.root().counters);
}
BENCHMARK(BM_GatherScatter)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {3, 7});
});

void BM_Grad(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  const operators::Context ctx = f.setup.ctx();
  RealVec dx(ctx.num_dofs()), dy(ctx.num_dofs()), dz(ctx.num_dofs());
  for (auto _ : state) {
    operators::grad(ctx, f.u, dx, dy, dz);
    benchmark::DoNotOptimize(dx.data());
  }
  annotate(state, cost::grad(ctx.space->n, ctx.num_elements()));
}
BENCHMARK(BM_Grad)->Apply([](benchmark::internal::Benchmark* b) {
  sweep(b, {5, 7});
});

// ---- machine-readable sweep output ------------------------------------------

/// Console reporting as usual, plus a BENCH_kernels.json record per run:
/// kernel, degree, backend, threads, ns/iter, GF/s, GB/s.
class JsonSweepReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      const usize slash = name.find('/');
      Record rec;
      rec.kernel = name.substr(0, slash);
      if (slash != std::string::npos) {
        rec.degree = std::atoi(name.c_str() + slash + 1);
      }
      const auto threads_it = run.counters.find("threads");
      const int threads =
          threads_it != run.counters.end()
              ? static_cast<int>(threads_it->second.value) : -1;
      rec.backend = threads < 0 ? "n/a" : (threads == 0 ? "serial" : "openmp");
      rec.threads = threads <= 0 ? 1 : threads;
      rec.ns_per_iter = run.iterations > 0
                            ? run.real_accumulated_time * 1e9 /
                                  static_cast<double>(run.iterations)
                            : 0.0;
      const auto gf = run.counters.find("GF/s");
      const auto gb = run.counters.find("GB/s");
      rec.gflops = gf != run.counters.end() ? gf->second.value : 0.0;
      rec.gbytes = gb != run.counters.end() ? gb->second.value : 0.0;
      records_.push_back(rec);
    }
  }

  /// Returns false (after reporting to stderr) when the file cannot be
  /// written: a silently missing BENCH_kernels.json would make the CI perf
  /// gate pass vacuously.
  bool write(const char* path) const {
    std::FILE* fp = std::fopen(path, "w");
    if (fp == nullptr) {
      std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n",
                   path);
      return false;
    }
    std::fprintf(fp, "[\n");
    for (usize i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(fp,
                   "  {\"kernel\": \"%s\", \"degree\": %d, \"backend\": "
                   "\"%s\", \"threads\": %d, \"ns_per_iter\": %.1f, "
                   "\"gflops_per_s\": %.4f, \"gbytes_per_s\": %.4f}%s\n",
                   r.kernel.c_str(), r.degree, r.backend.c_str(), r.threads,
                   r.ns_per_iter, r.gflops, r.gbytes,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(fp, "]\n");
    std::fclose(fp);
    return true;
  }

 private:
  struct Record {
    std::string kernel;
    int degree = 0;
    std::string backend;
    int threads = 1;
    double ns_per_iter = 0;
    double gflops = 0;
    double gbytes = 0;
  };
  std::vector<Record> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonSweepReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool wrote = reporter.write("BENCH_kernels.json");
  benchmark::Shutdown();
  return wrote ? 0 : 1;
}
