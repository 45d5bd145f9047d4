// Tests for the performance model: machine constants (Table 1), analytic
// partition statistics validated against REAL partitioned meshes, workload
// counters validated against the solver's own instrumentation, the
// discrete-event stream simulator, and the qualitative properties behind
// Figs. 2-4 (overlap benefit, pressure dominance, near-linear scaling).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "case/rbc.hpp"
#include "gs/gather_scatter.hpp"
#include "operators/setup.hpp"
#include "perfmodel/event_sim.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/mesh_stats.hpp"
#include "perfmodel/precon_schedule.hpp"
#include "perfmodel/scaling.hpp"
#include "precon/coarse.hpp"

namespace felis::perfmodel {
namespace {

TEST(MachineSpecs, Table1ValuesEncoded) {
  const Machine lumi = make_lumi();
  const Machine leonardo = make_leonardo();
  // Per-logical-device figures: LUMI GCD = half an MI250X.
  EXPECT_NEAR(lumi.device.peak_flops, 47.9e12 / 2, 1e9);
  EXPECT_NEAR(lumi.device.mem_bandwidth, 1650e9, 1e6);
  EXPECT_EQ(lumi.total_devices, 10240);
  EXPECT_NEAR(leonardo.device.peak_flops, 9.7e12, 1e9);
  EXPECT_NEAR(leonardo.device.mem_bandwidth, 1550e9, 1e6);
  EXPECT_EQ(leonardo.total_devices, 13824);
}

TEST(MachineSpecs, AllreduceGrowsLogarithmically) {
  const Machine m = make_lumi();
  const double t2 = m.allreduce_time(2, 8);
  const double t1k = m.allreduce_time(1024, 8);
  const double t16k = m.allreduce_time(16384, 8);
  EXPECT_GT(t1k, t2);
  EXPECT_GT(t16k, t1k);
  // log2(16384)/log2(1024) = 14/10; latency-dominated regime.
  EXPECT_LT(t16k, t1k * 2.0);
  EXPECT_EQ(m.allreduce_time(1, 8), 0.0);
}

TEST(ProductionMeshStats, MatchesPaperScale) {
  const ProductionMesh mesh = paper_production_mesh();
  EXPECT_NEAR(mesh.total_elements(), 108e6, 1e6);
  // "37B unique grid points, more than 148B degrees of freedom".
  EXPECT_NEAR(mesh.unique_grid_points(), 37e9, 4e9);
  EXPECT_GT(mesh.dofs(), 148e9);
  // "<7000 elements per logical GPU" at 16384 GCDs.
  EXPECT_LT(mesh.total_elements() / 16384, 7000);
}

TEST(ProductionMeshStats, AnalyticPartitionMatchesRealMesh) {
  // Build a real slender cylinder, partition it, and compare the analytic
  // halo estimates with the actual gather-scatter footprint.
  mesh::CylinderMeshConfig cfg;
  cfg.nc = 2;
  cfg.nr = 2;  // disk: 2² + 4·2·2 = 20 elements
  cfg.nz = 16;
  cfg.radius = 0.1;
  cfg.height = 1.0;
  const int degree = 4;
  const mesh::HexMesh mesh = make_cylinder_mesh(cfg);
  const int nranks = 4;

  ProductionMesh model;
  model.disk_elements = cfg.disk_elements();
  model.layers = cfg.nz;
  model.degree = degree;
  const PartitionStats analytic = production_partition(model, nranks);
  EXPECT_NEAR(analytic.local_elements, 20.0 * 16 / 4, 1e-9);
  EXPECT_EQ(analytic.neighbors, 2);

  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    const auto setup = operators::make_rank_setup(mesh, degree, comm, false);
    const gs::GatherScatter& gs = *setup.gs;
    // Interior ranks (slabs) talk to exactly 2 neighbours.
    if (comm.rank() > 0 && comm.rank() < nranks - 1)
      EXPECT_EQ(gs.num_neighbors(), 2u);
    else
      EXPECT_EQ(gs.num_neighbors(), 1u);
    // The analytic shared-node estimate (2 disk cuts × (N+1)² per element)
    // over-counts intra-disk duplicates; real count within [40%, 100%].
    if (comm.rank() > 0 && comm.rank() < nranks - 1) {
      const double real_shared = static_cast<double>(gs.send_doubles_per_apply());
      EXPECT_LT(real_shared, analytic.shared_nodes * 1.0001);
      EXPECT_GT(real_shared, analytic.shared_nodes * 0.4);
    }
  });
}

TEST(Workload, CountersMatchRealSolverInstrumentation) {
  // Run real RBC steps, then compare the model's per-phase flops and bytes
  // for the same (elements, degree, measured iterations) against the
  // Profiler tree. Both price every charged kernel from one declaration
  // (field/kernel_cost.hpp); the band covers what only one side counts:
  // the model's BLAS-1 passes and its fixed projection basis, restart-free
  // GMRES and full-length coarse CG, against the solver's actual control
  // flow.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = 2.0;
  cfg.periodic_x = cfg.periodic_y = true;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend serial;
  for (const int degree : {3, 5, 7}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    auto fine = operators::make_rank_setup(mesh, degree, comm, true, true,
                                           &serial);
    auto coarse = precon::make_coarse_setup(mesh, comm);
    rbc::RbcConfig rc;
    rc.rayleigh = 1e5;
    rc.dt = 0.01;
    rc.perturbation_lx = 2.0;
    rc.perturbation_ly = 2.0;
    rc.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
    rbc::RbcSimulation sim(fine.ctx(), coarse.ctx(), rc);
    sim.set_initial_conditions();
    for (int i = 0; i < 3; ++i) sim.step();  // startup order ramp
    fine.prof->reset();
    const fluid::StepInfo info = sim.step();

    const Profiler& prof = *fine.prof;
    const auto measured = [&prof](const char* path) {
      return prof.find(path)->inclusive_counters();
    };
    OpCounters other = measured("step");
    for (const char* solve : {"step/pressure", "step/velocity", "step/scalar"}) {
      const OpCounters c = measured(solve);
      other.flops -= c.flops;
      other.bytes -= c.bytes;
    }

    SolverCounts counts;
    counts.pressure_iterations = info.pressure_iterations;
    counts.velocity_iterations = info.velocity_iterations;
    counts.scalar_iterations = info.scalar_iterations;
    PartitionStats part;
    part.local_elements = mesh.num_elements();
    const StepWorkload load = estimate_step_workload(part, degree, counts);
    const auto charged = [&load](const char* phase) {
      return load.at(phase).charged;
    };

    const std::pair<const char*, std::pair<OpCounters, OpCounters>> phases[] = {
        {"other", {charged("other"), other}},
        {"pressure",
         {charged("pressure") + charged("pressure_coarse"), measured("step/pressure")}},
        {"velocity", {charged("velocity"), measured("step/velocity")}},
        {"temperature", {charged("temperature"), measured("step/scalar")}},
    };
    for (const auto& [name, pair] : phases) {
      const auto& [model, real] = pair;
      SCOPED_TRACE(name);
      EXPECT_GT(model.flops, 0.67 * real.flops);
      EXPECT_LT(model.flops, 1.5 * real.flops);
      EXPECT_GT(model.bytes, 0.67 * real.bytes);
      EXPECT_LT(model.bytes, 1.5 * real.bytes);
    }
  }
}

TEST(EventSim, SerialChainSumsAndLaunchGapsCount) {
  std::vector<SimTask> tasks = {
      {"a", 0, 0, 1.0, 0}, {"b", 0, 0, 2.0, 0}, {"c", 0, 0, 3.0, 0}};
  const SimResult r = simulate_streams(tasks, 0.1);
  // First launch delays start by 0.1; kernels back-to-back afterwards
  // (launches overlap execution).
  EXPECT_NEAR(r.makespan, 0.1 + 6.0, 1e-12);
  EXPECT_NEAR(r.device_busy[0], 6.0, 1e-12);
}

TEST(EventSim, LaunchBoundKernelsExposeGaps) {
  // Ten 1µs kernels with 5µs launch latency: device waits on the host.
  std::vector<SimTask> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back({"k", 0, 0, 1e-6, 0});
  const SimResult r = simulate_streams(tasks, 5e-6);
  EXPECT_GT(r.makespan, 50e-6);
  EXPECT_LT(r.utilization(), 0.3);
}

TEST(EventSim, TwoStreamsOverlap) {
  std::vector<SimTask> tasks = {
      {"big", 0, 0, 10.0, 0},
      {"small1", 1, 1, 1.0, 0},
      {"small2", 1, 1, 1.0, 0},
  };
  const SimResult r = simulate_streams(tasks, 0.01);
  EXPECT_LT(r.makespan, 10.1);  // small kernels hidden under the big one
  EXPECT_NEAR(r.device_busy[0], 10.0, 1e-12);
  EXPECT_NEAR(r.device_busy[1], 2.0, 1e-12);
}

TEST(EventSim, HostBlockSerializesDependentStreamWork) {
  std::vector<SimTask> tasks = {
      {"kernel", 0, 0, 1.0, 0},
      {"mpi", 0, 0, 0, 2.0},      // waits for kernel, blocks host 2s
      {"kernel2", 0, 0, 1.0, 0},  // cannot start before the wait ends
  };
  const SimResult r = simulate_streams(tasks, 0.0);
  EXPECT_NEAR(r.makespan, 1.0 + 2.0 + 1.0, 1e-12);
}

TEST(PreconSchedule, TaskParallelBeatsSerialByPaperMargin) {
  // Fig. 2's setting: a small test case representative of the strong-scaling
  // regime on a 4-GPU A100 node; the paper reports ≈20% wall-time reduction
  // of the Schwarz preconditioner phase.
  const Machine leonardo = make_leonardo();
  PartitionStats part;
  part.local_elements = 7000;
  part.neighbors = 2;
  part.shared_nodes = 2 * 432 * 64;
  part.coarse_shared_nodes = 2 * 432 * 4;
  const PreconSchedule sched =
      build_precon_schedule(leonardo, part.local_elements, 7, 10, 4, part);
  const SimResult serial = simulate_streams(sched.serial, sched.launch_latency);
  const SimResult parallel =
      simulate_streams(sched.parallel, sched.launch_latency);
  const double reduction = 1.0 - parallel.makespan / serial.makespan;
  EXPECT_GT(reduction, 0.05);
  EXPECT_LT(reduction, 0.50);
  // The overlapped schedule keeps the device busier.
  EXPECT_GT(parallel.utilization(), serial.utilization());
}

TEST(StrongScaling, NearPerfectEfficiencyWithOverlapAtPaperCounts) {
  const ProductionMesh mesh = paper_production_mesh();
  ScalingOptions options;
  options.overlap_coarse = true;
  const auto lumi = predict_strong_scaling(make_lumi(), mesh,
                                           {4096, 8192, 16384}, options);
  ASSERT_EQ(lumi.size(), 3u);
  // Paper: "close to perfect parallel efficiency ... with less than 7000
  // elements per logical GPU".
  for (const auto& pt : lumi) {
    EXPECT_GT(pt.parallel_efficiency, 0.8) << pt.devices << " devices";
    EXPECT_LE(pt.parallel_efficiency, 1.05);
  }
  // Times must scale down with device count.
  EXPECT_LT(lumi[1].seconds_per_step, lumi[0].seconds_per_step);
  EXPECT_LT(lumi[2].seconds_per_step, lumi[1].seconds_per_step);

  const auto leo = predict_strong_scaling(make_leonardo(), mesh, {3456, 6912},
                                          options);
  EXPECT_GT(leo[1].parallel_efficiency, 0.8);
}

TEST(StrongScaling, OverlapExtendsScalability) {
  const ProductionMesh mesh = paper_production_mesh();
  ScalingOptions on, off;
  on.overlap_coarse = true;
  off.overlap_coarse = false;
  const auto with = predict_strong_scaling(make_lumi(), mesh, {16384}, on);
  const auto without = predict_strong_scaling(make_lumi(), mesh, {16384}, off);
  EXPECT_LT(with[0].seconds_per_step, without[0].seconds_per_step);
}

TEST(StrongScaling, PressureDominatesAtScale) {
  // Fig. 4: pressure > 85% of a step at 16,384 GCDs.
  const ProductionMesh mesh = paper_production_mesh();
  ScalingOptions options;
  const StepPrediction pred =
      predict_with_overlap(make_lumi(), mesh, 16384, options);
  const double pressure = pred.phase_seconds.at("pressure");
  EXPECT_GT(pressure / pred.total, 0.6);
  for (const auto& [name, t] : pred.phase_seconds)
    if (name != "pressure") {
      EXPECT_LT(t, pressure) << name;
    }
}

}  // namespace
}  // namespace felis::perfmodel
