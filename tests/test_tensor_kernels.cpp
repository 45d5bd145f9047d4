// Tensor-kernel table and kernel-equivalence tests.
//
// The contract under test: every kernel `TensorKernels::for_order(n)` can
// dispatch to — a shape-specialized kernel, or the reference kernel it
// routes every other shape to — produces THE SAME BITS as the scalar
// reference kernel for every shape it can be called with (square and
// rectangular operators, all three axes, the fused gradient, the
// interpolation chain, the dealiased advector). That contract is what lets
// the table route shapes without changing what the solver computes. The
// final test holds the full solver to it: a multi-step RBC solve with the
// per-order table must match one with the kernels pinned to the reference,
// bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "case/rbc.hpp"
#include "field/tensor_simd.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"

namespace felis {
namespace {

field::Op1D random_op(std::mt19937& rng, int rows, int cols) {
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  field::Op1D op;
  op.rows = rows;
  op.cols = cols;
  op.a.resize(static_cast<usize>(rows) * static_cast<usize>(cols));
  for (real_t& v : op.a) v = dist(rng);
  return op;
}

RealVec random_vec(std::mt19937& rng, usize size) {
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  RealVec v(size);
  for (real_t& x : v) x = dist(rng);
  return v;
}

void expect_bitwise(const RealVec& a, const RealVec& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at index " << i;
}

// ---- the table -------------------------------------------------------------

// The table is a pure function of n: pin every slot at every order the
// equivalence tests below cover, and check that rank setups on different
// backends receive that same table.
template <int N>
field::TensorKernels order_row() {
  using namespace field;  // the kernel names read like the table itself
  return {&apply_axis_order<0, N>, &apply_axis_order<1, N>,
          &apply_axis_order<2, N>, &grad_order<N>, &interp3_order<N>};
}

TEST(TensorKernelTable, ForOrderIsThePinnedTable) {
  using field::TensorKernels;
  const std::map<int, TensorKernels> fixed = {{4, order_row<4>()},
                                              {6, order_row<6>()},
                                              {8, order_row<8>()},
                                              {10, order_row<10>()},
                                              {12, order_row<12>()}};
  const auto expect_table = [](const TensorKernels& got,
                               const TensorKernels& want,
                               const std::string& what) {
    EXPECT_EQ(got.axis0, want.axis0) << what;
    EXPECT_EQ(got.axis1, want.axis1) << what;
    EXPECT_EQ(got.axis2, want.axis2) << what;
    EXPECT_EQ(got.grad, want.grad) << what;
    EXPECT_EQ(got.interp, want.interp) << what;
  };
  for (int n = 2; n <= 13; ++n) {
    const auto row = fixed.find(n);
    expect_table(TensorKernels::for_order(n),
                 row != fixed.end() ? row->second : TensorKernels{},
                 "n=" + std::to_string(n));
  }

  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend serial;
  device::OpenMpBackend openmp(2);
  for (device::Backend* backend : {static_cast<device::Backend*>(&serial),
                                   static_cast<device::Backend*>(&openmp)}) {
    const operators::RankSetup setup =
        operators::make_rank_setup(mesh, 3, comm, false, true, backend);
    expect_table(setup.kernels, fixed.at(4), "rank setup on " + backend->name());
  }
}

// ---- variant equivalence ----------------------------------------------------

/// One axis slot of a table next to the reference kernel it must reproduce.
struct AxisSlot {
  const char* name;
  field::AxisFn ref;
  field::AxisFn got;
};

std::vector<AxisSlot> axis_slots(const field::TensorKernels& kern) {
  return {{"axis0", &field::apply_axis0, kern.axis0},
          {"axis1", &field::apply_axis1, kern.axis1},
          {"axis2", &field::apply_axis2, kern.axis2}};
}

// Square n×n operators on n³ data through every axis slot of the table,
// n = 2..13: the shape every solver hot loop (ax, fdm, modal transform) uses.
TEST(TensorVariants, SquareOpsBitwiseAtAllOrders) {
  std::mt19937 rng(12345);
  for (int n = 2; n <= 13; ++n) {
    const usize n3 = static_cast<usize>(n) * static_cast<usize>(n) *
                     static_cast<usize>(n);
    const field::Op1D op = random_op(rng, n, n);
    const RealVec u = random_vec(rng, n3);
    RealVec ref(n3), got(n3);
    for (const AxisSlot& slot : axis_slots(field::TensorKernels::for_order(n))) {
      slot.ref(op, u.data(), ref.data(), n, n);
      got.assign(n3, -7.0);
      slot.got(op, u.data(), got.data(), n, n);
      expect_bitwise(ref, got, std::string(slot.name) + "/n=" +
                                   std::to_string(n));
    }
  }
}

TEST(TensorVariants, GradBitwiseAtAllOrders) {
  std::mt19937 rng(777);
  for (int n = 2; n <= 13; ++n) {
    const usize n3 = static_cast<usize>(n) * static_cast<usize>(n) *
                     static_cast<usize>(n);
    const field::Op1D d = random_op(rng, n, n);
    const RealVec u = random_vec(rng, n3);
    RealVec ur(n3), us(n3), ut(n3);
    RealVec vr(n3, -7.0), vs(n3, -7.0), vt(n3, -7.0);
    field::grad_ref(d, u.data(), ur.data(), us.data(), ut.data(), n);
    field::TensorKernels::for_order(n).grad(d, u.data(), vr.data(), vs.data(),
                                            vt.data(), n);
    const std::string what = "grad/n=" + std::to_string(n);
    expect_bitwise(ur, vr, what + "/r");
    expect_bitwise(us, vs, what + "/s");
    expect_bitwise(ut, vt, what + "/t");
  }
}

// One rows×cols operator swept along each axis of a table at the extents
// the solver's chains use: axis0 on a cols×cols×cols block, axis1 on
// rows×cols×cols, axis2 on rows×rows×cols.
void expect_chain_bitwise(std::mt19937& rng, const std::vector<AxisSlot>& slots,
                          int rows, int cols, const std::string& shape) {
  const field::Op1D op = random_op(rng, rows, cols);
  const usize r = static_cast<usize>(rows), c = static_cast<usize>(cols);
  const int da[3] = {cols, rows, rows}, db[3] = {cols, cols, rows};
  const usize in_size[3] = {c * c * c, r * c * c, r * r * c};
  for (int s = 0; s < 3; ++s) {
    const AxisSlot& slot = slots[static_cast<usize>(s)];
    const usize out_size = in_size[s] / c * r;
    const RealVec u = random_vec(rng, in_size[s]);
    RealVec ref(out_size), got(out_size, -7.0);
    slot.ref(op, u.data(), ref.data(), da[s], db[s]);
    slot.got(op, u.data(), got.data(), da[s], db[s]);
    expect_bitwise(ref, got, std::string(slot.name) + shape);
  }
}

// Rectangular operators at every shape the solver applies: the dealiased
// advector's m×n interpolation and n×m back-projection (m = dealias_points),
// the coarse grid's 2×n restriction and n×2 prolongation, and an off-table
// (n+3)×n operator, which every slot must hand to the reference kernel.
TEST(TensorVariants, RectangularOpsBitwise) {
  std::mt19937 rng(4242);
  for (int n = 2; n <= 13; ++n) {
    const std::vector<AxisSlot> slots =
        axis_slots(field::TensorKernels::for_order(n));
    const int dealias = field::dealias_points(n);
    const auto shape = [](int rows, int cols) {
      std::string s = "/";
      s += std::to_string(rows);
      s += 'x';
      s += std::to_string(cols);
      return s;
    };
    for (const int m : {2, dealias, n + 3})
      expect_chain_bitwise(rng, slots, m, n, shape(m, n));
    for (const int m : {dealias, 2})
      expect_chain_bitwise(rng, slots, n, m, shape(n, m));
  }
}

TEST(TensorVariants, Interp3Bitwise) {
  std::mt19937 rng(99);
  for (int n = 2; n <= 13; ++n) {
    const int m = field::dealias_points(n);
    const usize un = static_cast<usize>(n), um = static_cast<usize>(m);
    const field::Op1D op = random_op(rng, m, n);
    const RealVec u = random_vec(rng, un * un * un);
    RealVec work(um * un * (um + un));
    RealVec ref(um * um * um), got(um * um * um, -7.0);
    field::interp3(op, u.data(), ref.data(), work.data(), n, m);
    work.assign(work.size(), -3.0);  // the slot may not rely on stale work
    field::TensorKernels::for_order(n).interp(op, u.data(), got.data(),
                                              work.data(), n, m);
    expect_bitwise(ref, got, "interp3/n=" + std::to_string(n));
  }
}

// The dealiased advector, whose s and t chains share one interpolation
// sweep: set_velocity + apply on the per-order table against the same
// advector on the reference kernels, at every tabled order and one odd n.
TEST(TensorVariants, AdvectorBitwiseVsReference) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend backend;
  for (const int n : {4, 5, 6, 8, 10, 12}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const operators::RankSetup tabled =
        operators::make_rank_setup(mesh, n - 1, comm, true, true, &backend);
    operators::RankSetup plain =
        operators::make_rank_setup(mesh, n - 1, comm, true, true, &backend);
    plain.kernels = field::TensorKernels::reference();
    const operators::Context tc = tabled.ctx(), pc = plain.ctx();
    const usize dofs = tc.num_dofs();
    RealVec cx(dofs), cy(dofs), cz(dofs), u(dofs);
    for (usize i = 0; i < dofs; ++i) {
      const real_t x = tc.coef->x[i], y = tc.coef->y[i], z = tc.coef->z[i];
      cx[i] = std::sin(2 * y) + z;
      cy[i] = std::cos(3 * x) * z;
      cz[i] = x * y - 0.3;
      u[i] = std::sin(x + 2 * y) * std::cos(z);
    }
    operators::Advector adv_t(tc), adv_r(pc);
    adv_t.set_velocity(cx, cy, cz);
    adv_r.set_velocity(cx, cy, cz);
    RealVec out_t(dofs, 0.25), out_r(dofs, 0.25);
    adv_t.apply(u, out_t, -1.0);
    adv_r.apply(u, out_r, -1.0);
    expect_bitwise(out_r, out_t, "advector/n=" + std::to_string(n));
  }
}

// ---- tabled dispatch --------------------------------------------------------

// Full 3-step RBC solve, per-order table vs reference kernels, bitwise: the
// end-to-end form of the kernel-identity contract, at degree 3 (n = 4),
// degree 5 (n = 6) and the orders of the cyl_n7 and slab_n9 benchmark
// workloads, degree 7 (n = 8) and degree 9 (n = 10). Whatever the table
// routes, the physics must not change by a single bit.
TEST(TensorDispatch, FullRbcSolveBitwiseVsReference) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = 2.0;
  cfg.lz = 1.0;
  cfg.periodic_x = cfg.periodic_y = true;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend backend;

  for (const int degree : {3, 5, 7, 9}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    operators::RankSetup tabled =
        operators::make_rank_setup(mesh, degree, comm, true, true, &backend);
    operators::RankSetup tabled_coarse =
        precon::make_coarse_setup(mesh, comm, &backend);
    operators::RankSetup plain =
        operators::make_rank_setup(mesh, degree, comm, true, true, &backend);
    operators::RankSetup plain_coarse =
        precon::make_coarse_setup(mesh, comm, &backend);
    plain.kernels = field::TensorKernels::reference();
    plain_coarse.kernels = field::TensorKernels::reference();

    rbc::RbcConfig config;
    config.rayleigh = 1e4;
    config.dt = 2e-2;
    config.perturbation_lx = config.perturbation_ly = 2.0;
    config.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
    rbc::RbcSimulation sim_t(tabled.ctx(), tabled_coarse.ctx(), config);
    rbc::RbcSimulation sim_r(plain.ctx(), plain_coarse.ctx(), config);
    sim_t.set_initial_conditions();
    sim_r.set_initial_conditions();
    for (int s = 0; s < 3; ++s) {
      const fluid::StepInfo it = sim_t.step();
      const fluid::StepInfo ir = sim_r.step();
      EXPECT_EQ(it.cfl, ir.cfl) << "step " << s;
      EXPECT_EQ(it.divergence, ir.divergence) << "step " << s;
    }
    expect_bitwise(sim_t.solver().temperature(), sim_r.solver().temperature(),
                   "temperature");
    expect_bitwise(sim_t.solver().u(), sim_r.solver().u(), "u");
    expect_bitwise(sim_t.solver().v(), sim_r.solver().v(), "v");
    expect_bitwise(sim_t.solver().w(), sim_r.solver().w(), "w");
  }
}

}  // namespace
}  // namespace felis
