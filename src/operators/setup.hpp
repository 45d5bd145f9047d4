/// \file setup.hpp
/// \brief Convenience bundle building one rank's full discretization stack
/// (local mesh, space, geometric factors, gather–scatter) from a global mesh.
///
/// Every rank calls this with the same global mesh; partitioning and
/// numbering are deterministic, so all ranks agree without communication.
#pragma once

#include <memory>

#include "operators/context.hpp"

namespace felis::operators {

struct RankSetup {
  mesh::LocalMesh lmesh;
  field::Space space;
  field::Coef coef;
  std::unique_ptr<gs::GatherScatter> gs;
  std::unique_ptr<Profiler> prof;
  comm::Communicator* comm = nullptr;
  device::Backend* backend = nullptr;  ///< null = process default
  /// Tensor kernels for this space's order (make_rank_setup fills it from
  /// TensorKernels::for_order; default-constructed it is the reference).
  field::TensorKernels kernels;

  Context ctx() const {
    Context c;
    c.lmesh = &lmesh;
    c.space = &space;
    c.coef = &coef;
    c.gs = gs.get();
    c.comm = comm;
    c.prof = prof.get();
    c.backend = backend;
    c.kernels = &kernels;
    return c;
  }
};

/// `dealias`: build the Gauss-grid geometric factors (required by the
/// advector). `three_halves_rule`: use the 3/2 overintegration grid (false
/// collocates advection on the GLL grid — the aliased ablation variant).
/// `backend`: compute backend carried into every Context built from this
/// setup (and into the gather–scatter local phases); null = process default
/// (FELIS_BACKEND env / auto).
inline RankSetup make_rank_setup(const mesh::HexMesh& global_mesh, int degree,
                                 comm::Communicator& comm, bool dealias,
                                 bool three_halves_rule = true,
                                 device::Backend* backend = nullptr) {
  RankSetup s;
  auto locals = mesh::distribute_mesh(global_mesh, degree, comm.size());
  s.lmesh = std::move(locals[static_cast<usize>(comm.rank())]);
  s.space = field::Space::make(degree, three_halves_rule);
  s.coef = field::build_coef(s.lmesh, s.space, dealias);
  s.gs = std::make_unique<gs::GatherScatter>(s.lmesh, comm, /*channel=*/0,
                                             backend);
  s.prof = std::make_unique<Profiler>();
  s.comm = &comm;
  s.backend = backend;
  s.kernels = field::TensorKernels::for_order(s.space.n);
  return s;
}

}  // namespace felis::operators
