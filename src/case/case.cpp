#include "case/case.hpp"

#include "telemetry/telemetry.hpp"

namespace felis::cases {

Case::Case(std::string type, const operators::Context& fine,
           const operators::Context& coarse, fluid::FlowConfig flow,
           real_t height)
    : type_(std::move(type)), height_(height),
      solver_(fine, coarse, std::move(flow)) {}

fluid::StepInfo Case::step() {
  telemetry::Telemetry* tel = solver_.telemetry();
  if (tel == nullptr) return solver_.step();

  tel->begin_step();
  const fluid::StepInfo info = solver_.step();
  // Physical observables are recorded only on sampled steps: they cost extra
  // reductions but never touch solver state, so the fields stay bitwise
  // identical with telemetry on or off.
  if (tel->sampling_due(info.step)) {
    std::map<std::string, double>& recorded = tel->record().observables;
    for (const auto& [name, value] : observables()) recorded[name] = value;
  }
  tel->end_step(info.step, info.time);
  return info;
}

fluid::Checkpoint Case::capture_checkpoint() const {
  return fluid::capture_checkpoint(solver_);
}

void Case::restore_checkpoint(const fluid::Checkpoint& checkpoint) {
  fluid::restore_checkpoint(solver_, checkpoint);
}

bool Case::maybe_checkpoint(fluid::CheckpointManager& manager) const {
  if (!manager.due(solver_.step_count())) return false;
  manager.write(capture_checkpoint());
  return true;
}

bool Case::restore_latest(const fluid::CheckpointManager& manager) {
  std::optional<fluid::Checkpoint> latest = manager.load_latest();
  const gidx_t newest = latest ? static_cast<gidx_t>(latest->step) : -1;
  comm::Communicator& comm = *fine().comm;
  const gidx_t common =
      comm.size() > 1 ? comm.allreduce_scalar(newest, comm::ReduceOp::kMin)
                      : newest;
  if (common < 0) return false;
  if (latest->step != common)
    latest = fluid::Checkpoint::load(manager.path_for_step(common));
  restore_checkpoint(*latest);
  return true;
}

SurfaceFluxZ surface_flux_z(const operators::Context& ctx, const RealVec& dfdz,
                            mesh::FaceTag tag) {
  real_t sums[2] = {0, 0};  // flux integral, area
  const lidx_t npe = ctx.nodes_per_element();
  const auto it = ctx.coef->boundary.find(tag);
  if (it != ctx.coef->boundary.end()) {
    for (const field::BoundaryFace& bf : it->second) {
      const usize fn = bf.nodes.size();
      for (usize i = 0; i < fn; ++i) {
        const usize o = static_cast<usize>(bf.element) * static_cast<usize>(npe) +
                        static_cast<usize>(bf.nodes[i]);
        sums[0] += -dfdz[o] * bf.area[i];
        sums[1] += bf.area[i];
      }
    }
  }
  ctx.comm->allreduce(sums, 2, comm::ReduceOp::kSum);
  return {sums[0], sums[1]};
}

}  // namespace felis::cases
