/// \file builtin.cpp
/// \brief The case table: every case type felis ships with, one constant
/// row each (see registry.hpp for the list).
///
/// A row is data: the type's mesh defaults, its physics class and its config
/// defaults (rbc2d's y-invariant seed is row data only, not a case key). The
/// case keys are declared once, in registry.hpp. Mesh defaults
/// mirror the campaign runner's historical ones (periodic 3×3×3 box of
/// extent 2×2×1, degree 4) so existing campaign files keep their exact
/// meaning; each type overrides only what its physics needs.
#include <algorithm>
#include <sstream>

#include "case/ihc.hpp"
#include "case/rbc.hpp"
#include "case/registry.hpp"

namespace felis::cases {

namespace {

struct BoxDefaults {
  int nx = 3, ny = 3, nz = 3;
  real_t lx = 2.0, ly = 2.0, lz = 1.0;
  int degree = 4;
};

/// Horizontally periodic slab from the mesh.* keys, over type defaults.
GeometryFactory slab(BoxDefaults d) {
  return [d](const ParamMap& params) {
    mesh::BoxMeshConfig box;
    box.nx = kNx.get(params, d.nx);
    box.ny = kNy.get(params, d.ny);
    box.nz = kNz.get(params, d.nz);
    box.lx = kLx.get(params, d.lx);
    box.ly = kLy.get(params, d.ly);
    box.lz = kLz.get(params, d.lz);
    box.periodic_x = box.periodic_y = true;
    Geometry geo;
    geo.mesh = mesh::make_box_mesh(box);
    geo.degree = kDegree.get(params, d.degree);
    geo.lx = box.lx;
    geo.ly = box.ly;
    geo.lz = box.lz;
    return geo;
  };
}

/// Cylindrical cell of unit height from the mesh.* keys and case.aspect.
Geometry cylinder(const ParamMap& params) {
  mesh::CylinderMeshConfig cyl;
  cyl.nc = kNc.get(params, 2);
  cyl.nr = kNr.get(params, 2);
  cyl.nz = kNz.get(params, 6);
  cyl.height = 1.0;
  cyl.radius = 0.5 * kAspect.get(params, 1.0) * cyl.height;
  Geometry geo;
  geo.mesh = mesh::make_cylinder_mesh(cyl);
  geo.degree = kDegree.get(params, 4);
  geo.lx = geo.ly = 2.0 * cyl.radius;
  geo.lz = cyl.height;
  return geo;
}

/// A row of the table: a `Sim` built from the case keys over `defaults`.
/// Every boundary that is not periodic is no-slip (the FlowConfig default):
/// the plates of a slab, the plates and the side wall of a cylinder.
template <class Sim>
CaseInfo row(const char* type, const char* description,
             GeometryFactory geometry, rbc::RbcConfig defaults) {
  return {type, description, std::move(geometry),
          [type, defaults](const operators::Context& fine,
                           const operators::Context& coarse,
                           const Geometry& geo,
                           const ParamMap& p) -> std::unique_ptr<Case> {
            // Perturbation wavelengths default to the domain extents: on a
            // periodic slab they must (the seed is otherwise discontinuous
            // across the seam), in an enclosed cell any O(diameter) value
            // seeds fine.
            rbc::RbcConfig config = defaults;
            config.perturbation_lx = geo.lx;
            config.perturbation_ly = geo.ly;
            return std::make_unique<Sim>(
                fine, coarse, rbc::config_from_params(p, config), geo.lz, type);
          }};
}

using rbc::RbcSimulation;
using ihc::InternallyHeatedSimulation;

}  // namespace

std::span<const CaseInfo> builtin_cases() {
  // Sorted by type, the order --list-cases prints. A rotating case without
  // case.Ro rotates at Ro = 1: non-rotating is what case.type = rbc says.
  static const CaseInfo table[] = {
      row<InternallyHeatedSimulation>(
          "ihc", "internally heated convection (uniform source, both plates cold)",
          slab({}), {}),
      row<RbcSimulation>(
          "rbc", "Rayleigh-Benard convection in a horizontally periodic slab",
          slab({}), {}),
      row<RbcSimulation>(
          "rbc2d",
          "quasi-2D RBC slab (y-invariant seed, thin mesh, low degree): the "
          "cheap mass-campaign fast path",
          slab({.nz = 2, .ly = 1.0, .degree = 3}), {.y_invariant = true}),
      row<RbcSimulation>(
          "rbc_cyl",
          "RBC in a cylindrical cell (o-grid mesh, case.aspect = diameter/height)",
          cylinder, {}),
      row<RbcSimulation>(
          "rbc_rot",
          "rotating RBC about e_z (Coriolis forcing, case.Ro; default Ro = 1)",
          slab({}), {.rossby = 1.0}),
  };
  return table;
}

const CaseInfo& resolve_case(const ParamMap& params) {
  const std::string type = kType.get(params, "rbc");
  const std::span<const CaseInfo> table = builtin_cases();
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const CaseInfo& c) { return c.type == type; });
  if (it != table.end()) return *it;
  std::ostringstream os;
  os << "unknown case type '" << type << "'; registered cases:";
  for (const CaseInfo& c : table) os << " " << c.type;
  throw Error(os.str());
}

}  // namespace felis::cases
