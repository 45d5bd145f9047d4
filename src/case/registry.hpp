/// \file registry.hpp
/// \brief The case table: every builtin `case.type`, with the factories
/// that build its scenario (geometry + boundary conditions + forcing +
/// initial conditions + observables), and the one rank builder.
///
/// Hosts (quickstart, felis_campaign, the distributed driver) never name a
/// concrete case class; they resolve `case.type` here and build through the
/// returned CaseInfo. The builtins — the scenario matrix —
///   ihc      internally heated convection (Goluskin, both plates cold)
///   rbc      periodic-slab Rayleigh–Bénard (the paper's configuration)
///   rbc2d    quasi-2D thin slab, low degree: the cheap mass-campaign path
///   rbc_cyl  cylindrical-cell RBC (o-grid mesh, case.aspect = Γ = D/H)
///   rbc_rot  rotating RBC (Coriolis forcing, case.Ro)
/// are the rows of one constant table in builtin.cpp. (`case` is a C++
/// keyword, hence the namespace felis::cases.)
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>

#include "case/case.hpp"
#include "common/params.hpp"
#include "mesh/hex_mesh.hpp"
#include "operators/setup.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::cases {

/// A case's discretization domain: the global mesh plus the extents the
/// case factory needs for physically consistent defaults (e.g. periodic
/// perturbation wavelengths must equal the box extents).
struct Geometry {
  mesh::HexMesh mesh;
  int degree = 4;  ///< polynomial degree of the fine space
  real_t lx = 1, ly = 1, lz = 1;  ///< bounding extents (lz = plate gap)
};

/// Build the global mesh from the mesh.* keys of the case file.
using GeometryFactory = std::function<Geometry(const ParamMap& params)>;
/// Build the case over ready-made contexts. `geometry` is the same object
/// the GeometryFactory returned; `params` carries the case.* keys.
using CaseFactory = std::function<std::unique_ptr<Case>(
    const operators::Context& fine, const operators::Context& coarse,
    const Geometry& geometry, const ParamMap& params)>;

struct CaseInfo {
  std::string type;         ///< the `case.type` key this row serves
  std::string description;  ///< one line for --list-cases
  GeometryFactory make_geometry;
  CaseFactory make_case;
};

/// The builtin case types, sorted by type: one constant row each.
std::span<const CaseInfo> builtin_cases();

/// Resolve `case.type` (default "rbc") against the table. An unknown type
/// throws felis::Error naming it and every builtin type.
const CaseInfo& resolve_case(const ParamMap& params);

/// Where a rank's telemetry goes, as its host names it: the output
/// directory and the host's own header keys (`program`, `case`, ...).
/// build_case does the rest: the other `telemetry.*` keys, one `rank<r>/`
/// subdirectory per rank when the communicator has more than one (ranks are
/// threads of one process and would interleave one stream), and the identity
/// keys every header carries (`type`, `backend`, `threads`, `degree`,
/// `rank`, `size`).
struct TelemetryChannel {
  std::string dir;
  std::map<std::string, std::string> header;
};

/// Everything needed to run a resolved case on one rank. Heap-only and
/// pinned: operators::Context instances capture raw pointers into the
/// RankSetup value members, so this object must never move once `sim` is
/// built (deleting copy also suppresses move). Members are declared in
/// lifetime order: the case goes first, then the telemetry it writes to.
struct CaseSetup {
  Geometry geometry;
  operators::RankSetup fine;
  operators::RankSetup coarse;
  /// The rank's telemetry; null unless a channel was asked for and
  /// `telemetry.enabled` is set.
  std::unique_ptr<telemetry::Telemetry> telemetry;
  std::unique_ptr<Case> sim;

  CaseSetup() = default;
  CaseSetup(const CaseSetup&) = delete;
  CaseSetup& operator=(const CaseSetup&) = delete;
};

/// Build a case end-to-end on this rank: geometry → fine/coarse rank setups
/// (3/2-rule dealiasing) → telemetry → case instance, with the telemetry
/// attached to the case's solver. `backend` null = process default. Without a
/// `channel` nothing is written, whatever the telemetry.* keys say. Initial
/// conditions are NOT applied (callers restore-or-seed).
std::unique_ptr<CaseSetup> build_case(const CaseInfo& info,
                                      const ParamMap& params,
                                      comm::Communicator& comm,
                                      device::Backend* backend = nullptr,
                                      const TelemetryChannel* channel = nullptr);

}  // namespace felis::cases
