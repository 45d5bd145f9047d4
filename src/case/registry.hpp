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
#include "device/backend.hpp"
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

/// The case layer's keys: resolve_case reads kType, the table's geometry
/// factories the mesh keys and kAspect, every row's rbc::config_from_params the
/// physics keys, build_case kTelemetryEnabled. Absent, a key takes its row's default.
inline constexpr Param<std::string> kType{"case.type", "builtin case (default rbc)"};
inline constexpr Param<real_t> kRa{"case.Ra", kPositive, "Rayleigh number"};
inline constexpr Param<real_t> kPr{"case.Pr", kPositive, "Prandtl number"};
inline constexpr Param<real_t> kDt{"case.dt", kPositive, "time step"};
inline constexpr Param<real_t> kRo{"case.Ro", 0, "Rossby number (0 = no rotation)"};
inline constexpr Param<real_t> kPerturbation{"case.perturbation", 0, "amplitude"};
inline constexpr Param<real_t> kPerturbLx{"case.perturbation_lx", kPositive, "x period"};
inline constexpr Param<real_t> kPerturbLy{"case.perturbation_ly", kPositive, "y period"};
inline constexpr Param<int> kSeed{"case.seed", 0, "seed of the perturbation"};
inline constexpr Param<real_t> kAspect{"case.aspect", kPositive, "cylinder D/H"};
inline constexpr Param<int> kNx{"mesh.nx", 1, "slab elements in x"};
inline constexpr Param<int> kNy{"mesh.ny", 1, "slab elements in y"};
inline constexpr Param<int> kNz{"mesh.nz", 1, "element layers in z"};
inline constexpr Param<real_t> kLx{"mesh.lx", kPositive, "slab extent in x"};
inline constexpr Param<real_t> kLy{"mesh.ly", kPositive, "slab extent in y"};
inline constexpr Param<real_t> kLz{"mesh.lz", kPositive, "slab plate gap"};
inline constexpr Param<int> kNc{"mesh.nc", 1, "cylinder core elements per side"};
inline constexpr Param<int> kNr{"mesh.nr", 1, "cylinder o-grid ring layers"};
inline constexpr Param<int> kDegree{"mesh.degree", 1, "polynomial degree"};
inline constexpr Param<bool> kTelemetryEnabled{"telemetry.enabled", "open telemetry"};
inline constexpr const ParamDecl* kCaseKeys[] = {
    &kType, &kRa, &kPr, &kDt, &kRo, &kPerturbation, &kPerturbLx, &kPerturbLy, &kSeed,
    &kAspect, &kNx, &kNy, &kNz, &kLx, &kLy, &kLz, &kNc, &kNr, &kDegree,
    &kTelemetryEnabled};

/// Every key a case file may hold: the case layer's and those each of its
/// readers declares.
inline constexpr ParamList kCaseParams[] = {
    kCaseKeys, fluid::kFlowParams, fluid::kCheckpointParams, telemetry::kTelemetryParams,
    device::kBackendParams, io::kFaultParams};

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

/// Resolve kType (default "rbc") against the table. An unknown type throws
/// felis::Error naming it and every builtin type.
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
