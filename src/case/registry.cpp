#include "case/registry.hpp"

#include <filesystem>
#include <sstream>

#include "precon/coarse.hpp"

namespace felis::cases {

void Registry::add(CaseInfo info) {
  FELIS_CHECK_MSG(!info.type.empty(), "case type must be non-empty");
  FELIS_CHECK_MSG(info.make_geometry && info.make_case,
                  "case '" << info.type << "' needs both factories");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = infos_.emplace(info.type, std::move(info));
  if (!inserted)
    throw Error("case type '" + it->first + "' is already registered");
}

const CaseInfo& Registry::resolve(const std::string& type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = infos_.find(type);
  if (it == infos_.end()) {
    std::ostringstream os;
    os << "unknown case type '" << type << "'; registered cases:";
    for (const auto& [name, info] : infos_) os << " " << name;
    throw Error(os.str());
  }
  return it->second;
}

bool Registry::contains(const std::string& type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return infos_.count(type) > 0;
}

std::vector<std::string> Registry::types() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(infos_.size());
  for (const auto& [name, info] : infos_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::vector<CaseInfo> Registry::infos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CaseInfo> out;
  out.reserve(infos_.size());
  for (const auto& [name, info] : infos_) out.push_back(info);
  return out;
}

Registry& Registry::global() {
  // Builtins are installed lazily here rather than by per-TU static
  // initializers: felis links as static libraries, where nothing references
  // a registration-only TU and the linker would drop it.
  static Registry registry;
  static std::once_flag once;
  std::call_once(once, [] { detail::register_builtins(registry); });
  return registry;
}

const CaseInfo& resolve_case(const ParamMap& params) {
  return Registry::global().resolve(params.get_string("case.type", "rbc"));
}

std::unique_ptr<CaseSetup> build_case(const CaseInfo& info,
                                      const ParamMap& params,
                                      comm::Communicator& comm,
                                      device::Backend* backend,
                                      const TelemetryChannel* channel) {
  auto setup = std::make_unique<CaseSetup>();
  setup->geometry = info.make_geometry(params);
  setup->fine = operators::make_rank_setup(setup->geometry.mesh,
                                           setup->geometry.degree, comm,
                                           /*dealias=*/true,
                                           /*three_halves_rule=*/true, backend);
  setup->coarse = precon::make_coarse_setup(setup->geometry.mesh, comm, backend);

  telemetry::TelemetryConfig tc;
  if (channel != nullptr) tc = telemetry::config_from_params(params);
  if (tc.enabled) {
    std::filesystem::path dir = channel->dir;
    if (comm.size() > 1) dir /= "rank" + std::to_string(comm.rank());
    tc.dir = dir.string();
    const device::Backend& dev = setup->fine.ctx().dev();
    std::map<std::string, std::string> header{
        {"type", info.type},
        {"backend", dev.name()},
        {"threads", std::to_string(dev.concurrency())},
        {"degree", std::to_string(setup->geometry.degree)},
        {"rank", std::to_string(comm.rank())},
        {"size", std::to_string(comm.size())}};
    header.insert(channel->header.begin(), channel->header.end());
    setup->telemetry =
        std::make_unique<telemetry::Telemetry>(std::move(tc), std::move(header));
  }
  setup->sim =
      info.make_case(setup->fine.ctx(), setup->coarse.ctx(), setup->geometry,
                     params);
  setup->sim->solver().attach_telemetry(setup->telemetry.get());
  return setup;
}

}  // namespace felis::cases
