#include "case/registry.hpp"

#include <filesystem>

#include "precon/coarse.hpp"

namespace felis::cases {

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
  setup->coarse = precon::make_coarse_setup(setup->geometry.mesh, comm);

  if (channel != nullptr && kTelemetryEnabled.get(params, false)) {
    telemetry::TelemetryConfig tc = telemetry::config_from_params(params);
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
