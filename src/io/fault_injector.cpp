#include "io/fault_injector.hpp"

#include <cstdlib>

namespace felis::io {

namespace {
FaultInjector::Mode parse_mode(const std::string& s) {
  using Mode = FaultInjector::Mode;
  if (s == "none") return Mode::kNone;
  if (s == "fail-write") return Mode::kFailWrite;
  if (s == "truncate") return Mode::kTruncate;
  if (s == "corrupt") return Mode::kCorrupt;
  if (s == "crash") return Mode::kCrash;
  FELIS_CHECK_MSG(false, "fault injector: unknown mode '"
                             << s
                             << "' (expected none | fail-write | truncate | "
                                "corrupt | crash)");
  return Mode::kNone;  // unreachable
}
}  // namespace

FaultInjector::Config FaultInjector::config_from_params(const ParamMap& params) {
  Config c;
  c.mode = parse_mode(kFaultMode.get(params, "none"));
  c.at = kFaultAt.get(params, c.at);
  c.count = kFaultCount.get(params, c.count);
  c.offset = static_cast<usize>(kFaultOffset.get(params, 0));
  return c;
}

std::optional<FaultInjector::Config> FaultInjector::config_from_env() {
  const char* env = std::getenv("FELIS_FAULT_INJECT");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const ParamMap bare = ParamMap::parse(env);
  ParamMap params;
  for (const auto& [key, value] : bare.entries()) params.set("fault." + key, value);
  const ParamList keys[] = {kFaultParams};
  try {
    check_params(params, keys);
  } catch (const Error& e) {
    throw Error(std::string("FELIS_FAULT_INJECT: ") + e.what());
  }
  return config_from_params(params);
}

FaultInjector::Mode FaultInjector::next_write_action() {
  ++writes_;
  if (config_.mode == Mode::kNone) return Mode::kNone;
  if (writes_ >= config_.at && writes_ < config_.at + config_.count) {
    ++fired_;
    return config_.mode;
  }
  return Mode::kNone;
}

}  // namespace felis::io
