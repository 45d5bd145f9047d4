#include "fluid/checkpoint_manager.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/trace.hpp"
#include "fluid/checkpoint_policy.hpp"
#include "io/atomic_file.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::fluid {

namespace fs = std::filesystem;

CheckpointManager::CheckpointManager(CheckpointConfig config,
                                     io::FaultInjector* fault,
                                     telemetry::Telemetry* telemetry)
    : config_(std::move(config)), fault_(fault), telemetry_(telemetry) {
  FELIS_CHECK_MSG(config_.keep >= 1, "checkpoint rotation needs keep >= 1");
  FELIS_CHECK_MSG(config_.max_retries >= 0,
                  "checkpoint retry count must be >= 0");
}

CheckpointConfig CheckpointManager::config_from_params(const ParamMap& params) {
  CheckpointConfig c;
  c.basename = kCheckpointBasename.get(params, c.basename);
  c.keep = kCheckpointKeep.get(params, c.keep);
  c.every = kCheckpointEvery.get(params, static_cast<int>(c.every));
  c.max_retries = kCheckpointRetries.get(params, c.max_retries);
  c.retry_backoff_ms = kCheckpointBackoffMs.get(params, c.retry_backoff_ms);
  return c;
}

std::string CheckpointManager::path_for_step(std::int64_t step) const {
  return (fs::path(config_.directory) /
          checkpoint_file_name(config_.basename, step))
      .string();
}

bool CheckpointManager::due(std::int64_t step) const {
  return checkpoint_due(config_.every, step);
}

std::string CheckpointManager::write(const Checkpoint& ck) {
  const Stopwatch watch;
  fs::create_directories(config_.directory);
  const std::string path = path_for_step(ck.step);
  const std::vector<std::byte> blob = ck.serialize();
  int retries = 0;
  for (int attempt = 0;; ++attempt) {
    try {
      io::atomic_write_file(path, blob, fault_);
      break;
    } catch (const io::InjectedCrash&) {
      throw;  // a simulated process death: no retry, like the real thing
    } catch (const Error&) {
      if (attempt >= config_.max_retries) throw;
      ++retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(config_.retry_backoff_ms) << attempt));
    }
  }
  if (telemetry_ != nullptr) {
    telemetry::StepRecord& r = telemetry_->record();
    ++r.checkpoint_writes;
    r.checkpoint_bytes += static_cast<std::int64_t>(blob.size());
    r.checkpoint_write_seconds.observe(watch.seconds());
    if (retries > 0) {
      r.checkpoint_retries += retries;
      telemetry_->health().flag_checkpoint_retries(retries, path);
    }
  }
  // Prune the rotation via the shared policy; never the file just written.
  for (const std::int64_t victim :
       checkpoint_prune_victims(list_steps(), config_.keep)) {
    std::error_code ec;
    // Best effort: pruning must not kill a run.
    fs::remove(path_for_step(victim), ec);
  }
  return path;
}

std::vector<std::int64_t> CheckpointManager::list_steps() const {
  std::vector<std::int64_t> steps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto step = checkpoint_step_from_name(
        entry.path().filename().string(), config_.basename);
    if (step) steps.push_back(*step);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

std::vector<std::string> CheckpointManager::list() const {
  std::vector<std::string> paths;
  for (const std::int64_t step : list_steps())
    paths.push_back(path_for_step(step));
  return paths;
}

std::optional<Checkpoint> CheckpointManager::load_latest(
    std::string* path_out) const {
  for (const std::int64_t step : checkpoint_recovery_order(list_steps())) {
    const std::string path = path_for_step(step);
    try {
      Checkpoint ck = Checkpoint::load(path);
      if (path_out) *path_out = path;
      return ck;
    } catch (const Error&) {
      // Torn, truncated or bit-rotted checkpoint: skip to the next-oldest.
      continue;
    }
  }
  return std::nullopt;
}

}  // namespace felis::fluid
