/// \file checkpoint_manager.hpp
/// \brief Rotating crash-safe checkpoint store with automatic recovery.
///
/// The paper's campaigns restart constantly; what kills them is not the
/// restart itself but the window where the only checkpoint on disk is the
/// one being overwritten. The manager closes that window: every write goes
/// through io::atomic_write_file into a fresh `<basename>.<step>.ckpt` file,
/// transient I/O errors are retried with exponential backoff, the newest
/// `keep` checkpoints are retained, and recovery scans newest-to-oldest,
/// skipping any file whose CRCs fail — so a run killed mid-write always
/// comes back from the newest *valid* state.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fluid/checkpoint.hpp"
#include "io/fault_injector.hpp"

namespace felis::telemetry {
class Telemetry;
}

namespace felis::fluid {

struct CheckpointConfig {
  std::string directory = "checkpoints";
  std::string basename = "felis";
  int keep = 3;              ///< rotation depth (older checkpoints pruned)
  std::int64_t every = 0;    ///< checkpoint every N steps (0 = manual only)
  int max_retries = 3;       ///< extra attempts after a transient failure
  int retry_backoff_ms = 10; ///< first backoff; doubles per retry
};

/// The checkpoint.* keys of a case file, read by config_from_params.
inline constexpr Param<std::string> kCheckpointBasename{"checkpoint.basename", "stem"};
inline constexpr Param<int> kCheckpointKeep{"checkpoint.keep", 1, "rotation depth"};
inline constexpr Param<int> kCheckpointEvery{"checkpoint.every", 0, "period (0 = never)"};
inline constexpr Param<int> kCheckpointRetries{"checkpoint.retries", 0, "write retries"};
inline constexpr Param<int> kCheckpointBackoffMs{"checkpoint.backoff_ms", 0, "backoff"};
inline constexpr const ParamDecl* kCheckpointParams[] = {
    &kCheckpointBasename, &kCheckpointKeep, &kCheckpointEvery, &kCheckpointRetries,
    &kCheckpointBackoffMs};

class CheckpointManager {
 public:
  /// `telemetry`'s step record counts the checkpoint.* values; null leaves
  /// writes uncounted. Each run passes its own, so concurrent runs in one
  /// process each count their own writes.
  explicit CheckpointManager(CheckpointConfig config,
                             io::FaultInjector* fault = nullptr,
                             telemetry::Telemetry* telemetry = nullptr);

  /// Read the checkpoint.* keys below over the CheckpointConfig defaults. The
  /// directory is the host's: every caller places its own rotation.
  static CheckpointConfig config_from_params(const ParamMap& params);

  /// Durably write `ck` as `<dir>/<basename>.<step>.ckpt`, retrying
  /// transient failures with exponential backoff, then prune the rotation
  /// to `keep` files. Returns the final path. io::InjectedCrash (a simulated
  /// process death) is never retried — it propagates like a real kill.
  /// `checkpoint.write_seconds` times serialization, the durable write and
  /// every retry.
  std::string write(const Checkpoint& ck);

  /// Scan the rotation newest-to-oldest and return the first checkpoint
  /// that deserializes cleanly (CRCs intact); empty optional when none do.
  /// Corrupt or truncated files are skipped, not fatal.
  std::optional<Checkpoint> load_latest(std::string* path_out = nullptr) const;

  /// Checkpoint paths in the rotation directory, oldest first.
  std::vector<std::string> list() const;

  /// Step indices present in the rotation directory, oldest first (the
  /// value-level view rotation and recovery decisions are made from; see
  /// fluid/checkpoint_policy.hpp).
  std::vector<std::int64_t> list_steps() const;

  /// True when `step` is a scheduled checkpoint step (config.every).
  bool due(std::int64_t step) const;

  std::string path_for_step(std::int64_t step) const;
  const CheckpointConfig& config() const { return config_; }

 private:
  CheckpointConfig config_;
  io::FaultInjector* fault_;
  telemetry::Telemetry* telemetry_;
};

}  // namespace felis::fluid
