/// \file fault_injector.hpp
/// \brief Deterministic I/O fault injection for the durable-write path.
///
/// Long campaigns die in ugly ways: nodes drop mid-write, filesystems return
/// transient errors, files survive with torn or bit-rotted contents. The
/// FaultInjector reproduces those failures deterministically inside
/// io::atomic_write_file so every recovery branch is exercised by tests
/// instead of discovered at Ra = 1e15. Configure it programmatically, from a
/// case file's fault.* keys (declared below), or from the FELIS_FAULT_INJECT
/// environment variable, which spells the same keys bare, e.g.
/// `FELIS_FAULT_INJECT="mode=corrupt; at=2; offset=64"`.
#pragma once

#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/params.hpp"
#include "common/types.hpp"

namespace felis::io {

/// Thrown when the injector simulates a process death. Callers must treat it
/// like a real crash — no retry, no cleanup — so tests observe exactly the
/// on-disk state a kill would leave behind.
class InjectedCrash : public Error {
 public:
  explicit InjectedCrash(const std::string& what) : Error(what) {}
};

/// The fault.* keys, read by FaultInjector::config_from_params.
inline constexpr Param<std::string> kFaultMode{
    "fault.mode", "none | fail-write | truncate | corrupt | crash"};
inline constexpr Param<int> kFaultAt{"fault.at", 1, "first faulty write"};
inline constexpr Param<int> kFaultCount{"fault.count", 0, "faulty writes"};
inline constexpr Param<int> kFaultOffset{"fault.offset", 0, "truncation / flipped byte"};
inline constexpr const ParamDecl* kFaultParams[] = {&kFaultMode, &kFaultAt, &kFaultCount,
                                                    &kFaultOffset};

class FaultInjector {
 public:
  enum class Mode {
    kNone,       ///< no fault
    kFailWrite,  ///< throw before writing anything (transient; retryable)
    kTruncate,   ///< leave a torn final file of `offset` bytes, then "die"
    kCorrupt,    ///< flip a byte at `offset` in the final file (silent bitrot)
    kCrash,      ///< write the tmp file fully, "die" before the rename
  };

  struct Config {
    Mode mode = Mode::kNone;
    int at = 1;        ///< 1-based index of the first write that faults
    int count = 1;     ///< number of consecutive faulting writes
    usize offset = 0;  ///< truncation length / corrupted byte offset
  };

  FaultInjector() = default;
  explicit FaultInjector(Config config) : config_(config) {}

  /// Read the fault.* keys over the Config defaults.
  static Config config_from_params(const ParamMap& params);
  /// Parse FELIS_FAULT_INJECT ("mode=...; at=...; count=...; offset=...");
  /// empty optional when the variable is unset or blank. A key that is not
  /// one of the four throws felis::Error naming it.
  static std::optional<Config> config_from_env();

  /// Called by the atomic-write helper once per write attempt; returns the
  /// fault (if any) to apply to that attempt.
  Mode next_write_action();

  const Config& config() const { return config_; }
  int writes_observed() const { return writes_; }
  int faults_fired() const { return fired_; }

 private:
  Config config_;
  int writes_ = 0;
  int fired_ = 0;
};

}  // namespace felis::io
