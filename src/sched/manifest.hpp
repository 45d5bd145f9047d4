/// \file manifest.hpp
/// \brief Crash-safe campaign manifest: NDJSON run-state journal + resume.
///
/// The manifest is the campaign's single source of truth on disk, written
/// through io::DurableAppendWriter (append-only, fsync-per-record, at most
/// one torn final line after a kill). Records:
///
///   {"type":"header", "schema":"felis-campaign-1", "campaign":..., ...}
///   {"type":"case",   "case":id, "threads":t, "steps":s, "cost_seconds":c,
///                     "overrides":{swept key:value,...}}
///   {"type":"run",    "case":id, "state":queued|running|done|failed|retried,
///                     "attempt":k, "t":campaign-clock, "wall_seconds":w,
///                     "detail":..., "metrics":{...}}
///   {"type":"resume", "pending":n}
///
/// State machine per case: queued → running → done | failed | retried;
/// retried and failed cases may be re-queued (by the in-session retry loop or
/// by a later resume). A campaign killed at any instant resumes from its
/// manifest: `done` cases are never re-run, everything else is re-queued and
/// its runner picks up from the newest valid checkpoint.
///
/// Both sides of the protocol are exposed as *pure* functions —
/// format_*_record() produce the exact on-disk line and apply_manifest_line()
/// folds one journal line into a replay state — so the production writer and
/// reader share one implementation with the explicit-state model checker
/// (src/verify/manifest_model.*), which explores crash/torn-tail/duplicate
/// faults over exactly this code.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "sched/sweep.hpp"

namespace felis::io {
class DurableAppendWriter;
}

namespace felis::sched {

struct CampaignSpec;

inline constexpr const char* kManifestSchema = "felis-campaign-1";

/// Replay found journal records that contradict the state machine — e.g. a
/// second terminal record for a case that is already `done` (last-writer-wins
/// used to let a stale `failed` resurrect a completed case, re-running it, or
/// a stale `done` mask a real failure). A valid record stream written by one
/// scheduler never triggers this; it means two writers shared a manifest or a
/// writer violated the protocol, and the campaign must stop loudly rather
/// than guess.
class ManifestReplayError : public Error {
 public:
  explicit ManifestReplayError(const std::string& what) : Error(what) {}
};

/// Pure record formatters: the exact journal line (no trailing newline) the
/// writer appends. Shared by ManifestWriter and the protocol model so the
/// checker explores the real on-disk encoding.
std::string format_header_record(const CampaignSpec& spec);
std::string format_case_record(const CaseSpec& spec);
std::string format_resume_record(int pending);
std::string format_run_record(const std::string& case_id,
                              const std::string& state, int attempt,
                              double campaign_seconds, double wall_seconds,
                              const std::string& detail = "",
                              const std::map<std::string, double>& metrics = {});

/// Thread-safe append-side of the manifest (workers log transitions
/// concurrently). Appending to an existing manifest resumes its journal.
class ManifestWriter {
 public:
  explicit ManifestWriter(const std::string& path);
  ~ManifestWriter();

  void write_header(const CampaignSpec& spec);
  void write_case(const CaseSpec& spec);
  void write_resume(int pending);
  /// `metrics` (done transitions) and `detail` (failures) may be empty.
  void write_transition(const std::string& case_id, const std::string& state,
                        int attempt, double campaign_seconds,
                        double wall_seconds, const std::string& detail = "",
                        const std::map<std::string, double>& metrics = {});

 private:
  std::mutex mutex_;
  std::unique_ptr<io::DurableAppendWriter> out_;
};

/// Replay-side: the last observed state per case. Tolerates a missing file
/// (fresh campaign) and a torn final line (killed mid-append).
struct CaseStatus {
  std::string state;  ///< last transition ("" = never enqueued)
  int attempts = 0;   ///< highest attempt number observed
  /// Metrics of the `done` record, so a resumed campaign can still aggregate
  /// (Nu-vs-Ra CSV) over cases it did not re-run this session.
  std::map<std::string, double> metrics;
  bool completed() const { return state == "done"; }
};

struct ManifestState {
  std::map<std::string, CaseStatus> cases;
  bool found = false;  ///< manifest file existed
};

/// Pure replay transition: fold one journal line into `state`. Torn lines
/// (no closing '}' or a value cut mid-record), blank lines and header, case
/// and resume records are ignored — a kill can tear at most the final line.
/// Rules:
///  * `done` is absorbing: queued/running/retried records for a completed
///    case are stale late appends and are ignored, never applied;
///  * a terminal record (`done`/`failed`) for a case whose replayed state is
///    already terminal — with no re-queue in between — throws
///    ManifestReplayError (duplicate terminal record);
///  * a complete `submit` record, written only by the retired campaign
///    service mode, throws ManifestReplayError naming the submission;
///  * everything else is last-writer-wins, as before.
void apply_manifest_line(ManifestState& state, const std::string& line);

ManifestState read_manifest(const std::string& path);

/// Minimal extractors for the manifest's own (writer-controlled) JSON lines;
/// shared with tests. Empty optional when the key is absent or the line is
/// torn mid-value.
std::string extract_json_string(const std::string& line, const std::string& key,
                                bool* found = nullptr);
double extract_json_number(const std::string& line, const std::string& key,
                           bool* found = nullptr);
/// Parse the flat `"metrics":{...}` object of a run record (empty when
/// absent or torn).
std::map<std::string, double> extract_json_metrics(const std::string& line);

}  // namespace felis::sched
