/// \file chrome_trace.hpp
/// \brief Chrome `trace_event` JSON exporter: Profiler regions, execution-
/// stream intervals and step boundaries on one timeline.
///
/// The paper's Fig. 2 is a stream timeline of the task-overlapped coarse
/// solve; Fig. 4 is a region breakdown of the step. Both views come from the
/// same run here: the Profiler's regions, the preconditioner's stream
/// intervals and the step marks all land in the run's one TraceRecorder, so
/// the exporter writes them in one pass into a single JSON object-format
/// trace that chrome://tracing and Perfetto load directly.
///
/// Mapping:
///  * kRegionTrack  → complete events ("ph":"X"), tid 1, cat "profiler"
///    (properly nested, so the viewer renders the region tree as a flame);
///  * stream tracks → complete events, tid 100 + stream id, cat "stream";
///  * kStepTrack    → global instant events ("ph":"i", "s":"g"), cat "step";
///  * run metadata  → "otherData" (backend, threads, polynomial order —
///    the same keys BENCH_*.json records carry, so traces and bench sweeps
///    are joinable).
/// All timestamps are microseconds since the recorder's start.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"

namespace felis::telemetry {

/// JSON-escape `s` for embedding inside a double-quoted string.
std::string json_escape(const std::string& s);

/// Serialize the recorder's `events` (TraceRecorder::events()); `metadata`
/// lands in "otherData".
std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::map<std::string, std::string>& metadata);

}  // namespace felis::telemetry
