/// \file exporters.hpp
/// \brief Campaign observability exporters: JSON status and merged Chrome
/// trace.
///
/// Two read-only views over one obs::read_campaign fold, for two consumers:
///
///  * status_json()        machine-readable snapshot (schema
///                         felis-campaign-status-2) — per-case states exactly
///                         equal to the manifest fold, queue shape,
///                         progress/ETA/straggler roll-ups, health flags;
///  * campaign_trace_json() a Chrome trace_event file placing each case on
///                         its own track (pid per case: queue-wait and
///                         attempt intervals, per-step instants of the
///                         current attempt rebased onto the campaign clock)
///                         with the scheduler's queue and transition events
///                         interleaved on pid 1; it needs a fold read with
///                         step marks. Validated by tools/felis_trace.py
///                         --check (otherData carries "merged":"campaign").
///
/// write_status_json() persists the status document next to the manifest
/// through io::AtomicFileWriter, so a concurrent reader never sees a torn
/// snapshot.
#pragma once

#include <string>

#include "obs/campaign_monitor.hpp"

namespace felis::obs {

inline constexpr const char* kStatusSchema = "felis-campaign-status-2";

/// Pretty-printed JSON status document for `snap`.
std::string status_json(const CampaignSnapshot& snap);

/// Merged Chrome trace built from the fold's run events and per-case step
/// marks.
std::string campaign_trace_json(const CampaignFold& fold);

/// Atomically write `dir`/status.json for `snap`; returns its path.
std::string write_status_json(const CampaignSnapshot& snap,
                              const std::string& dir);

}  // namespace felis::obs
