/// \file exporters.hpp
/// \brief Campaign observability exporters: JSON status, Prometheus text
/// exposition, merged Chrome trace.
///
/// Three read-only views over one obs::read_campaign fold, for three
/// consumers:
///
///  * status_json()        machine-readable snapshot (schema
///                         felis-campaign-status-2) — per-case states exactly
///                         equal to the manifest fold, queue shape,
///                         progress/ETA/straggler roll-ups, health flags;
///  * status_prometheus()  Prometheus/OpenMetrics-style text exposition
///                         (felis_campaign_* samples) for scrape-based
///                         dashboards;
///  * campaign_trace_json() a Chrome trace_event file placing each case on
///                         its own track (pid per case: queue-wait and
///                         attempt intervals, per-step instants of the
///                         current attempt rebased onto the campaign clock)
///                         with the scheduler's queue and transition events
///                         interleaved on pid 1; it needs a fold read with
///                         step marks. Validated by tools/felis_trace.py
///                         --check (otherData carries "merged":"campaign").
///
/// write_status_files() persists the first two next to the manifest through
/// io::AtomicFileWriter, so a concurrently running scraper never reads a
/// torn snapshot.
#pragma once

#include <string>

#include "obs/campaign_monitor.hpp"

namespace felis::obs {

inline constexpr const char* kStatusSchema = "felis-campaign-status-2";

/// Pretty-printed JSON status document for `snap`.
std::string status_json(const CampaignSnapshot& snap);

/// Prometheus-style text exposition for `snap`.
std::string status_prometheus(const CampaignSnapshot& snap);

/// Merged Chrome trace built from the fold's run events and per-case step
/// marks.
std::string campaign_trace_json(const CampaignFold& fold);

struct StatusPaths {
  std::string json;  ///< <dir>/status.json
  std::string prom;  ///< <dir>/status.prom
};

/// Atomically write status.json and status.prom for `snap` into `dir`.
StatusPaths write_status_files(const CampaignSnapshot& snap,
                               const std::string& dir);

}  // namespace felis::obs
