#include "obs/exporters.hpp"

#include <filesystem>
#include <map>

#include "common/json.hpp"
#include "common/trace.hpp"
#include "io/atomic_file.hpp"

namespace felis::obs {

std::string status_json(const CampaignSnapshot& snap) {
  // One member per line; nested objects spaced, the maps inside them compact.
  constexpr JsonLayout kInline{"{", ", ", ": ", "}"};
  std::string cases = "[\n";
  for (const CaseView& v : snap.cases) {
    if (cases.size() > 2) cases += ",\n";
    cases += "    ";
    cases += JsonWriter(kInline)
                 .field("case", v.id)
                 .field("state", v.state)
                 .fields({{"attempts", v.attempts}, {"threads", v.threads},
                          {"steps_planned", v.steps_planned}, {"step", v.step},
                          {"time", v.sim_time}, {"progress", v.progress},
                          {"cost_seconds", v.cost_seconds},
                          {"wall_seconds", v.wall_seconds}, {"queued_t", v.queued_t},
                          {"running_t", v.running_t}, {"finished_t", v.finished_t}})
                 .flag("telemetry_found", v.telemetry_found)
                 .fields({{"nu_volume", v.nusselt}, {"cfl", v.cfl},
                          {"pressure_residual", v.pressure_residual},
                          {"pressure_iterations", v.pressure_iterations},
                          {"slowdown", v.slowdown}})
                 .flag("straggler", v.straggler)
                 .object("health_flags", v.health_flags)
                 .object("metrics", v.metrics)
                 .done();
  }
  cases += "\n  ]";
  JsonWriter doc({"{\n  ", ",\n  ", ": ", "\n}\n"});
  doc.field("type", "campaign_status").field("schema", kStatusSchema);
  doc.field("campaign", snap.campaign).flag("manifest_found", snap.manifest_found);
  doc.fields({{"workers", snap.workers}, {"thread_budget", snap.thread_budget},
              {"ranks", snap.ranks}, {"resumes", snap.resumes},
              {"clock_seconds", snap.clock_seconds}});
  doc.raw("counts", JsonWriter(kInline)
                        .fields({{"declared", snap.declared}, {"queued", snap.queued},
                                 {"running", snap.running}, {"done", snap.done},
                                 {"failed", snap.failed}, {"retried", snap.retried}})
                        .done());
  doc.fields({{"retry_transitions", snap.retry_transitions},
              {"threads_in_flight", snap.threads_in_flight}});
  doc.raw("progress",
          JsonWriter(kInline)
              .fields({{"total_cost_seconds", snap.total_cost_seconds},
                       {"done_cost_seconds", snap.done_cost_seconds},
                       {"progressed_cost_seconds", snap.progressed_cost_seconds},
                       {"completed_fraction", snap.completed_fraction},
                       {"cost_rate", snap.cost_rate}, {"eta_seconds", snap.eta_seconds}})
              .done());
  doc.raw("health", JsonWriter(kInline)
                        .field("anomalies", snap.anomalies)
                        .object("flags", snap.health_flags)
                        .done());
  return doc.raw("cases", cases).done();
}

std::string campaign_trace_json(const CampaignFold& fold) {
  const CampaignSnapshot& snap = fold.snapshot;
  ChromeTraceWriter trace;

  // Track layout: pid 1 is the scheduler (queue-wait intervals + transition
  // instants); every case gets its own process, pid 100+i in declaration
  // order (attempt intervals + per-step instants rebased to the campaign
  // clock via the attempt's `running` timestamp).
  trace.process_name(1, "scheduler");
  trace.thread_name(1, 1, "queue");
  trace.thread_name(1, 2, "transitions");
  std::map<std::string, int> case_pid;
  for (usize i = 0; i < snap.cases.size(); ++i) {
    const int pid = 100 + static_cast<int>(i);
    case_pid[snap.cases[i].id] = pid;
    trace.process_name(pid, snap.cases[i].id);
    trace.thread_name(pid, 1, "attempts");
    trace.thread_name(pid, 2, "steps");
  }

  std::map<std::string, double> pending_queued;
  std::map<std::string, double> pending_running;
  for (const RunEvent& e : fold.run_events) {
    const auto pid_it = case_pid.find(e.case_id);
    if (pid_it == case_pid.end()) continue;
    trace.instant(1, 2, e.case_id + " -> " + e.state, "sched", e.t);
    if (e.state == "queued") {
      pending_queued[e.case_id] = e.t;
    } else if (e.state == "running") {
      const auto q = pending_queued.find(e.case_id);
      if (q != pending_queued.end()) {
        trace.complete(1, 1, e.case_id, "sched", q->second, e.t,
                       JsonWriter().field("attempt", e.attempt).done());
        pending_queued.erase(q);
      }
      pending_running[e.case_id] = e.t;
    } else {
      const auto r = pending_running.find(e.case_id);
      if (r != pending_running.end()) {
        trace.complete(
            pid_it->second, 1,
            "attempt " + std::to_string(e.attempt) + " (" + e.state + ")", "sched",
            r->second, e.t,
            JsonWriter().field("state", e.state).field("attempt", e.attempt).done());
        pending_running.erase(r);
      }
    }
  }

  for (const CaseView& v : snap.cases) {
    const auto marks = fold.step_marks.find(v.id);
    if (marks == fold.step_marks.end()) continue;
    const int pid = case_pid[v.id];
    const double base = v.running_t >= 0 ? v.running_t : 0.0;
    for (const StepMark& mark : marks->second) {
      trace.instant(pid, 2, "step " + std::to_string(mark.step), "step",
                    base + mark.wall_seconds);
    }
  }

  return trace.done(JsonWriter()
                        .field("merged", "campaign")
                        .field("campaign", snap.campaign)
                        .field("cases", std::to_string(snap.cases.size()))
                        .field("workers", std::to_string(snap.workers))
                        .field("thread_budget", std::to_string(snap.thread_budget))
                        .field("resumes", std::to_string(snap.resumes))
                        .field("clock_seconds", json_number(snap.clock_seconds))
                        .done());
}

std::string write_status_json(const CampaignSnapshot& snap,
                              const std::string& dir) {
  const std::string path = (std::filesystem::path(dir) / "status.json").string();
  io::AtomicFileWriter writer(path);
  writer.stream() << status_json(snap);
  writer.commit();
  return path;
}

}  // namespace felis::obs
