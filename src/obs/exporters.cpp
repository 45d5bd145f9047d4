#include "obs/exporters.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "io/atomic_file.hpp"
#include "telemetry/chrome_trace.hpp"

namespace felis::obs {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += telemetry::json_escape(s);
  out += '"';
  return out;
}

void emit_flat_map(std::ostringstream& os,
                   const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : m) {
    if (!first) os << ',';
    first = false;
    os << quoted(key) << ':' << num(value);
  }
  os << '}';
}

std::int64_t usec(double seconds) {
  const double us = seconds * 1e6;
  return us > 0 ? static_cast<std::int64_t>(std::llround(us)) : 0;
}

}  // namespace

std::string status_json(const CampaignSnapshot& snap) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"type\": \"campaign_status\",\n";
  os << "  \"schema\": " << quoted(kStatusSchema) << ",\n";
  os << "  \"campaign\": " << quoted(snap.campaign) << ",\n";
  os << "  \"manifest_found\": " << (snap.manifest_found ? "true" : "false")
     << ",\n";
  os << "  \"workers\": " << snap.workers << ",\n";
  os << "  \"thread_budget\": " << snap.thread_budget << ",\n";
  os << "  \"ranks\": " << snap.ranks << ",\n";
  os << "  \"resumes\": " << snap.resumes << ",\n";
  os << "  \"clock_seconds\": " << num(snap.clock_seconds) << ",\n";
  os << "  \"counts\": {\"declared\": " << snap.declared
     << ", \"queued\": " << snap.queued << ", \"running\": " << snap.running
     << ", \"done\": " << snap.done << ", \"failed\": " << snap.failed
     << ", \"retried\": " << snap.retried << "},\n";
  os << "  \"retry_transitions\": " << snap.retry_transitions << ",\n";
  os << "  \"threads_in_flight\": " << snap.threads_in_flight << ",\n";
  os << "  \"progress\": {\"total_cost_seconds\": "
     << num(snap.total_cost_seconds)
     << ", \"done_cost_seconds\": " << num(snap.done_cost_seconds)
     << ", \"progressed_cost_seconds\": " << num(snap.progressed_cost_seconds)
     << ", \"completed_fraction\": " << num(snap.completed_fraction)
     << ", \"cost_rate\": " << num(snap.cost_rate)
     << ", \"eta_seconds\": " << num(snap.eta_seconds) << "},\n";
  os << "  \"health\": {\"anomalies\": " << num(snap.anomalies)
     << ", \"flags\": ";
  emit_flat_map(os, snap.health_flags);
  os << "},\n";
  os << "  \"cases\": [\n";
  bool first = true;
  for (const CaseView& v : snap.cases) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"case\": " << quoted(v.id) << ", \"state\": "
       << quoted(v.state) << ", \"attempts\": " << v.attempts
       << ", \"threads\": " << v.threads
       << ", \"steps_planned\": " << v.steps_planned
       << ", \"step\": " << v.step << ", \"time\": " << num(v.sim_time)
       << ", \"progress\": " << num(v.progress)
       << ", \"cost_seconds\": " << num(v.cost_seconds)
       << ", \"wall_seconds\": " << num(v.wall_seconds)
       << ", \"queued_t\": " << num(v.queued_t)
       << ", \"running_t\": " << num(v.running_t)
       << ", \"finished_t\": " << num(v.finished_t)
       << ", \"telemetry_found\": " << (v.telemetry_found ? "true" : "false")
       << ", \"nu_volume\": " << num(v.nusselt)
       << ", \"cfl\": " << num(v.cfl)
       << ", \"pressure_residual\": " << num(v.pressure_residual)
       << ", \"pressure_iterations\": " << num(v.pressure_iterations)
       << ", \"slowdown\": " << num(v.slowdown)
       << ", \"straggler\": " << (v.straggler ? "true" : "false")
       << ", \"health_flags\": ";
    emit_flat_map(os, v.health_flags);
    os << ", \"metrics\": ";
    emit_flat_map(os, v.metrics);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string campaign_trace_json(const CampaignFold& fold) {
  const CampaignSnapshot& snap = fold.snapshot;
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&os, &first](const std::string& event) {
    if (!first) os << ",\n";
    first = false;
    os << event;
  };
  const auto meta = [&](int pid, int tid, const char* what,
                        const std::string& name) {
    std::ostringstream e;
    e << R"({"name":")" << what << R"(","ph":"M","pid":)" << pid;
    if (tid >= 0) e << R"(,"tid":)" << tid;
    e << R"(,"args":{"name":)" << quoted(name) << "}}";
    emit(e.str());
  };
  const auto complete = [&](int pid, int tid, const std::string& name,
                            const char* cat, double t0, double t1,
                            const std::string& args_json) {
    std::ostringstream e;
    e << R"({"name":)" << quoted(name) << R"(,"cat":")" << cat
      << R"(","ph":"X","ts":)" << usec(t0) << R"(,"dur":)"
      << std::max<std::int64_t>(0, usec(t1) - usec(t0)) << R"(,"pid":)" << pid
      << R"(,"tid":)" << tid;
    if (!args_json.empty()) e << R"(,"args":)" << args_json;
    e << '}';
    emit(e.str());
  };
  const auto instant = [&](int pid, int tid, const std::string& name,
                           const char* cat, double t) {
    std::ostringstream e;
    e << R"({"name":)" << quoted(name) << R"(,"cat":")" << cat
      << R"(","ph":"i","s":"t","ts":)" << usec(t) << R"(,"pid":)" << pid
      << R"(,"tid":)" << tid << '}';
    emit(e.str());
  };

  // Track layout: pid 1 is the scheduler (queue-wait intervals + transition
  // instants); every case gets its own process, pid 100+i in declaration
  // order (attempt intervals + per-step instants rebased to the campaign
  // clock via the attempt's `running` timestamp).
  meta(1, -1, "process_name", "scheduler");
  meta(1, 1, "thread_name", "queue");
  meta(1, 2, "thread_name", "transitions");
  std::map<std::string, int> case_pid;
  for (usize i = 0; i < snap.cases.size(); ++i) {
    const int pid = 100 + static_cast<int>(i);
    case_pid[snap.cases[i].id] = pid;
    meta(pid, -1, "process_name", snap.cases[i].id);
    meta(pid, 1, "thread_name", "attempts");
    meta(pid, 2, "thread_name", "steps");
  }

  std::map<std::string, double> pending_queued;
  std::map<std::string, double> pending_running;
  for (const RunEvent& e : fold.run_events) {
    const auto pid_it = case_pid.find(e.case_id);
    if (pid_it == case_pid.end()) continue;
    instant(1, 2, e.case_id + " -> " + e.state, "sched", e.t);
    if (e.state == "queued") {
      pending_queued[e.case_id] = e.t;
    } else if (e.state == "running") {
      const auto q = pending_queued.find(e.case_id);
      if (q != pending_queued.end()) {
        std::ostringstream args;
        args << R"({"attempt":)" << e.attempt << '}';
        complete(1, 1, e.case_id, "sched", q->second, e.t, args.str());
        pending_queued.erase(q);
      }
      pending_running[e.case_id] = e.t;
    } else {
      const auto r = pending_running.find(e.case_id);
      if (r != pending_running.end()) {
        std::ostringstream args;
        args << R"({"state":")" << e.state << R"(","attempt":)" << e.attempt
             << '}';
        complete(pid_it->second, 1,
                 "attempt " + std::to_string(e.attempt) + " (" + e.state + ")",
                 "sched", r->second, e.t, args.str());
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
      instant(pid, 2, "step " + std::to_string(mark.step), "step",
              base + mark.wall_seconds);
    }
  }

  os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
     << R"("merged":"campaign","campaign":)" << quoted(snap.campaign)
     << R"(,"cases":")" << snap.cases.size() << R"(","workers":")"
     << snap.workers << R"(","thread_budget":")" << snap.thread_budget
     << R"(","resumes":")" << snap.resumes << R"(","clock_seconds":")"
     << num(snap.clock_seconds) << "\"}}\n";
  return os.str();
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
