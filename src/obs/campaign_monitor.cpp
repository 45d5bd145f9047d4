#include "obs/campaign_monitor.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace felis::obs {

namespace fs = std::filesystem;

namespace {

/// Scan `line` for every `"<prefix><leaf>":<number>` pair and fold it into
/// `out`. Non-numeric values (nested histogram objects) are skipped; a line
/// torn mid-number ends the scan. The journals are writer-controlled flat
/// encodings, so a positional scan is exact — this is one of the two
/// sanctioned NDJSON parsing sites (felis_lint rule raw-ndjson-read).
void extract_prefixed_numbers(const std::string& line, const std::string& prefix,
                              std::map<std::string, double>* out) {
  const std::string needle = "\"" + prefix;
  usize pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    const usize key_begin = pos + 1;
    const usize key_end = line.find('"', key_begin);
    if (key_end == std::string::npos) return;
    if (key_end + 1 >= line.size() || line[key_end + 1] != ':') {
      pos = key_end + 1;
      continue;
    }
    const usize val_begin = key_end + 2;
    if (val_begin >= line.size()) return;
    if (line[val_begin] == '{') {  // histogram object: not a flat number
      pos = val_begin;
      continue;
    }
    try {
      usize used = 0;
      const double v = std::stod(line.substr(val_begin), &used);
      (*out)[line.substr(key_begin, key_end - key_begin)] = v;
      pos = val_begin + used;
    } catch (const std::logic_error&) {
      return;  // torn mid-number
    }
  }
}

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// A running case is a straggler when its slowdown exceeds this multiple of
// the fleet median; below kMinProgress its slowdown is undefined.
constexpr double kStragglerFactor = 2.0;
constexpr double kMinProgress = 0.02;
constexpr usize kMaxStepMarks = 20000;  ///< per-case trace-mark cap

}  // namespace

bool CampaignSnapshot::complete() const {
  if (cases.empty()) return false;
  return std::all_of(cases.begin(), cases.end(),
                     [](const CaseView& v) { return v.state == "done"; });
}

const CaseView* CampaignSnapshot::find(const std::string& id) const {
  for (const CaseView& v : cases)
    if (v.id == id) return &v;
  return nullptr;
}

CampaignMonitor::CampaignMonitor(std::string dir)
    : dir_(std::move(dir)),
      manifest_follower_((fs::path(dir_) / "manifest.ndjson").string()) {}

void CampaignMonitor::note_clock(double t) {
  clock_high_water_ = std::max(clock_high_water_, t);
}

std::string CampaignMonitor::telemetry_stream_path(
    const std::string& id) const {
  std::error_code ec;
  const fs::path base = fs::path(dir_) / id / "telemetry";
  const fs::path single = base / "run.ndjson";
  if (fs::is_regular_file(single, ec)) return single.string();
  const fs::path rank0 = base / "rank0" / "run.ndjson";
  if (fs::is_regular_file(rank0, ec)) return rank0.string();
  return "";
}

void CampaignMonitor::apply_manifest(const std::string& line) {
  // The production fold first: the monitor's per-case states ARE the resume
  // protocol's, bitwise (this may throw ManifestReplayError, like resume).
  sched::apply_manifest_line(manifest_, line);

  // Then the monitor-only fields (header, declarations, timings). Same torn
  // guard as the fold: only trust a line that closes its object.
  if (line.empty() || line.back() != '}') return;
  bool has_type = false;
  const std::string type = sched::extract_json_string(line, "type", &has_type);
  if (!has_type) return;
  if (type == "header") {
    campaign_ = sched::extract_json_string(line, "campaign");
    workers_ = static_cast<int>(sched::extract_json_number(line, "workers"));
    thread_budget_ =
        static_cast<int>(sched::extract_json_number(line, "thread_budget"));
    ranks_ = static_cast<int>(sched::extract_json_number(line, "ranks"));
  } else if (type == "case") {
    bool ok = false;
    const std::string id = sched::extract_json_string(line, "case", &ok);
    if (!ok) return;
    CaseDecl decl;
    decl.threads = static_cast<int>(sched::extract_json_number(line, "threads"));
    decl.steps =
        static_cast<std::int64_t>(sched::extract_json_number(line, "steps"));
    decl.cost_seconds = sched::extract_json_number(line, "cost_seconds");
    if (decls_.find(id) == decls_.end()) case_order_.push_back(id);
    decls_[id] = decl;
  } else if (type == "resume") {
    ++resumes_;
    // Each scheduler session restarts its campaign clock at 0; rebase so the
    // monitor's clock stays monotone across sessions.
    clock_offset_ = clock_high_water_;
  } else if (type == "run") {
    bool ok = false;
    const std::string id = sched::extract_json_string(line, "case", &ok);
    if (!ok) return;
    const std::string state = sched::extract_json_string(line, "state", &ok);
    if (!ok) return;
    const int attempt =
        static_cast<int>(sched::extract_json_number(line, "attempt"));
    const double t_abs =
        sched::extract_json_number(line, "t") + clock_offset_;
    const double wall = sched::extract_json_number(line, "wall_seconds");
    note_clock(t_abs);
    if (decls_.find(id) == decls_.end() &&
        timing_.find(id) == timing_.end()) {
      case_order_.push_back(id);  // undeclared but journalled: still shown
    }
    CaseTiming& tm = timing_[id];
    if (state == "queued") {
      tm.queued_t = t_abs;
    } else if (state == "running") {
      tm.running_t = t_abs;
    } else {
      tm.finished_t = t_abs;
      tm.wall_seconds = wall;
      if (state == "retried") ++retry_transitions_;
    }
    run_events_.push_back({id, state, attempt, t_abs, wall});
  }
}

void CampaignMonitor::apply_case_stream(CaseLive& live,
                                        const std::string& line) {
  bool ok = false;
  const std::string type = sched::extract_json_string(line, "type", &ok);
  if (!ok || type != "step") return;
  bool has_step = false;
  const auto step = static_cast<std::int64_t>(
      sched::extract_json_number(line, "step", &has_step));
  if (!has_step) return;
  live.found = true;
  live.step = std::max(live.step, step);
  live.sim_time = sched::extract_json_number(line, "time");
  live.wall_seconds = sched::extract_json_number(line, "wall_seconds");
  live.cfl = sched::extract_json_number(line, "solver.cfl");
  live.nusselt = sched::extract_json_number(line, "case.nu_volume");
  live.pressure_residual =
      sched::extract_json_number(line, "solver.pressure_residual");
  live.pressure_iterations =
      sched::extract_json_number(line, "solver.pressure_iterations");
  extract_prefixed_numbers(line, "health.flags.", &live.health_flags);
  if (live.marks.size() < kMaxStepMarks)
    live.marks.push_back({step, live.wall_seconds});
}

usize CampaignMonitor::poll_case_streams() {
  usize consumed = 0;
  std::vector<std::string> lines;
  for (const std::string& id : case_order_) {
    CaseLive& live = live_[id];
    if (!live.follower) {
      const std::string path = telemetry_stream_path(id);
      if (path.empty()) continue;  // case has not started streaming yet
      live.follower = std::make_unique<NdjsonFollower>(path);
    }
    lines.clear();
    consumed += live.follower->poll(&lines);
    if (live.follower->truncations() != live.seen_truncations) {
      // A new attempt restarted the stream from scratch; the polled lines
      // are entirely post-restart content, so drop the stale fold first.
      live.seen_truncations = live.follower->truncations();
      live.found = false;
      live.step = 0;
      live.sim_time = live.wall_seconds = 0;
      live.cfl = live.nusselt = 0;
      live.pressure_residual = live.pressure_iterations = 0;
      live.health_flags.clear();
      live.marks.clear();
    }
    for (const std::string& line : lines) apply_case_stream(live, line);
  }
  return consumed;
}

usize CampaignMonitor::poll() {
  std::vector<std::string> lines;
  if (manifest_follower_.exists()) manifest_.found = true;
  const usize consumed = manifest_follower_.poll(&lines);
  for (const std::string& line : lines) apply_manifest(line);
  return consumed + poll_case_streams();
}

const std::vector<CampaignMonitor::StepMark>& CampaignMonitor::step_marks(
    const std::string& id) const {
  static const std::vector<StepMark> kEmpty;
  const auto it = live_.find(id);
  return it != live_.end() ? it->second.marks : kEmpty;
}

CampaignSnapshot CampaignMonitor::snapshot() const {
  CampaignSnapshot snap;
  snap.manifest_found = manifest_.found;
  snap.campaign = campaign_;
  snap.workers = workers_;
  snap.thread_budget = thread_budget_;
  snap.ranks = ranks_;
  snap.resumes = resumes_;
  snap.clock_seconds = clock_high_water_;
  snap.retry_transitions = retry_transitions_;

  for (const std::string& id : case_order_) {
    CaseView v;
    v.id = id;
    const auto decl = decls_.find(id);
    if (decl != decls_.end()) {
      v.threads = decl->second.threads;
      v.steps_planned = decl->second.steps;
      v.cost_seconds = decl->second.cost_seconds;
    }
    const auto folded = manifest_.cases.find(id);
    if (folded != manifest_.cases.end()) {
      v.state = folded->second.state;
      v.attempts = folded->second.attempts;
      v.metrics = folded->second.metrics;
    }
    const auto tm = timing_.find(id);
    if (tm != timing_.end()) {
      v.queued_t = tm->second.queued_t;
      v.running_t = tm->second.running_t;
      v.finished_t = tm->second.finished_t;
      v.wall_seconds = tm->second.wall_seconds;
    }
    const auto live = live_.find(id);
    if (live != live_.end() && live->second.found) {
      const CaseLive& l = live->second;
      v.telemetry_found = true;
      v.step = l.step;
      v.sim_time = l.sim_time;
      v.run_wall_seconds = l.wall_seconds;
      v.cfl = l.cfl;
      v.nusselt = l.nusselt;
      v.pressure_residual = l.pressure_residual;
      v.pressure_iterations = l.pressure_iterations;
      v.health_flags = l.health_flags;
    }

    if (v.state == "done") {
      v.progress = 1.0;
    } else if (v.steps_planned > 0 && v.telemetry_found) {
      v.progress = clamp01(static_cast<double>(v.step) /
                           static_cast<double>(v.steps_planned));
    }

    if (v.state.empty()) ++snap.declared;
    else if (v.state == "queued") ++snap.queued;
    else if (v.state == "running") ++snap.running;
    else if (v.state == "done") ++snap.done;
    else if (v.state == "failed") ++snap.failed;
    else if (v.state == "retried") ++snap.retried;
    if (v.state == "running") snap.threads_in_flight += v.threads;

    snap.total_cost_seconds += v.cost_seconds;
    const double retired = v.cost_seconds * v.progress;
    snap.progressed_cost_seconds += retired;
    if (v.state == "done") snap.done_cost_seconds += v.cost_seconds;

    // Normalized slowdown: observed wall-seconds per modelled cost actually
    // retired. Comparable across cases whose absolute costs differ by
    // decades of Ra — the basis of the straggler test below.
    double observed_wall = 0;
    if (v.terminal()) observed_wall = v.wall_seconds;
    else if (v.telemetry_found) observed_wall = v.run_wall_seconds;
    if (retired > 0 && v.progress >= kMinProgress && observed_wall > 0) {
      v.slowdown = observed_wall / retired;
    }

    for (const auto& [flag, n] : v.health_flags) {
      snap.health_flags[flag] += n;
      snap.anomalies += n;
    }
    snap.cases.push_back(std::move(v));
  }

  if (snap.total_cost_seconds > 0) {
    snap.completed_fraction =
        snap.progressed_cost_seconds / snap.total_cost_seconds;
  }
  if (snap.clock_seconds > 0) {
    snap.cost_rate = snap.progressed_cost_seconds / snap.clock_seconds;
  }
  double remaining = 0;
  for (const CaseView& v : snap.cases) {
    if (!v.terminal()) remaining += v.cost_seconds * (1.0 - v.progress);
  }
  if (remaining <= 0) {
    snap.eta_seconds = 0;
  } else if (snap.cost_rate > 0) {
    snap.eta_seconds = remaining / snap.cost_rate;
  }

  // Straggler detection against the fleet's median slowdown: needs at least
  // three comparably progressed cases for a median to mean anything.
  std::vector<double> slowdowns;
  for (const CaseView& v : snap.cases)
    if (v.slowdown > 0) slowdowns.push_back(v.slowdown);
  if (slowdowns.size() >= 3) {
    const usize mid = slowdowns.size() / 2;
    std::nth_element(slowdowns.begin(), slowdowns.begin() + mid,
                     slowdowns.end());
    const double median = slowdowns[mid];
    for (CaseView& v : snap.cases) {
      v.straggler = v.state == "running" && v.slowdown > 0 && median > 0 &&
                    v.slowdown > kStragglerFactor * median;
    }
  }
  return snap;
}

}  // namespace felis::obs
