#include "obs/campaign_monitor.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "common/json.hpp"
#include "sched/manifest.hpp"

namespace felis::obs {

namespace fs = std::filesystem;

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// A running case is a straggler when its slowdown exceeds this multiple of
// the fleet median; below kMinProgress its slowdown is undefined.
constexpr double kStragglerFactor = 2.0;
constexpr double kMinProgress = 0.02;
constexpr usize kMaxStepMarks = 20000;  ///< per-case trace-mark cap
constexpr usize kTailChunk = 4096;      ///< first backward read of a stream

/// The manifest fields only the status view reads — header, case
/// declarations, run timings, the clock rebase across resumes — taken from
/// the records sched::read_manifest parses for its own fold.
struct ManifestView {
  CampaignSnapshot snap;                  ///< header fields, clock, retries
  std::map<std::string, CaseView> cases;  ///< declarations and timings
  std::vector<std::string> order;         ///< first appearance in the journal
  std::vector<RunEvent> run_events;
  double clock_offset = 0;  ///< rebase of the current scheduler session

  CaseView& view(const std::string& id) {
    const auto [it, added] = cases.try_emplace(id);
    if (added) {
      it->second.id = id;
      order.push_back(id);  // declared, or undeclared but journalled
    }
    return it->second;
  }

  void apply(const JsonRecord& rec) {
    const std::string* type = rec.string("type");
    if (type == nullptr) return;
    if (*type == "header") {
      if (const std::string* name = rec.string("campaign")) snap.campaign = *name;
      snap.workers = static_cast<int>(rec.number("workers"));
      snap.thread_budget = static_cast<int>(rec.number("thread_budget"));
      snap.ranks = static_cast<int>(rec.number("ranks"));
    } else if (*type == "case") {
      const std::string* id = rec.string("case");
      if (id == nullptr) return;
      CaseView& v = view(*id);
      v.threads = static_cast<int>(rec.number("threads"));
      v.steps_planned = static_cast<std::int64_t>(rec.number("steps"));
      v.cost_seconds = rec.number("cost_seconds");
    } else if (*type == "resume") {
      ++snap.resumes;
      // Each scheduler session restarts its campaign clock at 0; rebase so
      // the status clock stays monotone across sessions.
      clock_offset = snap.clock_seconds;
    } else if (*type == "run") {
      const std::string* id = rec.string("case");
      const std::string* state = rec.string("state");
      if (id == nullptr || state == nullptr) return;
      const double t = rec.number("t") + clock_offset;
      const double wall = rec.number("wall_seconds");
      snap.clock_seconds = std::max(snap.clock_seconds, t);
      CaseView& v = view(*id);
      if (*state == "queued") {
        v.queued_t = t;
      } else if (*state == "running") {
        v.running_t = t;
      } else {
        v.finished_t = t;
        v.wall_seconds = wall;
        if (*state == "retried") ++snap.retry_transitions;
      }
      run_events.push_back(
          {*id, *state, static_cast<int>(rec.number("attempt")), t, wall});
    }
  }
};

/// Case `id`'s current telemetry stream ("" when it has not started
/// streaming): a multi-rank case streams from rank0/.
std::string stream_path(const std::string& dir, const std::string& id) {
  std::error_code ec;
  const fs::path base = fs::path(dir) / id / "telemetry";
  const fs::path single = base / "run.ndjson";
  if (fs::is_regular_file(single, ec)) return single.string();
  const fs::path rank0 = base / "rank0" / "run.ndjson";
  if (fs::is_regular_file(rank0, ec)) return rank0.string();
  return "";
}

/// True when the header of the stream at `path` names an attempt older than
/// `attempts`, the manifest's newest: that stream is a failed attempt's,
/// which the retry will redo. A header that names no attempt is current.
bool stale_stream(const std::string& path, int attempts) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);
  const std::optional<JsonRecord> header = parse_json_record(line);
  const std::string* attempt =
      header ? header->object("metadata").string("attempt") : nullptr;
  return attempt != nullptr && std::atoi(attempt->c_str()) < attempts;
}

bool is_step_record(const JsonRecord& rec) {
  const std::string* type = rec.string("type");
  return type != nullptr && *type == "step" && rec.numbers.count("step") > 0;
}

/// The newest complete step record of the stream at `path`, read from the
/// end in growing windows. Only newline-terminated lines count (an
/// unterminated tail is torn or still being appended), and a line that does
/// not parse (a torn line the writer self-healed) is passed over.
std::optional<JsonRecord> newest_step_record(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = static_cast<usize>(std::max<std::streamoff>(in.tellg(), 0));
  for (usize want = kTailChunk;; want *= 4) {
    const usize n = std::min(want, size);
    std::string tail(n, '\0');
    in.seekg(static_cast<std::streamoff>(size - n));
    if (!in.read(tail.data(), static_cast<std::streamsize>(n)))
      return std::nullopt;  // replaced while read: the next read sees it
    // The window's first line is whole only when the window starts the file.
    usize begin = 0;
    if (n < size) {
      begin = tail.find('\n');
      if (begin == std::string::npos) continue;  // no whole line yet
      ++begin;
    }
    std::optional<JsonRecord> newest;
    for (usize end; (end = tail.find('\n', begin)) != std::string::npos;
         begin = end + 1) {
      std::optional<JsonRecord> rec = parse_json_record(
          std::string_view(tail).substr(begin, end - begin));
      if (rec && is_step_record(*rec)) newest = std::move(rec);
    }
    if (newest || n == size) return newest;
  }
}

/// Every complete step record's mark, in stream order (capped).
std::vector<StepMark> read_step_marks(const std::string& path) {
  std::vector<StepMark> marks;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (marks.size() < kMaxStepMarks && std::getline(in, line)) {
    if (in.eof()) break;  // no '\n': torn, or racing its append
    const std::optional<JsonRecord> rec = parse_json_record(line);
    if (rec && is_step_record(*rec))
      marks.push_back({static_cast<std::int64_t>(rec->number("step")),
                       rec->number("wall_seconds")});
  }
  return marks;
}

/// The live fields of case `v` from its newest step record.
void apply_step_record(CaseView& v, const JsonRecord& rec) {
  const JsonFields& metrics = rec.object("metrics");
  v.telemetry_found = true;
  v.step = static_cast<std::int64_t>(rec.number("step"));
  v.sim_time = rec.number("time");
  v.run_wall_seconds = rec.number("wall_seconds");
  v.cfl = metrics.number("solver.cfl");
  v.nusselt = metrics.number("case.nu_volume");
  v.pressure_residual = metrics.number("solver.pressure_residual");
  v.pressure_iterations = metrics.number("solver.pressure_iterations");
  static const std::string kFlags = "health.flags.";
  for (const auto& [name, value] : metrics.numbers)
    if (name.rfind(kFlags, 0) == 0) v.health_flags[name] = value;
}

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

CampaignFold read_campaign(const std::string& dir, bool step_marks) {
  // The production fold first: the per-case states ARE the resume
  // protocol's (this may throw ManifestReplayError, like resume).
  ManifestView view;
  const sched::ManifestState manifest = sched::read_manifest(
      (fs::path(dir) / "manifest.ndjson").string(),
      [&view](const JsonRecord& rec) { view.apply(rec); });

  CampaignFold fold;
  CampaignSnapshot& snap = fold.snapshot;
  snap = std::move(view.snap);
  snap.manifest_found = manifest.found;
  for (const std::string& id : view.order) {
    CaseView v = std::move(view.cases.at(id));
    const auto folded = manifest.cases.find(id);
    if (folded != manifest.cases.end()) {
      v.state = folded->second.state;
      v.attempts = folded->second.attempts;
      v.metrics = folded->second.metrics;
    }
    const std::string stream = stream_path(dir, id);
    if (!stream.empty() && !stale_stream(stream, v.attempts)) {
      if (const auto rec = newest_step_record(stream)) apply_step_record(v, *rec);
      if (step_marks) fold.step_marks[id] = read_step_marks(stream);
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
  fold.run_events = std::move(view.run_events);
  return fold;
}

}  // namespace felis::obs
