#include "sched/manifest.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "io/durable_append.hpp"
#include "sched/campaign.hpp"
#include "telemetry/chrome_trace.hpp"

namespace felis::sched {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

bool is_terminal(const std::string& state) {
  return state == "done" || state == "failed";
}

}  // namespace

std::string format_header_record(const CampaignSpec& spec) {
  std::ostringstream os;
  os << R"({"type":"header","schema":")" << kManifestSchema
     << R"(","campaign":")" << telemetry::json_escape(spec.config.name)
     << R"(","cases":)" << spec.cases.size()
     << R"(,"workers":)" << spec.config.workers
     << R"(,"thread_budget":)" << spec.config.thread_budget
     << R"(,"ranks":)" << spec.config.ranks << "}";
  return os.str();
}

std::string format_case_record(const CaseSpec& spec) {
  std::ostringstream os;
  os << R"({"type":"case","case":")" << telemetry::json_escape(spec.id)
     << R"(","threads":)" << spec.threads << R"(,"steps":)" << spec.steps
     << R"(,"cost_seconds":)" << json_number(spec.cost_seconds)
     << R"(,"overrides":{)";
  bool first = true;
  for (const auto& [key, value] : spec.overrides) {
    if (!first) os << ',';
    first = false;
    os << '"' << telemetry::json_escape(key) << R"(":")"
       << telemetry::json_escape(value) << '"';
  }
  os << "}}";
  return os.str();
}

std::string format_resume_record(int pending) {
  std::ostringstream os;
  os << R"({"type":"resume","pending":)" << pending << "}";
  return os.str();
}

std::string format_run_record(const std::string& case_id,
                              const std::string& state, int attempt,
                              double campaign_seconds, double wall_seconds,
                              const std::string& detail,
                              const std::map<std::string, double>& metrics) {
  std::ostringstream os;
  os << R"({"type":"run","case":")" << telemetry::json_escape(case_id)
     << R"(","state":")" << state << R"(","attempt":)" << attempt
     << R"(,"t":)" << json_number(campaign_seconds) << R"(,"wall_seconds":)"
     << json_number(wall_seconds);
  if (!detail.empty())
    os << R"(,"detail":")" << telemetry::json_escape(detail) << '"';
  if (!metrics.empty()) {
    os << R"(,"metrics":{)";
    bool first = true;
    for (const auto& [key, value] : metrics) {
      if (!first) os << ',';
      first = false;
      os << '"' << telemetry::json_escape(key) << R"(":)" << json_number(value);
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

ManifestWriter::ManifestWriter(const std::string& path) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  out_ = std::make_unique<io::DurableAppendWriter>(path);
}

ManifestWriter::~ManifestWriter() = default;

void ManifestWriter::write_header(const CampaignSpec& spec) {
  const std::string line = format_header_record(spec);
  std::lock_guard<std::mutex> lock(mutex_);
  out_->append(line);
}

void ManifestWriter::write_case(const CaseSpec& spec) {
  const std::string line = format_case_record(spec);
  std::lock_guard<std::mutex> lock(mutex_);
  out_->append(line);
}

void ManifestWriter::write_resume(int pending) {
  const std::string line = format_resume_record(pending);
  std::lock_guard<std::mutex> lock(mutex_);
  out_->append(line);
}

void ManifestWriter::write_transition(
    const std::string& case_id, const std::string& state, int attempt,
    double campaign_seconds, double wall_seconds, const std::string& detail,
    const std::map<std::string, double>& metrics) {
  const std::string line = format_run_record(
      case_id, state, attempt, campaign_seconds, wall_seconds, detail, metrics);
  std::lock_guard<std::mutex> lock(mutex_);
  out_->append(line);
}

std::string extract_json_string(const std::string& line, const std::string& key,
                                bool* found) {
  if (found) *found = false;
  const std::string needle = "\"" + key + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return "";
  std::string out;
  for (usize i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out.push_back(line[++i]);  // writer only escapes \" and \\ in practice
      continue;
    }
    if (c == '"') {
      if (found) *found = true;
      return out;
    }
    out.push_back(c);
  }
  return "";  // torn mid-value
}

double extract_json_number(const std::string& line, const std::string& key,
                           bool* found) {
  if (found) *found = false;
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return 0;
  try {
    const double v = std::stod(line.substr(at + needle.size()));
    if (found) *found = true;
    return v;
  } catch (const std::logic_error&) {
    return 0;
  }
}

std::map<std::string, double> extract_json_metrics(const std::string& line) {
  std::map<std::string, double> metrics;
  const std::string needle = "\"metrics\":{";
  const auto at = line.find(needle);
  if (at == std::string::npos) return metrics;
  usize pos = at + needle.size();
  // Writer-controlled flat object: "key":number pairs, no nesting.
  while (pos < line.size() && line[pos] != '}') {
    if (line[pos] == ',' || line[pos] != '"') {
      ++pos;
      continue;
    }
    const auto key_end = line.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = line.substr(pos + 1, key_end - pos - 1);
    if (key_end + 1 >= line.size() || line[key_end + 1] != ':') break;
    try {
      usize used = 0;
      metrics[key] = std::stod(line.substr(key_end + 2), &used);
      pos = key_end + 2 + used;
    } catch (const std::logic_error&) {
      break;  // torn mid-number
    }
  }
  return metrics;
}

void apply_manifest_line(ManifestState& state, const std::string& line) {
  // A kill can tear at most the final line; a record is trustworthy only
  // when it closes its object.
  if (line.empty() || line.back() != '}') return;
  bool has_type = false;
  const std::string type = extract_json_string(line, "type", &has_type);
  if (!has_type) return;
  if (type == "submit") {
    // Admission ledger of the retired campaign service mode. Its cases may
    // have been declared by submissions this build cannot replay; refuse the
    // whole manifest rather than resume a campaign it would misread.
    throw ManifestReplayError(
        "manifest replay: record for submission '" +
        extract_json_string(line, "submission") +
        "' was written by campaign service mode, which this build no longer "
        "has");
  }
  if (type != "run") return;
  bool ok = false;
  const std::string id = extract_json_string(line, "case", &ok);
  if (!ok) return;
  const std::string run_state = extract_json_string(line, "state", &ok);
  if (!ok) return;
  CaseStatus& cs = state.cases[id];
  if (is_terminal(cs.state) && is_terminal(run_state)) {
    // Two terminal records with no re-queue in between: a correct scheduler
    // never writes this. Last-writer-wins here would let a stale `failed`
    // re-run a completed case, or a stale `done` mask a real failure.
    throw ManifestReplayError(
        "manifest replay: duplicate terminal record for case '" + id +
        "' (journalled '" + cs.state + "', then '" + run_state + "')");
  }
  if (cs.completed()) {
    // `done` is absorbing: a late queued/running/retried append from a stale
    // attempt must never resurrect a completed case into the run queue.
    return;
  }
  cs.state = run_state;
  bool has_attempt = false;
  const int attempt =
      static_cast<int>(extract_json_number(line, "attempt", &has_attempt));
  if (has_attempt && attempt > cs.attempts) cs.attempts = attempt;
  if (run_state == "done") cs.metrics = extract_json_metrics(line);
}

ManifestState read_manifest(const std::string& path) {
  ManifestState state;
  std::ifstream in(path);
  if (!in.good()) return state;  // fresh campaign: no manifest yet
  state.found = true;
  std::string line;
  while (std::getline(in, line)) apply_manifest_line(state, line);
  return state;
}

}  // namespace felis::sched
