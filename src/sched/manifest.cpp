#include "sched/manifest.hpp"

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "io/durable_append.hpp"
#include "sched/campaign.hpp"

namespace felis::sched {

namespace {

bool is_terminal(const std::string& state) {
  return state == "done" || state == "failed";
}

}  // namespace

std::string format_header_record(const CampaignSpec& spec) {
  return JsonWriter()
      .field("type", "header")
      .field("schema", kManifestSchema)
      .field("campaign", spec.config.name)
      .fields({{"cases", spec.cases.size()},
               {"workers", spec.config.workers},
               {"thread_budget", spec.config.thread_budget},
               {"ranks", spec.config.ranks}})
      .done();
}

std::string format_case_record(const CaseSpec& spec) {
  return JsonWriter()
      .field("type", "case")
      .field("case", spec.id)
      .fields({{"threads", spec.threads}, {"steps", spec.steps},
               {"cost_seconds", spec.cost_seconds}})
      .object("overrides", spec.overrides)
      .done();
}

std::string format_resume_record(int pending) {
  return JsonWriter().field("type", "resume").field("pending", pending).done();
}

std::string format_run_record(const std::string& case_id,
                              const std::string& state, int attempt,
                              double campaign_seconds, double wall_seconds,
                              const std::string& detail,
                              const std::map<std::string, double>& metrics) {
  JsonWriter w;
  w.field("type", "run").field("case", case_id).field("state", state);
  w.fields(
      {{"attempt", attempt}, {"t", campaign_seconds}, {"wall_seconds", wall_seconds}});
  if (!detail.empty()) w.field("detail", detail);
  if (!metrics.empty()) w.object("metrics", metrics);
  return w.done();
}

ManifestWriter::ManifestWriter(const std::string& path) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  out_ = std::make_unique<io::DurableAppendWriter>(path);
}

ManifestWriter::~ManifestWriter() = default;

void ManifestWriter::append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_->append(line);
}

void ManifestWriter::write_header(const CampaignSpec& spec) {
  append(format_header_record(spec));
}

void ManifestWriter::write_case(const CaseSpec& spec) {
  append(format_case_record(spec));
}

void ManifestWriter::write_resume(int pending) {
  append(format_resume_record(pending));
}

void ManifestWriter::write_transition(
    const std::string& case_id, const std::string& state, int attempt,
    double campaign_seconds, double wall_seconds, const std::string& detail,
    const std::map<std::string, double>& metrics) {
  append(format_run_record(case_id, state, attempt, campaign_seconds, wall_seconds,
                           detail, metrics));
}

namespace {

/// apply_manifest_line's rules, on a parsed record.
void apply_manifest_record(ManifestState& state, const JsonRecord& record) {
  const std::string* type = record.string("type");
  if (type == nullptr) return;
  if (*type == "submit") {
    // Admission ledger of the retired campaign service mode. Its cases may
    // have been declared by submissions this build cannot replay; refuse the
    // whole manifest rather than resume a campaign it would misread.
    const std::string* submission = record.string("submission");
    throw ManifestReplayError(
        "manifest replay: record for submission '" +
        (submission ? *submission : std::string()) +
        "' was written by campaign service mode, which this build no longer "
        "has");
  }
  if (*type != "run") return;
  const std::string* id = record.string("case");
  const std::string* run_state = record.string("state");
  if (id == nullptr || run_state == nullptr) return;
  CaseStatus& cs = state.cases[*id];
  if (is_terminal(cs.state) && is_terminal(*run_state)) {
    // Two terminal records with no re-queue in between: a correct scheduler
    // never writes this. Last-writer-wins here would let a stale `failed`
    // re-run a completed case, or a stale `done` mask a real failure.
    throw ManifestReplayError(
        "manifest replay: duplicate terminal record for case '" + *id +
        "' (journalled '" + cs.state + "', then '" + *run_state + "')");
  }
  if (cs.completed()) {
    // `done` is absorbing: a late queued/running/retried append from a stale
    // attempt must never resurrect a completed case into the run queue.
    return;
  }
  cs.state = *run_state;
  const int attempt = static_cast<int>(record.number("attempt"));
  if (attempt > cs.attempts) cs.attempts = attempt;
  if (cs.state == "done") cs.metrics = record.object("metrics").numbers;
}

}  // namespace

void apply_manifest_line(ManifestState& state, const std::string& line) {
  // A kill can tear at most the final line; a record is trusted only when
  // the whole line is one closed object.
  if (const std::optional<JsonRecord> record = parse_json_record(line))
    apply_manifest_record(state, *record);
}

ManifestState read_manifest(
    const std::string& path,
    const std::function<void(const JsonRecord&)>& observe) {
  ManifestState state;
  std::ifstream in(path);
  if (!in.good()) return state;  // fresh campaign: no manifest yet
  state.found = true;
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<JsonRecord> record = parse_json_record(line);
    if (!record) continue;
    apply_manifest_record(state, *record);
    if (observe) observe(*record);
  }
  return state;
}

}  // namespace felis::sched
