#include "sched/manifest.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
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

namespace {

/// Recursive descent over one line, JSON's grammar (RFC 8259). Each rule
/// returns false on the first byte that does not fit, and the caller drops
/// the whole line.
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  std::optional<JsonRecord> record() {
    JsonRecord rec;
    space();
    if (!object(&rec, &rec.objects, 0)) return std::nullopt;
    space();
    if (pos_ != text_.size()) return std::nullopt;
    return rec;
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool eat(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void space() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  /// An object whose scalar members go to `fields` and whose object members
  /// go to `objects`; a null target checks the members without keeping them.
  bool object(JsonFields* fields, std::map<std::string, JsonFields>* objects,
              int depth) {
    if (depth > kMaxDepth || !eat('{')) return false;
    space();
    if (eat('}')) return true;
    do {
      space();
      std::string key;
      if (!string(&key)) return false;
      space();
      if (!eat(':')) return false;
      space();
      if (!value(key, fields, objects, depth)) return false;
      space();
    } while (eat(','));
    return eat('}');
  }

  bool value(const std::string& key, JsonFields* fields,
             std::map<std::string, JsonFields>* objects, int depth) {
    if (peek() == '{')
      return object(objects ? &(*objects)[key] : nullptr, nullptr, depth + 1);
    if (peek() == '[') return array(depth + 1);
    if (peek() == '"') {
      std::string s;
      if (!string(&s)) return false;
      if (fields) fields->strings[key] = std::move(s);
      return true;
    }
    if (literal("true") || literal("false") || literal("null")) return true;
    double v = 0;
    if (!number(&v)) return false;
    if (fields) fields->numbers[key] = v;
    return true;
  }

  bool array(int depth) {
    if (depth > kMaxDepth || !eat('[')) return false;
    space();
    if (eat(']')) return true;
    do {
      space();
      if (!value("", nullptr, nullptr, depth)) return false;
      space();
    } while (eat(','));
    return eat(']');
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool digits() {
    const usize begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > begin;
  }

  bool number(double* out) {
    const usize begin = pos_;
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && end == last;
  }

  bool hex4(std::uint32_t* code) {
    if (text_.size() - pos_ < 4) return false;
    const char* first = text_.data() + pos_;
    pos_ += 4;
    const auto [end, ec] = std::from_chars(first, first + 4, *code, 16);
    return ec == std::errc() && end == first + 4;
  }

  /// The code point of a `\uXXXX` escape (the `\u` already read; a
  /// surrogate pair takes two escapes), appended as UTF-8.
  bool unicode(std::string* out) {
    std::uint32_t cp = 0;
    if (!hex4(&cp) || (cp >= 0xdc00 && cp <= 0xdfff)) return false;
    if (cp >= 0xd800 && cp <= 0xdbff) {
      std::uint32_t low = 0;
      if (!eat('\\') || !eat('u') || !hex4(&low) || low < 0xdc00 ||
          low > 0xdfff)
        return false;
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr std::uint32_t kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    out->push_back(static_cast<char>(kLead[extra] | (cp >> (6 * extra))));
    for (int k = extra - 1; k >= 0; --k)
      out->push_back(static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f)));
    return true;
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      switch (const char e = text_[pos_++]) {
        case '"':
        case '\\':
        case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          if (!unicode(out)) return false;
          break;
        default: return false;
      }
    }
    return false;  // torn mid-string
  }

  std::string_view text_;
  usize pos_ = 0;
};

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

const std::string* JsonFields::string(const std::string& key) const {
  const auto it = strings.find(key);
  return it != strings.end() ? &it->second : nullptr;
}

double JsonFields::number(const std::string& key) const {
  const auto it = numbers.find(key);
  return it != numbers.end() ? it->second : 0.0;
}

const JsonFields& JsonRecord::object(const std::string& key) const {
  static const JsonFields kNone;
  const auto it = objects.find(key);
  return it != objects.end() ? it->second : kNone;
}

std::optional<JsonRecord> parse_json_record(std::string_view line) {
  return LineParser(line).record();
}

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
