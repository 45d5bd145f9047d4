#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>

namespace felis::telemetry {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Microseconds on the recorder's clock, clamped non-negative.
std::int64_t usec(double seconds) {
  const double us = seconds * 1e6;
  return us > 0 ? static_cast<std::int64_t>(std::llround(us)) : 0;
}

void thread_name(std::ostringstream& os, int tid, const std::string& name) {
  os << ",\n"
     << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
     << R"(,"args":{"name":")" << json_escape(name) << R"("}})";
}

}  // namespace

std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::map<std::string, std::string>& metadata) {
  constexpr int kProfilerTid = 1;
  constexpr int kStreamTidBase = 100;

  std::ostringstream os;
  os << "{\n\"traceEvents\": [\n";
  os << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"felis"}})";
  thread_name(os, kProfilerTid, "solver (profiler regions)");

  int max_stream = -1;
  for (const TraceEvent& e : events) {
    const std::int64_t ts = usec(e.t_begin);
    os << ",\n" << R"({"name":")";
    if (e.stream == kStepTrack) {
      // Step boundaries as globally scoped instant events.
      os << json_escape(e.name) << R"(","cat":"step","ph":"i","s":"g","pid":1,)"
         << R"("tid":)" << kProfilerTid << R"(,"ts":)" << ts << "}";
      continue;
    }
    // A region shows the last element of its slash path (npos + 1 == 0 keeps
    // a top-level name whole); the full path rides in args so it survives
    // flattening. Each stream gets its own viewer row.
    const bool region = e.stream == kRegionTrack;
    os << json_escape(region ? e.name.substr(e.name.rfind('/') + 1) : e.name)
       << R"(","cat":")" << (region ? "profiler" : "stream")
       << R"(","ph":"X","pid":1,"tid":)"
       << (region ? kProfilerTid : kStreamTidBase + e.stream) << R"(,"ts":)" << ts
       << R"(,"dur":)" << std::max<std::int64_t>(usec(e.t_end) - ts, 0);
    if (region) os << R"(,"args":{"path":")" << json_escape(e.name) << R"("})";
    os << "}";
    if (!region) max_stream = std::max(max_stream, e.stream);
  }
  for (int s = 0; s <= max_stream; ++s) {
    thread_name(os, kStreamTidBase + s,
                s == 0 ? "stream 0 (fine)"
                       : "stream " + std::to_string(s) + " (coarse)");
  }

  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  bool first_meta = true;
  for (const auto& [key, value] : metadata) {
    if (!first_meta) os << ", ";
    first_meta = false;
    os << '"' << json_escape(key) << R"(": ")" << json_escape(value) << '"';
  }
  os << "}\n}\n";
  return os.str();
}

}  // namespace felis::telemetry
