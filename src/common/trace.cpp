#include "common/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "common/json.hpp"

// Locking discipline
// ------------------
// `mutex_` guards `t0_`, `dropped_` and `events_`. `now()` must take the
// lock too — `start()` rewrites `t0_` and concurrent `timed()` calls on other
// streams read it (this was a TSan finding).
namespace felis {

void TraceRecorder::start() {
  std::unique_lock<std::mutex> lock(mutex_);
  t0_ = Clock::now();
  dropped_ = 0;
  events_.clear();
}

double TraceRecorder::now() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

void TraceRecorder::push(TraceEvent event) {
  if (events_.size() < max_events_) events_.push_back(std::move(event));
  else ++dropped_;
}

void TraceRecorder::record(int stream, const std::string& name, double t_begin,
                           double t_end) {
  std::unique_lock<std::mutex> lock(mutex_);
  push({stream, name, t_begin, t_end});
}

void TraceRecorder::record(int stream, const std::string& name,
                           Clock::time_point begin, Clock::time_point end) {
  std::unique_lock<std::mutex> lock(mutex_);
  push({stream, name, std::chrono::duration<double>(begin - t0_).count(),
        std::chrono::duration<double>(end - t0_).count()});
}

void TraceRecorder::timed(int stream, const std::string& name,
                          const std::function<void()>& fn) {
  const Clock::time_point begin = Clock::now();
  fn();
  record(stream, name, begin, Clock::now());
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return events_;
}

usize TraceRecorder::dropped() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return dropped_;
}

void TraceRecorder::clear() {
  std::unique_lock<std::mutex> lock(mutex_);
  dropped_ = 0;
  events_.clear();
}

std::string TraceRecorder::render(int width) const {
  const std::vector<TraceEvent> evs = events();
  if (evs.empty()) return "(empty trace)\n";
  double t_max = 0;
  int max_stream = 0;
  for (const TraceEvent& e : evs) {
    t_max = std::max(t_max, e.t_end);
    max_stream = std::max(max_stream, e.stream);
  }
  if (t_max <= 0) t_max = 1e-9;
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << "timeline (total " << t_max * 1e3
     << " ms, '" << '#' << "' = busy)\n";
  for (int s = 0; s <= max_stream; ++s) {
    std::string row(static_cast<usize>(width), '.');
    for (const TraceEvent& e : evs) {
      if (e.stream != s) continue;
      int b = static_cast<int>(e.t_begin / t_max * width);
      int en = static_cast<int>(e.t_end / t_max * width);
      b = std::clamp(b, 0, width - 1);
      en = std::clamp(en, b + 1, width);
      for (int c = b; c < en; ++c) row[static_cast<usize>(c)] = '#';
    }
    os << "stream " << s << " |" << row << "|\n";
  }
  return os.str();
}

namespace {

/// Microseconds on the trace's clock, clamped non-negative.
std::int64_t usec(double seconds) {
  const double us = seconds * 1e6;
  return us > 0 ? static_cast<std::int64_t>(std::llround(us)) : 0;
}

}  // namespace

void ChromeTraceWriter::add(std::string_view event) {
  if (!events_.empty()) events_ += ",\n";
  events_ += event;
}

void ChromeTraceWriter::metadata(int pid, int tid, std::string_view name) {
  JsonWriter e;
  e.field("name", tid < 0 ? "process_name" : "thread_name").field("ph", "M");
  e.field("pid", pid);
  if (tid >= 0) e.field("tid", tid);
  add(e.raw("args", JsonWriter().field("name", name).done()).done());
}

void ChromeTraceWriter::complete(int pid, int tid, std::string_view name,
                                 std::string_view cat, double t0, double t1,
                                 std::string_view args) {
  const std::int64_t ts = usec(t0);
  JsonWriter e;
  e.field("name", name).field("cat", cat).field("ph", "X");
  e.fields({{"ts", ts}, {"dur", std::max<std::int64_t>(usec(t1) - ts, 0)},
            {"pid", pid}, {"tid", tid}});
  if (!args.empty()) e.raw("args", args);
  add(e.done());
}

void ChromeTraceWriter::instant(int pid, int tid, std::string_view name,
                                std::string_view cat, double t,
                                std::string_view scope) {
  JsonWriter e;
  e.field("name", name).field("cat", cat).field("ph", "i").field("s", scope);
  add(e.fields({{"ts", usec(t)}, {"pid", pid}, {"tid", tid}}).done());
}

std::string ChromeTraceWriter::done(std::string_view other_data) const {
  return JsonWriter({"{", ",\n", ":", "}\n"})
      .raw("traceEvents", "[\n" + events_ + "\n]")
      .field("displayTimeUnit", "ms")
      .raw("otherData", other_data)
      .done();
}

}  // namespace felis
