#include "verify/manifest_model.hpp"

#include <sstream>

#include "sched/campaign.hpp"
#include "sched/manifest.hpp"

namespace felis::verify {

namespace {

const char* status_name(int status) {
  switch (status) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "failed";
    default: return "?";
  }
}

/// Deterministic stand-in metric so the model exercises the real metrics
/// round trip (format_run_record → parse_json_record) per case.
double nu_of(int i) { return 2.0 + i; }

}  // namespace

ManifestModel::ManifestModel(ManifestModelOptions opt) : opt_(std::move(opt)) {
  if (opt_.case_threads.empty()) opt_.case_threads = {1};
}

std::string ManifestModel::case_id(int i) const {
  return "c" + std::to_string(i);
}

int ManifestModel::threads_of(int i) const {
  return opt_.case_threads[static_cast<usize>(i) % opt_.case_threads.size()];
}

std::vector<ManifestModel::State> ManifestModel::initial() const {
  State s;
  s.cases.resize(static_cast<usize>(opt_.cases));
  // Mirror the scheduler's session start: header + case + queued records,
  // all through the production formatters.
  sched::CampaignSpec spec;
  spec.config.name = "model";
  spec.config.workers = opt_.workers;
  spec.config.thread_budget = opt_.thread_budget;
  for (int i = 0; i < opt_.cases; ++i) {
    sched::CaseSpec cs;
    cs.id = case_id(i);
    cs.threads = threads_of(i);
    cs.steps = 1;
    spec.cases.push_back(cs);
  }
  s.journal.push_back(sched::format_header_record(spec));
  for (const sched::CaseSpec& cs : spec.cases)
    s.journal.push_back(sched::format_case_record(cs));
  for (int i = 0; i < opt_.cases; ++i)
    s.journal.push_back(
        sched::format_run_record(case_id(i), "queued", 1, 0.0, 0.0));
  return {s};
}

ManifestModel::State ManifestModel::crash_and_resume(
    const State& s, long torn_prefix_len) const {
  State next;
  next.session = s.session + 1;
  next.failures_injected = s.failures_injected;
  next.cases.resize(s.cases.size());

  // The on-disk journal the next session observes: every record but the
  // last is past its fsync; the final one may be torn mid-append.
  std::vector<std::string> surviving(s.journal.begin(), s.journal.end());
  long last_complete = static_cast<long>(surviving.size()) - 1;
  if (torn_prefix_len >= 0 && !surviving.empty()) {
    surviving.back() =
        surviving.back().substr(0, static_cast<usize>(torn_prefix_len));
    --last_complete;
    if (surviving.back().empty()) surviving.pop_back();
  }

  // Replay through the production parser (read_manifest's exact fold).
  sched::ManifestState ms;
  ms.found = true;
  try {
    for (const std::string& line : surviving)
      sched::apply_manifest_line(ms, line);
  } catch (const sched::ManifestReplayError& err) {
    // A single scheduler never writes conflicting terminal records; replay
    // must accept every crash-truncated single-writer journal.
    next.violation =
        std::string("replay rejected a single-writer journal: ") + err.what();
    return next;
  }

  // Re-seed exactly as Scheduler::run() does and cross-check the replay
  // against the model's ground truth of which done records became durable:
  // replay recovers a completion exactly when its done record is durable. A
  // durable done record lost would re-run a completed case; a torn final
  // line never parses (the record parser needs the whole object, so even a
  // done record cut just before its final `}`, where the metrics object has
  // closed, is torn), so a recovered completion without a durable record is
  // invented.
  for (usize i = 0; i < s.cases.size(); ++i) {
    const std::string id = case_id(static_cast<int>(i));
    const long done_idx = s.cases[i].done_journal_idx;
    const bool done_durable = done_idx >= 0 && done_idx <= last_complete;
    const auto it = ms.cases.find(id);
    const bool replay_done = it != ms.cases.end() && it->second.completed();
    if (done_durable && !replay_done) {
      next.violation = "durable done record for '" + id +
                       "' lost on replay: the completed case would re-run";
      return next;
    }
    if (replay_done && !done_durable) {
      next.violation = "replay invented a completion for '" + id +
                       "' with no durable done record in the journal";
      return next;
    }
    CaseRt& rt = next.cases[i];
    if (replay_done) {
      // Skipped on resume: never re-queued, metrics preserved for the
      // campaign aggregate.
      rt.status = 2;
      rt.attempt = s.cases[i].attempt;
      rt.done_journal_idx = s.cases[i].done_journal_idx;
      const auto nu = it->second.metrics.find("Nu");
      if (nu == it->second.metrics.end() ||
          nu->second != nu_of(static_cast<int>(i))) {
        next.violation =
            "replay lost or corrupted the done metrics of '" + id + "'";
        return next;
      }
    } else {
      const int prior = it != ms.cases.end() ? it->second.attempts : 0;
      rt.status = 0;
      rt.attempt = prior + 1;
    }
  }

  // The resumed session is the last one the model explores (no further
  // crash): its journal is never read again, so it is dropped from the
  // state — this collapses all crash points that replay to the same
  // scheduler state into one node, which is what keeps exhaustive crash
  // placement tractable. (The scheduler's resume/queued appends are covered
  // by session 1, which journals every record kind.)
  if (next.session < opt_.max_sessions) {
    next.journal = std::move(surviving);
    next.journal.push_back(sched::format_resume_record(0));
    for (usize i = 0; i < next.cases.size(); ++i)
      if (next.cases[i].status == 0)
        next.journal.push_back(
            sched::format_run_record(case_id(static_cast<int>(i)), "queued",
                                     next.cases[i].attempt, 0.0, 0.0));
  }
  return next;
}

std::vector<std::pair<std::string, ManifestModel::State>>
ManifestModel::successors(const State& s) const {
  std::vector<std::pair<std::string, State>> out;
  // Violations and correctly-rejected duplicate faults are absorbing.
  if (!s.violation.empty() || s.duplicate_rejected) return out;

  // The final modelled session's journal is never read again (see
  // crash_and_resume), so its appends are elided to collapse the state space.
  const bool journaling = s.session < opt_.max_sessions;
  const auto append = [&](State& st, const std::string& record) {
    if (journaling) st.journal.push_back(record);
  };

  const int n = static_cast<int>(s.cases.size());
  for (int i = 0; i < n; ++i) {
    const CaseRt& rt = s.cases[static_cast<usize>(i)];
    const std::string id = case_id(i);

    // Admit: mirrors the worker-pool rule — a queued case starts only while
    // a worker is free and its threads fit the remaining budget.
    if (rt.status == 0 && s.running < opt_.workers &&
        s.threads_in_flight + threads_of(i) <= opt_.thread_budget) {
      State t = s;
      CaseRt& trt = t.cases[static_cast<usize>(i)];
      trt.status = 1;
      t.running += 1;
      t.threads_in_flight += threads_of(i);
      // A durable done record for a case that gets re-admitted is the
      // "completed case re-runs" catastrophe; flag it at the transition.
      if (trt.done_journal_idx >= 0)
        t.violation = "completed case '" + id + "' re-admitted";
      append(t, sched::format_run_record(id, "running", rt.attempt, 0.0, 0.0));
      out.emplace_back("admit " + id + " (attempt " +
                           std::to_string(rt.attempt) + ")",
                       std::move(t));
    }

    if (rt.status == 1) {
      // Complete: journal done (with metrics) after the work, as the
      // scheduler does.
      {
        State t = s;
        CaseRt& trt = t.cases[static_cast<usize>(i)];
        trt.status = 2;
        t.running -= 1;
        t.threads_in_flight -= threads_of(i);
        append(t, sched::format_run_record(id, "done", rt.attempt, 0.0, 0.0,
                                           "", {{"Nu", nu_of(i)}}));
        trt.done_journal_idx = static_cast<int>(t.journal.size()) - 1;
        out.emplace_back("complete " + id, std::move(t));
      }
      // Fail: retry while the session allowance lasts, else terminal.
      if (s.failures_injected < opt_.max_total_failures) {
        State t = s;
        CaseRt& trt = t.cases[static_cast<usize>(i)];
        t.running -= 1;
        t.threads_in_flight -= threads_of(i);
        t.failures_injected += 1;
        if (rt.session_retries < opt_.max_retries) {
          append(t, sched::format_run_record(id, "retried", rt.attempt, 0.0,
                                             0.0, "injected failure"));
          append(t, sched::format_run_record(id, "queued", rt.attempt + 1, 0.0,
                                             0.0));
          trt.status = 0;
          trt.attempt += 1;
          trt.session_retries += 1;
          out.emplace_back("fail+retry " + id, std::move(t));
        } else {
          append(t, sched::format_run_record(id, "failed", rt.attempt, 0.0,
                                             0.0, "injected failure"));
          trt.status = 3;
          out.emplace_back("fail-terminal " + id, std::move(t));
        }
      }
    }

    // Duplicate stale-terminal fault: a second writer (or an at-least-once
    // bug) appends a conflicting terminal record. Replay must *reject* it —
    // last-writer-wins would re-run a completed case or mask a failure.
    if (opt_.duplicate_faults && (rt.status == 2 || rt.status == 3) &&
        journaling) {
      State t = s;
      const std::string stale = sched::format_run_record(
          id, rt.status == 2 ? "failed" : "done", rt.attempt, 0.0, 0.0,
          "stale duplicate");
      t.journal.push_back(stale);
      bool rejected = false;
      try {
        sched::ManifestState ms;
        ms.found = true;
        for (const std::string& line : t.journal)
          sched::apply_manifest_line(ms, line);
      } catch (const sched::ManifestReplayError&) {
        rejected = true;
      }
      if (rejected)
        t.duplicate_rejected = true;
      else
        t.violation = "duplicate terminal record for '" + id +
                      "' accepted by replay (case would " +
                      (rt.status == 2 ? "re-run" : "be masked as done") + ")";
      out.emplace_back("inject stale terminal for " + id, std::move(t));
    }
  }

  // Crash after any journalled record, with the fsync-per-record torn-tail
  // menu: final line durable, torn mid-value, torn to one byte, or lost.
  if (s.session < opt_.max_sessions && !s.journal.empty()) {
    const long len = static_cast<long>(s.journal.back().size());
    std::vector<long> variants = {-1};
    if (opt_.torn_tails) {
      variants.push_back(0);
      if (len > 1) variants.push_back(len / 2);
      if (len > 2) variants.push_back(len - 1);
    }
    for (const long torn : variants) {
      State t = crash_and_resume(s, torn);
      std::ostringstream label;
      label << "crash after record " << s.journal.size();
      if (torn >= 0) label << " (final line torn at byte " << torn << ")";
      out.emplace_back(label.str(), std::move(t));
    }
  }
  return out;
}

std::string ManifestModel::invariant(const State& s) const {
  if (!s.violation.empty()) return s.violation;
  // Budget/bookkeeping invariants, recomputed from scratch.
  int threads = 0;
  int running = 0;
  for (usize i = 0; i < s.cases.size(); ++i) {
    if (s.cases[i].status == 1) {
      threads += threads_of(static_cast<int>(i));
      running += 1;
    }
  }
  if (threads != s.threads_in_flight)
    return "thread accounting drifted: ledger " +
           std::to_string(s.threads_in_flight) + ", actual " +
           std::to_string(threads);
  if (threads > opt_.thread_budget)
    return "thread budget oversubscribed: " + std::to_string(threads) + " > " +
           std::to_string(opt_.thread_budget);
  if (running > opt_.workers)
    return "more running cases than workers: " + std::to_string(running);
  return "";
}

std::string ManifestModel::key(const State& s) const {
  std::ostringstream os;
  os << s.session << '|' << s.running << '|' << s.threads_in_flight << '|'
     << s.failures_injected << '|' << s.duplicate_rejected << '|'
     << s.violation << '#';
  for (const CaseRt& rt : s.cases)
    os << rt.status << ',' << rt.attempt << ',' << rt.session_retries << ','
       << rt.done_journal_idx << ';';
  for (const std::string& line : s.journal) os << line << '\n';
  return os.str();
}

std::string ManifestModel::print(const State& s) const {
  std::ostringstream os;
  os << "session " << s.session << ", threads " << s.threads_in_flight << "/"
     << opt_.thread_budget << ", running " << s.running << "/" << opt_.workers;
  if (s.duplicate_rejected) os << ", duplicate fault rejected";
  os << "\n";
  for (usize i = 0; i < s.cases.size(); ++i) {
    const CaseRt& rt = s.cases[i];
    os << "  " << case_id(static_cast<int>(i)) << ": "
       << status_name(rt.status) << " (attempt " << rt.attempt
       << ", session retries " << rt.session_retries;
    if (rt.done_journal_idx >= 0)
      os << ", done record @" << rt.done_journal_idx;
    os << ")\n";
  }
  if (!s.journal.empty()) {
    os << "  journal (" << s.journal.size() << " records):\n";
    for (const std::string& line : s.journal) os << "    " << line << "\n";
  }
  if (!s.violation.empty()) os << "  VIOLATION: " << s.violation << "\n";
  return os.str();
}

}  // namespace felis::verify
