#!/usr/bin/env python3
"""felis-trace: validate and summarize felis telemetry artifacts.

A felis run with `telemetry.enabled = true` produces
  <dir>/<basename>.ndjson       one JSON record per line: a `header` record
                                (schema + run metadata) followed by `step`
                                records carrying the rank's step record;
  <dir>/<basename>.trace.json   a Chrome trace_event file of the run's one
                                TraceRecorder: Profiler regions and stream
                                intervals on one clock, with step
                                boundaries as instant events.

The NDJSON stream uses crash-safe appends: every fsync'd prefix is a valid
record stream, and a crash can leave at most one torn final line. Like the
in-tree status fold (src/obs/campaign_monitor.*), this tool treats a line as
complete only once its trailing newline is on disk: an unterminated final
line is skipped (with a note) even when it happens to parse as JSON. A
missing stream file is a named error, never a traceback.

A campaign run (felis_campaign / sched::Scheduler) produces
  <campaign.dir>/manifest.ndjson   the crash-safe run journal: a `header`
                                   record, one `case` record per expanded
                                   sweep case, then `run` state transitions
                                   (queued -> running -> done/failed/retried)
                                   and `resume` markers appended by later
                                   sessions. A resume session heals a torn
                                   tail by terminating it, so the journal may
                                   contain newline-terminated malformed lines
                                   mid-stream; the manifest reader skips and
                                   counts them, exactly like the C++ fold.
  <campaign.dir>/campaign.trace.json  (felis_campaign --export-trace) the
                                   merged fleet trace: each case on its own
                                   track plus the scheduler's queue timeline
                                   (otherData carries "merged":"campaign").

Usage
-----
  felis_trace.py --check <run.ndjson> [<run.trace.json>]
  felis_trace.py --check <campaign.trace.json>
      Validate the artifacts (exit 1 on any structural problem). A lone
      *.trace.json argument checks just the trace; a merged campaign trace
      is validated against the campaign contract (sched + step categories).
  felis_trace.py --summary <run.ndjson>
      Print a human-readable run summary from the metrics stream.
  felis_trace.py --campaign <manifest.ndjson> [<status.json>]
      Validate a campaign manifest: header-first schema, every run record
      referencing a declared case, legal state transitions, monotone attempt
      numbers. Prints the per-case final states (exit 1 on violations).
      With a `felis_campaign --status` document, also require that its
      per-case states, state counts and threads_in_flight equal this fold
      of the same manifest (the C++ status fold reads it independently).
"""

import argparse
import json
import sys

# Fields every step record's `metrics` object must contain (the acceptance
# contract of the telemetry layer: iteration counts, residuals, Nu, CFL and
# checkpoint statistics are always present, even when zero).
REQUIRED_METRICS = (
    "solver.cfl",
    "solver.pressure_iterations",
    "solver.velocity_iterations",
    "solver.pressure_residual",
    "case.nu_volume",
    "checkpoint.writes",
    "checkpoint.retries",
    "health.anomalies",
    "health.flags.iteration_spike",
    "health.flags.residual_stagnation",
    "health.flags.checkpoint_retry",
)

REQUIRED_METADATA = ("backend", "threads", "degree")

# A merged campaign trace (felis_campaign --export-trace) has a different
# contract: scheduler + per-case step events, campaign metadata.
CAMPAIGN_TRACE_CATS = ("sched", "step")
CAMPAIGN_TRACE_METADATA = ("campaign", "cases", "workers")


class CheckError(Exception):
    pass


def read_journal_lines(path):
    """Read a crash-safe NDJSON journal the way the C++ readers do: a line
    is complete only once its trailing newline is on disk, so an
    unterminated final line is a torn tail and is withheld regardless of
    whether it happens to parse. Returns (lines, torn_tail); raises a named
    CheckError (not a bare traceback) when the file is missing."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
    except FileNotFoundError:
        raise CheckError(f"{path}: stream file not found")
    except IsADirectoryError:
        raise CheckError(f"{path}: is a directory, not a stream file")
    lines = raw.split("\n")
    torn_tail = False
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline leaves one empty final element
    elif lines and lines[-1] != "":
        lines.pop()  # unterminated tail: crash-interrupted append
        torn_tail = True
    return lines, torn_tail


def read_ndjson(path):
    """Parse the metrics stream; returns (header, steps, torn_tail)."""
    lines, torn_tail = read_journal_lines(path)
    header = None
    steps = []
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            # Telemetry truncates its stream at run start, so unlike the
            # manifest it can never contain a healed torn line mid-stream.
            raise CheckError(f"{path}:{i + 1}: malformed JSON mid-stream")
        if not isinstance(record, dict) or "type" not in record:
            raise CheckError(f"{path}:{i + 1}: record has no 'type' field")
        if record["type"] == "header":
            if i != 0:
                raise CheckError(f"{path}:{i + 1}: header record not first")
            header = record
        elif record["type"] == "step":
            steps.append((i + 1, record))
        else:
            raise CheckError(
                f"{path}:{i + 1}: unknown record type {record['type']!r}")
    return header, steps, torn_tail


def check_ndjson(path):
    header, steps, torn_tail = read_ndjson(path)
    if header is None:
        raise CheckError(f"{path}: missing header record")
    metadata = header.get("metadata")
    if not isinstance(metadata, dict):
        raise CheckError(f"{path}: header has no metadata object")
    for key in REQUIRED_METADATA:
        if key not in metadata:
            raise CheckError(
                f"{path}: header metadata missing {key!r} "
                "(needed to join against BENCH_*.json)")
    if not steps:
        raise CheckError(f"{path}: no step records")
    prev_step = None
    for lineno, record in steps:
        for field in ("step", "time", "wall_seconds", "metrics"):
            if field not in record:
                raise CheckError(f"{path}:{lineno}: step record missing {field!r}")
        metrics = record["metrics"]
        if not isinstance(metrics, dict):
            raise CheckError(f"{path}:{lineno}: metrics is not an object")
        for name in REQUIRED_METRICS:
            if name not in metrics:
                raise CheckError(
                    f"{path}:{lineno}: metrics missing {name!r}")
        if prev_step is not None and record["step"] <= prev_step:
            raise CheckError(
                f"{path}:{lineno}: step {record['step']} not monotonically "
                f"increasing (previous {prev_step})")
        prev_step = record["step"]
    return header, steps, torn_tail


def check_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            trace = json.load(f)
        except json.JSONDecodeError as e:
            raise CheckError(f"{path}: not valid JSON: {e}")
    if "traceEvents" not in trace:
        raise CheckError(f"{path}: missing traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise CheckError(f"{path}: traceEvents is not an array")
    cats = set()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            raise CheckError(f"{path}: traceEvents[{i}] is not an object")
        ph = e.get("ph")
        if ph not in ("X", "i", "M"):
            raise CheckError(f"{path}: traceEvents[{i}] has unexpected ph {ph!r}")
        if ph == "X":
            for field in ("name", "cat", "ts", "dur", "pid", "tid"):
                if field not in e:
                    raise CheckError(
                        f"{path}: traceEvents[{i}] (ph=X) missing {field!r}")
            if e["ts"] < 0 or e["dur"] < 0:
                raise CheckError(
                    f"{path}: traceEvents[{i}] has negative ts/dur")
        if ph == "i" and "ts" not in e:
            raise CheckError(f"{path}: traceEvents[{i}] (ph=i) missing ts")
        if "cat" in e:
            cats.add(e["cat"])
    if "otherData" not in trace or not isinstance(trace["otherData"], dict):
        raise CheckError(f"{path}: missing otherData metadata object")
    other = trace["otherData"]
    if other.get("merged") == "campaign":
        # Merged fleet trace: scheduler queue/transition events plus per-case
        # step marks, with campaign-level metadata.
        for cat in CAMPAIGN_TRACE_CATS:
            if cat not in cats:
                raise CheckError(
                    f"{path}: no events with cat={cat!r} — a merged campaign "
                    "trace must contain scheduler events and step marks")
        for key in CAMPAIGN_TRACE_METADATA:
            if key not in other:
                raise CheckError(f"{path}: otherData missing {key!r}")
        return events, cats
    # The single-run contract: profiler regions AND stream intervals on one
    # timeline, with step boundaries marked.
    for cat in ("profiler", "stream", "step"):
        if cat not in cats:
            raise CheckError(
                f"{path}: no events with cat={cat!r} — the merged timeline "
                "must contain profiler regions, stream intervals and step marks")
    for key in REQUIRED_METADATA:
        if key not in other:
            raise CheckError(f"{path}: otherData missing {key!r}")
    return events, cats


def print_trace_ok(path, events, cats):
    print(f"{path}: OK ({len(events)} trace events, "
          f"categories: {', '.join(sorted(cats))})")


def cmd_check(paths):
    if len(paths) == 1 and paths[0].endswith(".trace.json"):
        # Lone trace check (the campaign's merged trace has no companion
        # NDJSON stream of its own).
        events, cats = check_trace(paths[0])
        print_trace_ok(paths[0], events, cats)
        return 0
    ndjson_path = paths[0]
    header, steps, torn_tail = check_ndjson(ndjson_path)
    print(f"{ndjson_path}: OK ({len(steps)} step records, "
          f"schema {header.get('schema')}"
          + (", torn final line tolerated" if torn_tail else "") + ")")
    if len(paths) > 1:
        events, cats = check_trace(paths[1])
        print_trace_ok(paths[1], events, cats)
    return 0


CAMPAIGN_SCHEMA = "felis-campaign-1"
RUN_STATES = ("queued", "running", "done", "failed", "retried")
# Legal per-case transitions within one scheduler session. A resume session
# additionally re-queues every non-done case (including one left "running"
# by a kill), which is legal only after a `resume` record has been seen.
CAMPAIGN_TRANSITIONS = {
    None: {"queued"},
    "queued": {"running"},
    "running": {"done", "failed", "retried"},
    "retried": {"queued"},
    "failed": set(),
    "done": set(),
}


def read_campaign_manifest(path):
    """Parse the manifest; returns (records, torn_tail, healed) where
    records is a list of (lineno, dict). A resume session's writer heals a
    torn tail by terminating it with a newline, so the journal may contain
    complete-but-malformed lines mid-stream; like the C++ fold
    (sched::apply_manifest_line ignores them), they are skipped and counted
    in `healed`, never fatal."""
    lines, torn_tail = read_journal_lines(path)
    records = []
    healed = 0
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            healed += 1
            continue
        if not isinstance(record, dict) or "type" not in record:
            raise CheckError(f"{path}:{i + 1}: record has no 'type' field")
        records.append((i + 1, record))
    return records, torn_tail, healed


def check_campaign(path):
    records, torn_tail, healed = read_campaign_manifest(path)
    if not records:
        raise CheckError(f"{path}: empty manifest")
    lineno, header = records[0]
    if header["type"] != "header":
        raise CheckError(f"{path}:{lineno}: first record is not a header")
    if header.get("schema") != CAMPAIGN_SCHEMA:
        raise CheckError(
            f"{path}:{lineno}: schema {header.get('schema')!r}, "
            f"expected {CAMPAIGN_SCHEMA!r}")
    for key in ("campaign", "cases", "workers", "thread_budget"):
        if key not in header:
            raise CheckError(f"{path}:{lineno}: header missing {key!r}")
    cases = {}        # id -> case record
    last_state = {}   # id -> last run state
    attempts = {}     # id -> highest attempt seen
    resumes = 0
    for lineno, record in records[1:]:
        rtype = record["type"]
        if rtype == "header":
            raise CheckError(f"{path}:{lineno}: duplicate header record")
        elif rtype == "case":
            for key in ("case", "threads", "steps", "cost_seconds"):
                if key not in record:
                    raise CheckError(
                        f"{path}:{lineno}: case record missing {key!r}")
            if record["case"] in cases:
                raise CheckError(
                    f"{path}:{lineno}: case {record['case']!r} declared twice")
            cases[record["case"]] = record
        elif rtype == "resume":
            if "pending" not in record:
                raise CheckError(f"{path}:{lineno}: resume missing 'pending'")
            resumes += 1
        elif rtype == "run":
            for key in ("case", "state", "attempt", "wall_seconds"):
                if key not in record:
                    raise CheckError(
                        f"{path}:{lineno}: run record missing {key!r}")
            cid, state = record["case"], record["state"]
            if cid not in cases:
                raise CheckError(
                    f"{path}:{lineno}: run record for undeclared case {cid!r}")
            if state not in RUN_STATES:
                raise CheckError(f"{path}:{lineno}: unknown state {state!r}")
            prev = last_state.get(cid)
            legal = CAMPAIGN_TRANSITIONS[prev]
            # A later session re-journals every surviving case as queued —
            # whatever non-done state the kill left behind.
            if resumes and prev != "done" and state == "queued":
                legal = legal | {"queued"}
            if state not in legal:
                raise CheckError(
                    f"{path}:{lineno}: illegal transition {prev!r} -> "
                    f"{state!r} for case {cid!r}")
            if record["attempt"] < attempts.get(cid, 1):
                raise CheckError(
                    f"{path}:{lineno}: attempt {record['attempt']} for case "
                    f"{cid!r} below previous {attempts[cid]}")
            attempts[cid] = record["attempt"]
            last_state[cid] = state
        else:
            raise CheckError(f"{path}:{lineno}: unknown record type {rtype!r}")
    if len(cases) != header["cases"]:
        raise CheckError(
            f"{path}: header declares {header['cases']} cases, "
            f"{len(cases)} case records found")
    return header, cases, last_state, attempts, resumes, torn_tail, healed


STATUS_SCHEMA = "felis-campaign-status-2"
STATUS_STATES = ("declared", "queued", "running", "done", "failed", "retried")


def check_status(path, header, cases, last_state):
    """Cross-check a status document against check_campaign's fold: the same
    campaign and case set, every case's state equal to its last manifest
    state ("" for a case declared but never queued), the state counts, and
    threads_in_flight equal to the declared threads of the running cases.
    Returns threads_in_flight."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            status = json.load(f)
    except FileNotFoundError:
        raise CheckError(f"{path}: status document not found")
    except json.JSONDecodeError as e:
        raise CheckError(f"{path}: malformed JSON ({e})")
    if status.get("schema") != STATUS_SCHEMA:
        raise CheckError(f"{path}: schema {status.get('schema')!r}, "
                         f"expected {STATUS_SCHEMA!r}")
    if status.get("campaign") != header["campaign"]:
        raise CheckError(f"{path}: campaign {status.get('campaign')!r}, "
                         f"the manifest says {header['campaign']!r}")
    rows = {row["case"]: row for row in status.get("cases", [])}
    if set(rows) != set(cases):
        raise CheckError(f"{path}: case set differs from the manifest's "
                         f"({', '.join(sorted(set(rows) ^ set(cases)))})")
    problems = []
    for cid in sorted(cases):
        want = last_state.get(cid, "")
        if rows[cid].get("state") != want:
            problems.append(f"case {cid!r} is {rows[cid].get('state')!r}, "
                            f"the manifest fold says {want!r}")
    counts = {state: 0 for state in STATUS_STATES}
    for cid in cases:
        counts[last_state.get(cid) or "declared"] += 1
    if status.get("counts") != counts:
        problems.append(f"counts {status.get('counts')}, the manifest fold "
                        f"says {counts}")
    threads = sum(cases[cid]["threads"] for cid in cases
                  if last_state.get(cid) == "running")
    if status.get("threads_in_flight") != threads:
        problems.append(f"threads_in_flight {status.get('threads_in_flight')}"
                        f", the manifest fold says {threads}")
    if problems:
        raise CheckError(f"{path}: " + "; ".join(problems))
    return threads


def cmd_campaign(path, status_path=None):
    (header, cases, last_state, attempts, resumes, torn,
     healed) = check_campaign(path)
    threads = None
    if status_path is not None:
        threads = check_status(status_path, header, cases, last_state)
    counts = {}
    for cid in cases:
        counts.setdefault(last_state.get(cid, "declared"), []).append(cid)
    total_attempts = sum(attempts.values())
    notes = ""
    if torn:
        notes += ", torn final line tolerated"
    if healed:
        notes += f", {healed} healed torn line(s) skipped"
    print(f"{path}: OK (campaign {header['campaign']!r}, {len(cases)} cases, "
          f"{resumes} resume(s), {total_attempts} attempts" + notes + ")")
    for state in ("done", "running", "queued", "retried", "failed", "declared"):
        ids = counts.get(state)
        if ids:
            print(f"  {state:8s} {len(ids):3d}  {', '.join(sorted(ids))}")
    if status_path is not None:
        print(f"{status_path}: OK (states, counts and threads_in_flight "
              f"{threads} match the manifest fold)")
    return 0


def cmd_summary(path):
    header, steps, torn_tail = read_ndjson(path)
    if header is not None:
        meta = header.get("metadata", {})
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"run: {pairs}")
    if not steps:
        print("no step records")
        return 1
    first, last = steps[0][1], steps[-1][1]
    nsteps = len(steps)
    wall = last.get("wall_seconds", 0) - first.get("wall_seconds", 0)
    rate = (nsteps - 1) / wall if wall > 0 and nsteps > 1 else 0.0
    print(f"steps: {first['step']}..{last['step']} "
          f"({nsteps} records, {rate:.2f} steps/s)")
    m = last.get("metrics", {})

    def val(name):
        v = m.get(name)
        if isinstance(v, dict):
            return v.get("last", 0)
        return v if v is not None else 0

    print(f"final: CFL={val('solver.cfl'):.3f} "
          f"p_it={val('solver.pressure_iterations'):.0f} "
          f"p_res={val('solver.pressure_residual'):.3e} "
          f"Nu={val('case.nu_volume'):.4f}")
    writes = m.get("checkpoint.write_seconds")
    if not isinstance(writes, dict):
        writes = {}
    count = writes.get("count", 0)
    mean = writes.get("sum", 0) / count if count else 0.0
    print(f"checkpoints: writes={val('checkpoint.writes'):.0f} "
          f"retries={val('checkpoint.retries'):.0f} "
          f"write_s_mean={mean:.4f} write_s_max={writes.get('max', 0):.4f}")
    if torn_tail:
        print("note: torn final line (crash-interrupted append) skipped")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="validate artifacts, exit 1 on problems")
    mode.add_argument("--summary", action="store_true",
                      help="print a run summary from the NDJSON stream")
    mode.add_argument("--campaign", action="store_true",
                      help="validate a campaign manifest.ndjson")
    parser.add_argument("paths", nargs="+",
                        help="run.ndjson [run.trace.json] | "
                             "manifest.ndjson [status.json]")
    args = parser.parse_args()
    if len(args.paths) > (1 if args.summary else 2):
        parser.error(f"too many paths: {' '.join(args.paths)}")
    try:
        if args.check:
            return cmd_check(args.paths)
        if args.campaign:
            return cmd_campaign(*args.paths[:2])
        return cmd_summary(args.paths[0])
    except (CheckError, OSError) as e:
        print(f"felis-trace: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
