#!/usr/bin/env python3
"""felis_bench: the end-to-end and per-layer benchmark of felis.

One run of one workload (the interface BENCHMARK.json declares):

  python3 felis_bench/felis_bench.py --workload cyl_n7 --seed 7 --seconds 20 --trace 0

prints the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}; it exits non-zero only when
it could not produce a result. Sets of runs, which exit 1 when any
correctness check fails, and their comparison:

  python3 felis_bench/felis_bench.py run [--workload W]... [--repeat K] [--trace] [--out FILE]
  python3 felis_bench/felis_bench.py compare BASE.json CHANGE.json

The first run builds the harness (felis_bench.cpp and the felis library from
../src) into .bench_build/. Workload windows, rank counts and the
correctness references live in felis_bench/workloads.json; metric names,
units and bounds in BENCHMARK.json. See felis_bench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
BINARY = os.path.join(BUILD, "felis_bench")
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    """A run that could not produce a result (build or harness failure)."""


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(REPO, "BENCHMARK.json"))


def workload_config():
    return load_json(os.path.join(HERE, "workloads.json"))


# ---- build and harness processes ---------------------------------------------


def ensure_built():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("felis sources not found: expected src/CMakeLists.txt "
                         "beside felis_bench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "felis_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed ({' '.join(cmd)}); see {log_path}")


def harness(args):
    """Run one felis_bench process; return its JSON result."""
    env = dict(os.environ)
    # The process-default backend is part of the workload definition.
    env.pop("FELIS_BACKEND", None)
    env.pop("OMP_NUM_THREADS", None)
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"felis_bench {args[0]} timed out after {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"felis_bench {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


class Scratch:
    """A fresh directory under .bench_build/runs, removed afterwards."""

    def __init__(self, name):
        self.path = os.path.join(BUILD, "runs", f"{name}-{os.getpid()}")

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# ---- statistics ---------------------------------------------------------------


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- step workloads -------------------------------------------------------------


def step_args(w, seed, trace, settings, scratch, setup_only=False):
    args = ["step", "--case", os.path.join(HERE, w["case"]),
            "--ranks", str(w["ranks"]), "--warmup", str(settings["warmup"]),
            "--window", str(settings["window"]), "--seed", str(seed),
            "--replays", str(settings["replays"]), "--scratch", scratch]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    return args


class Checks:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.reasons = []

    def fail(self, reason, count=1):
        self.failed += count
        self.reasons.append(reason)


def check_step(out, settings, reference, seed, checks, label):
    """Health of every step, then the reference when it applies."""
    done = len(out["step_s"])
    if out["error"]:
        checks.fail(f"{label}: stopped after {done} steps: {out['error']}",
                    settings["warmup"] + settings["window"] - done)
    if out["bad_steps"]:
        checks.fail(f"{label}: {out['bad_steps']} unhealthy steps, first {out['problem']}",
                    out["bad_steps"])
    if reference is None or seed != reference["seed"] or out["error"]:
        return
    if (settings["warmup"], settings["window"]) != (reference["warmup"], reference["window"]):
        return
    window = slice(settings["warmup"], None)
    actual = {k: sum(out[k][window]) for k in
              ("pressure_iters", "velocity_iters", "scalar_iters")}
    actual.update({k: out["observables"].get(k) for k in
                   ("nu_plate", "nu_volume", "kinetic_energy")})
    for key, value in actual.items():
        if value != reference[key]:
            checks.fail(f"{label}: {key} = {value!r}, reference {reference[key]!r}")


def step_end_to_end(w, seed, settings):
    with Scratch("setup") as scratch:
        setups = [harness(step_args(w, seed, False, settings, scratch, True))
                  for _ in range(settings["setup_runs"] - 1)]
    with Scratch("timed") as scratch:
        out = harness(step_args(w, seed, False, settings, scratch))
    checks = Checks(settings["warmup"] + settings["window"])
    check_step(out, settings, w.get("reference"), seed, checks, "timed run")
    for s in setups:
        if s["error"]:
            checks.fail(f"setup run: {s['error']}", 0)
    window = out["step_s"][settings["warmup"]:] or [math.nan]
    metrics = {
        "step_ms_p50": 1e3 * statistics.median(window),
        "step_ms_p90": 1e3 * p90(window),
        "mpoints_per_s": 1e-6 * out["points"] * settings["window"] / (out["window_s"] or math.nan),
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [out["setup_s"]]),
        "peak_rss_mb": out["peak_rss_mb"],
        # The whole run, set-up to the last window step, is this workload's case.
        "cases_per_hour": 3600.0 / out["total_s"],
        "case_wall_s_p50": out["total_s"],
    }
    return metrics, checks


def step_per_layer(w, seed, settings):
    """A timed run and a traced run of the same seed; they must agree."""
    with Scratch("timed") as scratch:
        timed = harness(step_args(w, seed, False, settings, scratch))
    with Scratch("traced") as scratch:
        traced = harness(step_args(w, seed, True, settings, scratch))
    checks = Checks(settings["warmup"] + settings["window"])
    check_step(timed, settings, w.get("reference"), seed, checks, "timed run")
    check_step(traced, settings, w.get("reference"), seed, checks, "traced run")
    for key in ("pressure_iters", "velocity_iters", "scalar_iters", "digest"):
        if timed[key] != traced[key]:
            checks.fail(f"traced run does not reproduce the timed run's {key}")
    metrics = dict(traced.get("layers", {}))
    wt = timed["step_s"][settings["warmup"]:]
    wr = traced["step_s"][settings["warmup"]:]
    if wt and wr:
        metrics["bench.tracing_overhead"] = statistics.median(wr) / statistics.median(wt) - 1
    return metrics, checks


# ---- campaign workload ------------------------------------------------------------


def campaign_args(w, seed, trace, settings, scratch, setup_only=False):
    args = ["campaign", "--case", os.path.join(HERE, w["case"]),
            "--seed", str(seed), "--scratch", scratch,
            "--replays", str(settings["replays"]),
            "--probe-steps", str(settings["probe_steps"])]
    for kv in settings.get("set", []):
        args += ["--set", kv]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    return args


def step_seconds(ndjson_path):
    """Per-step wall times from a case's telemetry stream (a torn final line
    is skipped)."""
    seconds = []
    with open(ndjson_path) as f:
        for line in f:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("type") == "step":
                seconds.append(record["step_seconds"])
    return seconds


def check_campaign(out, w, seed, settings, checks, label):
    if out["skipped"]:
        checks.fail(f"{label}: {out['skipped']} cases skipped; the campaign "
                    "directory was not fresh", out["skipped"])
    if out["retries"] != w["retries"]:
        checks.fail(f"{label}: {out['retries']} retries, expected {w['retries']}")
    reference = w.get("reference")
    for case in out["cases"]:
        nu = {k: case["metrics"].get(k) for k in ("nu_plate", "nu_volume")}
        if case["state"] != "done":
            checks.fail(f"{label}: case {case['id']} ended {case['state']}: "
                        f"{case['detail']}")
        elif not all(isinstance(v, float) and math.isfinite(v) for v in nu.values()):
            checks.fail(f"{label}: case {case['id']} has non-finite Nu {nu}")
        elif reference and seed == reference["seed"] and not settings.get("set"):
            expected = reference["cases"].get(case["id"])
            if nu != expected:
                checks.fail(f"{label}: case {case['id']} Nu {nu}, uninterrupted "
                            f"reference {expected}")


def campaign_step_seconds(out):
    seconds = []
    for case in out["cases"]:
        if case["state"] == "done":
            seconds += step_seconds(case["ndjson"])
    return seconds or [math.nan]


def campaign_end_to_end(w, seed, settings):
    setups = []
    for _ in range(settings["setup_runs"]):
        with Scratch("setup") as scratch:
            setups.append(harness(campaign_args(w, seed, False, settings, scratch, True)))
    with Scratch("timed") as scratch:
        out = harness(campaign_args(w, seed, False, settings, scratch))
        steps = campaign_step_seconds(out)
    checks = Checks(w["cases"])
    check_campaign(out, w, seed, settings, checks, "campaign")
    if not all(s["setup_s"] > 0 for s in setups):
        checks.fail("a campaign set-up run completed no step", 0)
    done = [c for c in out["cases"] if c["state"] == "done"]
    metrics = {
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * p90(steps),
        "mpoints_per_s": 1e-6 * sum(c["points"] * c["steps"] for c in done) / out["wall_s"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": out["peak_rss_mb"],
        # Completed cases only: CampaignReport::cases_per_hour() adds skipped ones.
        "cases_per_hour": 3600.0 * out["completed"] / out["wall_s"],
        "case_wall_s_p50": statistics.median([c["wall_s"] for c in done] or [math.nan]),
    }
    return metrics, checks


def campaign_per_layer(w, seed, settings):
    with Scratch("timed") as scratch:
        timed = harness(campaign_args(w, seed, False, settings, scratch))
        timed_steps = campaign_step_seconds(timed)
    with Scratch("traced") as scratch:
        traced = harness(campaign_args(w, seed, True, settings, scratch))
        traced_steps = campaign_step_seconds(traced)
    checks = Checks(w["cases"])
    check_campaign(timed, w, seed, settings, checks, "timed campaign")
    check_campaign(traced, w, seed, settings, checks, "traced campaign")
    final = lambda out: {c["id"]: (c["metrics"].get("nu_plate"), c["metrics"].get("nu_volume"))
                         for c in out["cases"]}
    if final(timed) != final(traced):
        checks.fail("traced campaign does not reproduce the timed campaign's final Nu")
    metrics = dict(traced.get("layers", {}))
    metrics["bench.tracing_overhead"] = (statistics.median(traced_steps)
                                         / statistics.median(timed_steps) - 1)
    return metrics, checks


# ---- one run ------------------------------------------------------------------------


def run_settings(w, config, overrides=None):
    settings = dict(config["defaults"])
    settings.update({k: w[k] for k in ("warmup", "window") if k in w})
    settings.update(overrides or {})
    return settings


def measure(name, seed, trace, overrides=None):
    """One run of one workload: (metrics, Checks). `overrides` shortens the
    run for the self-test (warmup, window, setup_runs, replays, set)."""
    config = workload_config()
    w = config["workloads"][name]
    settings = run_settings(w, config, overrides)
    ensure_built()
    kind = {("step", False): step_end_to_end, ("step", True): step_per_layer,
            ("campaign", False): campaign_end_to_end,
            ("campaign", True): campaign_per_layer}
    return kind[(w["kind"], trace)](w, seed, settings)


def result_json(metrics, checks, trace):
    spec = benchmark_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            checks.fail(f"metric {m['name']} was not measured", 0)
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": checks.failed == 0 and not checks.reasons,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": out}


def print_result(name, result):
    for metric, v in result["metrics"].items():
        print(f"{name:12s} {metric:30s} {v['value']:14.6g} {v['unit']}")
    print(f"{name:12s} {'ops_attempted':30s} {result['attempted']:14d}")
    print(f"{name:12s} {'ops_failed':30s} {result['failed']:14d}")


def run_one(name, seed, trace):
    metrics, checks = measure(name, seed, trace)
    result = result_json(metrics, checks, trace)
    for reason in checks.reasons:
        print(f"FAIL {name}: {reason}", file=sys.stderr)
    return result


# ---- sets of runs and their comparison ---------------------------------------------


def verdict(base, change, better, bound):
    """Compare one metric's run sets, following the rule that a gain needs
    nine tenths of the pairs and a difference beyond the parent's spread."""
    qb, qc = quartiles(base), quartiles(change)
    mb, mc = qb[1], qc[1]
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    spread = max((qb[2] - qb[0]) / abs(mb) if mb else 0.0,
                 (qc[2] - qc[0]) / abs(mc) if mc else 0.0)
    beats = lambda c, b: sign * (c - b) < 0
    all_better = all(beats(c, b) for c in change for b in base)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(beats(c, b) for b, c in pairs)
    base_iqr = (qb[2] - qb[0]) / abs(mb) if mb else 0.0
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > base_iqr:
        return "improved"
    return "within bound"


def failure_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare_sets(base, change, spec):
    """Rows (workload, metric, base quartiles, change quartiles, verdict)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name in sorted(set(base["workloads"]) & set(change["workloads"])):
        b_runs, c_runs = base["workloads"][name], change["workloads"][name]
        for metric, m in bounds.items():
            b = [r["metrics"][metric]["value"] for r in b_runs]
            c = [r["metrics"][metric]["value"] for r in c_runs]
            rows.append((name, metric, quartiles(b), quartiles(c),
                         verdict(b, c, m["better"], m["bound"])))
        fb, fc = failure_share(b_runs), failure_share(c_runs)
        rows.append((name, "failure_share", (fb,) * 3, (fc,) * 3,
                     "worse" if fc > fb else "within bound"))
    return rows


def cmd_run(args):
    config = workload_config()
    names = args.workload or list(config["workloads"])
    # Appending lets two commits' sets be built alternately, one run at a time.
    results = (load_json(args.out) if args.out and os.path.exists(args.out)
               else {"workloads": {}})
    ok = True
    for name in names:
        for r in range(args.repeat):
            result = run_one(name, args.seed + r, False)
            results["workloads"].setdefault(name, []).append(result)
            ok &= result["correct"]
            print_result(name, result)
            if args.trace:
                layered = run_one(name, args.seed + r, True)
                ok &= layered["correct"]
                print_result(name, layered)
    spec = benchmark_spec()
    print(f"\n{'workload':12s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} unit")
    for name in names:
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles([r["metrics"][m["name"]]["value"]
                                    for r in results["workloads"][name]])
            print(f"{name:12s} {m['name']:18s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    rows = compare_sets(load_json(args.base), load_json(args.change), benchmark_spec())
    print(f"{'workload':12s} {'metric':18s} {'base median':>12s} {'[q1, q3]':>24s} "
          f"{'change median':>13s} {'[q1, q3]':>24s}  verdict")
    for name, metric, b, c, v in rows:
        print(f"{name:12s} {metric:18s} {b[1]:12.6g} [{b[0]:10.4g}, {b[2]:10.4g}] "
              f"{c[1]:13.6g} [{c[0]:10.4g}, {c[2]:10.4g}]  {v}")
    return 1 if any(v == "worse" for *_, v in rows) else 0


def main(argv):
    if argv and argv[0] in ("run", "compare"):
        parser = argparse.ArgumentParser(prog="felis_bench.py")
        sub = parser.add_subparsers(dest="command", required=True)
        run = sub.add_parser("run", help="run a set and print medians and quartiles")
        run.add_argument("--workload", action="append")
        run.add_argument("--seed", type=int, default=7)
        run.add_argument("--repeat", type=int, default=1)
        run.add_argument("--trace", action="store_true",
                         help="also make the traced run and print per-layer metrics")
        run.add_argument("--out", help="run-set JSON for compare; appended to if it exists")
        cmp = sub.add_parser("compare", help="compare two run sets")
        cmp.add_argument("base")
        cmp.add_argument("change")
        args = parser.parse_args(argv)
        return cmd_run(args) if args.command == "run" else cmd_compare(args)

    parser = argparse.ArgumentParser(prog="felis_bench.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workload_config()["workloads"]))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=benchmark_spec()["run_seconds"],
                        help="nominal measured time; windows are fixed step "
                             "counts sized to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_one(args.workload, args.seed, bool(args.trace))
    print_result(args.workload, result)
    # A failed check is reported in the result ("correct", "failed"); the
    # exit code says only whether a result was produced.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError) as e:
        print(f"felis_bench: {e}", file=sys.stderr)
        sys.exit(2)
