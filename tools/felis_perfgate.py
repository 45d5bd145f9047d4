#!/usr/bin/env python3
"""felis-perfgate: compare a fresh bench_kernels sweep against the committed
baseline and fail on regression.

The baseline (BENCH_kernels.json at the repo root) is a committed perf
trajectory: every PR that touches a kernel reruns the sweep and the gate
refuses deltas outside the tolerance band. Three modes:

  ratio (default)  Per-record ns_per_iter is normalized by an anchor — the
                   geometric mean of the anchor kernel's records in the SAME
                   dataset — before comparing. Machine speed cancels, so a
                   baseline recorded on one machine gates runs on another.
                   What remains is each kernel's cost *relative to* the
                   anchor, which is what a code change shifts.
  absolute         Raw ns_per_iter comparison. Only meaningful when baseline
                   and fresh run on the same machine (e.g. a dedicated perf
                   runner).

  scaling          Thread scaling within the fresh sweep alone (no
                   baseline): at the best degree, BM_AxHelmholtz on the
                   serial backend must take at least 2.0x the time it takes
                   on the 4-thread openmp backend. The best degree, not
                   every degree, because the first OpenMP records of a sweep
                   can read 100-500x slow while the team warms up.

Records are keyed by (kernel, degree, backend, threads). Keys present in only
one dataset are reported but not fatal (sweeps evolve); zero overlapping keys
is a structural error. The committed baseline is serial-focused (CI containers
often expose one core), so --only-backend serial is the normal CI invocation;
multi-thread scaling is gated separately, by the kernel-bench job's
--mode scaling run.

--require-speedup TUNED:REF:DEGREE:MINRATIO asserts, WITHIN the fresh sweep,
that kernel TUNED is at least MINRATIO× faster than kernel REF at DEGREE on
the serial backend (e.g. BM_AxHelmholtz:BM_AxHelmholtzRef:7:1.0 — ax with
the per-order kernel table must not lose to the pinned scalar reference at
the paper's production order). This is a same-machine, same-run comparison,
so it is exact in either mode.

Exit codes: 0 pass, 1 regression (or failed speedup or scaling), 2
structural problem (missing/unreadable file, no overlapping records, missing
anchor records).
"""

import argparse
import json
import math
import sys


def load_records(path, only_backend=None):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"felis-perfgate: cannot read {path}: {e}", file=sys.stderr)
        return None
    records = {}
    for rec in data:
        if only_backend and rec.get("backend") != only_backend:
            continue
        key = (rec["kernel"], rec["degree"], rec["backend"], rec["threads"])
        ns = rec.get("ns_per_iter", 0.0)
        if ns > 0:
            records[key] = ns
    return records


def anchor_value(records, anchor_kernel):
    """Geometric mean ns_per_iter of the anchor kernel's records."""
    vals = [ns for (k, _, _, _), ns in records.items() if k == anchor_kernel]
    if not vals:
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def parse_tol_overrides(items):
    out = {}
    for item in items or []:
        kernel, _, tol = item.partition("=")
        if not tol:
            raise ValueError(f"bad --tol-kernel '{item}' (want KERNEL=TOL)")
        out[kernel] = float(tol)
    return out


SCALING_KERNEL = "BM_AxHelmholtz"
SCALING_THREADS = 4
SCALING_MIN = 2.0


def check_scaling(fresh):
    """Scaling mode: the best degree's serial/openmp-4 time ratio of
    SCALING_KERNEL reaches SCALING_MIN. Returns an exit code."""
    degrees = sorted({d for (k, d, b, t) in fresh
                      if k == SCALING_KERNEL and b == "serial"} &
                     {d for (k, d, b, t) in fresh
                      if k == SCALING_KERNEL and b == "openmp"
                      and t == SCALING_THREADS})
    if not degrees:
        print(f"felis-perfgate: scaling mode needs {SCALING_KERNEL} records "
              f"on serial/1t and openmp/{SCALING_THREADS}t at one degree",
              file=sys.stderr)
        return 2
    best = 0.0
    for degree in degrees:
        serial = fresh[(SCALING_KERNEL, degree, "serial", 1)]
        omp = fresh[(SCALING_KERNEL, degree, "openmp", SCALING_THREADS)]
        best = max(best, serial / omp)
        print(f"degree {degree}: serial {serial:.0f} ns, openmp/"
              f"{SCALING_THREADS} {omp:.0f} ns, speedup {serial / omp:.2f}x")
    if best < SCALING_MIN:
        print(f"felis-perfgate: best openmp/{SCALING_THREADS} speedup "
              f"{best:.2f}x < {SCALING_MIN:.1f}x FAILED.")
        return 1
    print(f"felis-perfgate: best openmp/{SCALING_THREADS} speedup "
          f"{best:.2f}x >= {SCALING_MIN:.1f}x.")
    return 0


def key_str(key):
    kernel, degree, backend, threads = key
    return f"{kernel}/deg{degree}/{backend}/{threads}t"


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline",
                    help="committed BENCH_kernels.json (all modes but "
                         "scaling)")
    ap.add_argument("--fresh", required=True,
                    help="freshly produced BENCH_kernels.json")
    ap.add_argument("--mode", choices=("ratio", "absolute", "scaling"),
                    default="ratio")
    ap.add_argument("--anchor", default="BM_AxHelmholtzRef",
                    help="anchor kernel for ratio mode (default: "
                         "%(default)s — the pinned scalar reference)")
    ap.add_argument("--tol", type=float, default=0.30,
                    help="default tolerance band: fresh may exceed baseline "
                         "by this fraction (default %(default)s). Negative "
                         "values force failures — used by CI to prove the "
                         "gate can fail.")
    ap.add_argument("--tol-kernel", action="append", metavar="KERNEL=TOL",
                    help="per-kernel tolerance override (repeatable)")
    ap.add_argument("--only-backend", default=None,
                    help="restrict the comparison to one backend "
                         "(CI uses 'serial')")
    ap.add_argument("--require-speedup", action="append",
                    metavar="TUNED:REF:DEGREE:MINRATIO",
                    help="assert TUNED >= MINRATIO x faster than REF at "
                         "DEGREE (serial, within the fresh sweep; "
                         "repeatable)")
    args = ap.parse_args(argv)

    try:
        overrides = parse_tol_overrides(args.tol_kernel)
    except ValueError as e:
        print(f"felis-perfgate: {e}", file=sys.stderr)
        return 2

    if args.mode == "scaling":
        fresh = load_records(args.fresh)
        return 2 if fresh is None else check_scaling(fresh)
    if args.baseline is None:
        print(f"felis-perfgate: --mode {args.mode} needs --baseline",
              file=sys.stderr)
        return 2
    baseline = load_records(args.baseline, args.only_backend)
    fresh = load_records(args.fresh, args.only_backend)
    if baseline is None or fresh is None:
        return 2

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print("felis-perfgate: no overlapping records between baseline and "
              "fresh sweep", file=sys.stderr)
        return 2
    for key in sorted(set(baseline) - set(fresh)):
        print(f"note: baseline-only record {key_str(key)} (not compared)")
    for key in sorted(set(fresh) - set(baseline)):
        print(f"note: fresh-only record {key_str(key)} (not compared)")

    if args.mode == "ratio":
        base_anchor = anchor_value(baseline, args.anchor)
        fresh_anchor = anchor_value(fresh, args.anchor)
        if base_anchor is None or fresh_anchor is None:
            print(f"felis-perfgate: anchor kernel '{args.anchor}' missing "
                  "from baseline or fresh sweep (required in ratio mode)",
                  file=sys.stderr)
            return 2
    else:
        base_anchor = fresh_anchor = 1.0

    header = (f"{'record':<42} {'baseline':>10} {'fresh':>10} "
              f"{'delta':>8} {'tol':>6}  verdict")
    print(header)
    print("-" * len(header))
    failures = 0
    for key in shared:
        kernel = key[0]
        tol = overrides.get(kernel, args.tol)
        base_norm = baseline[key] / base_anchor
        fresh_norm = fresh[key] / fresh_anchor
        delta = fresh_norm / base_norm - 1.0
        ok = delta <= tol
        if not ok:
            failures += 1
        print(f"{key_str(key):<42} {base_norm:>10.4g} {fresh_norm:>10.4g} "
              f"{delta:>+7.1%} {tol:>6.0%}  {'ok' if ok else 'REGRESSION'}")

    for spec in args.require_speedup or []:
        parts = spec.split(":")
        if len(parts) != 4:
            print(f"felis-perfgate: bad --require-speedup '{spec}' "
                  "(want TUNED:REF:DEGREE:MINRATIO)", file=sys.stderr)
            return 2
        tuned, ref, degree, min_ratio = (
            parts[0], parts[1], int(parts[2]), float(parts[3]))
        tuned_key = (tuned, degree, "serial", 1)
        ref_key = (ref, degree, "serial", 1)
        if tuned_key not in fresh or ref_key not in fresh:
            print(f"felis-perfgate: speedup check needs {key_str(tuned_key)} "
                  f"and {key_str(ref_key)} in the fresh sweep",
                  file=sys.stderr)
            return 2
        ratio = fresh[ref_key] / fresh[tuned_key]
        ok = ratio >= min_ratio
        if not ok:
            failures += 1
        print(f"speedup {tuned} vs {ref} @ degree {degree}: {ratio:.3f}x "
              f"(required >= {min_ratio:.2f}x)  "
              f"{'ok' if ok else 'TOO SLOW'}")

    if failures:
        print(f"felis-perfgate: {failures} check(s) FAILED.")
        return 1
    print(f"felis-perfgate: {len(shared)} record(s) within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
