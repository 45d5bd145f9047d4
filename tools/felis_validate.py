#!/usr/bin/env python3
"""Gate a finished validation-matrix campaign against its encoded references.

    felis_validate.py <campaign.txt> --dir <campaign_dir> [--min-types N]

Reads the campaign file's validation.* keys:

    validation.nu.<type>   reference nu_volume for that case type
    validation.nu_tol      |nu_volume - reference| tolerance (default 0.05)
    validation.consistency |nu_plate - nu_volume| tolerance, scaled by
                           max(1, |nu_volume|)        (default 0.05)

and checks, against <campaign_dir>/manifest.ndjson and nu_ra.csv:

  0. the manifest passes felis_trace.py's campaign check, whose fold gives
     each case's final state;
  1. every campaign case reached final state `done` in the manifest;
  2. every done case has a CSV row;
  3. the matrix exercised at least --min-types distinct case types (default 3);
  4. per case: nu_volume within tolerance of its type's reference, and the
     two independent Nusselt measurements agree (plate vs volume — the
     Kooij-style cross-check that catches broken BCs/forcing/observables).

Exit 0 when everything passes, 1 otherwise (each violation is printed).
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from felis_trace import CheckError, check_campaign


def parse_params(text: str) -> dict[str, str]:
    """Parse felis ParamMap syntax: `key = value` statements separated by
    newlines or ';', `#` comments to end of line, blanks ignored."""
    params: dict[str, str] = {}
    for line in text.replace(";", "\n").splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            continue
        key, value = line.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("campaign", help="campaign file with validation.* keys")
    parser.add_argument("--dir", required=True,
                        help="campaign directory (manifest.ndjson, nu_ra.csv)")
    parser.add_argument("--min-types", type=int, default=3,
                        help="minimum distinct case types (default 3)")
    args = parser.parse_args()

    params = parse_params(Path(args.campaign).read_text())
    references = {key[len("validation.nu."):]: float(value)
                  for key, value in params.items()
                  if key.startswith("validation.nu.")}
    nu_tol = float(params.get("validation.nu_tol", "0.05"))
    consistency = float(params.get("validation.consistency", "0.05"))
    if not references:
        print(f"{args.campaign}: no validation.nu.<type> references encoded")
        return 1

    campaign_dir = Path(args.dir)
    manifest = campaign_dir / "manifest.ndjson"
    summary = campaign_dir / "nu_ra.csv"
    problems: list[str] = []
    for required in (manifest, summary):
        if not required.is_file():
            problems.append(f"missing artifact: {required}")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 1

    try:
        _, cases, states, *_ = check_campaign(str(manifest))
    except CheckError as e:
        print(f"FAIL {e}")
        return 1
    for case in sorted(cases):
        state = states.get(case, "absent")
        if state != "done":
            problems.append(f"{case}: final manifest state '{state}', not 'done'")

    with summary.open() as fh:
        rows = [row for row in csv.DictReader(
            line for line in fh if not line.startswith("#"))]
    rows_by_case = {row["case"]: row for row in rows}
    for case in sorted(cases):
        if states.get(case) == "done" and case not in rows_by_case:
            problems.append(f"{case}: done but missing from {summary.name}")

    types_seen = {row["type"] for row in rows}
    if len(types_seen) < args.min_types:
        problems.append(
            f"only {len(types_seen)} distinct case type(s) in the summary "
            f"({', '.join(sorted(types_seen)) or 'none'}); "
            f"need >= {args.min_types}")

    for row in rows:
        case, ctype = row["case"], row["type"]
        if ctype not in references:
            problems.append(f"{case}: no validation.nu.{ctype} reference")
            continue
        nu_volume = float(row["nu_volume"])
        nu_plate = float(row["nu_plate"])
        reference = references[ctype]
        if abs(nu_volume - reference) > nu_tol:
            problems.append(
                f"{case} ({ctype}): nu_volume {nu_volume:.6g} deviates from "
                f"reference {reference:.6g} by more than {nu_tol:g}")
        if abs(nu_plate - nu_volume) > consistency * max(1.0, abs(nu_volume)):
            problems.append(
                f"{case} ({ctype}): nu_plate {nu_plate:.6g} vs nu_volume "
                f"{nu_volume:.6g} disagree beyond {consistency:g} "
                f"(plate-vs-volume consistency)")

    if problems:
        for p in problems:
            print(f"FAIL {p}")
        print(f"felis_validate: {len(problems)} problem(s)")
        return 1
    print(f"felis_validate: {len(rows)} case(s), "
          f"{len(types_seen)} type(s) ({', '.join(sorted(types_seen))}), "
          f"all within tolerance (nu_tol {nu_tol:g}, "
          f"consistency {consistency:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
