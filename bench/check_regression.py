#!/usr/bin/env python3
"""Compare bench JSON output against a checked-in baseline.

Usage:
    check_regression.py BASELINE CURRENT [CURRENT2 ...]
                        [--warn-ratio 1.35] [--fail-ratio 2.0]

Multiple CURRENT files (`bench_w4a8_gemm --json`, `bench_serving --json`
and `bench_attention --json`) are merged before comparison — the baseline
holds the union of every bench's rows.

Rows are matched on (name, isa). A baseline row of a gated ISA (see
--gate-isas) that no current file produced fails the run: every host runs
the scalar rows, so a missing one means a bench dropped it. A missing row of
any other ISA — e.g. the baseline was recorded on an AVX-512 machine and CI
only has AVX2 — is reported as skipped. The `gops` field is the compared
figure of merit; serving and attention rows store a rate there (see
rate_record in bench/bench_util.h; only ratios matter).

Policy (CI runs on noisy 1-2 core VMs, so absolute wall clock drifts):
  * slowdown ratio <= warn-ratio        -> ok
  * warn-ratio < ratio <= fail-ratio    -> warning, exit 0
  * ratio > fail-ratio                  -> failure, exit 1

Only rows whose ISA is listed in --gate-isas (default: scalar) can fail the
run; other rows always warn at most. The CI fleet is heterogeneous — an
avx512 baseline recorded on a fast workstation would gate 1:1 against
whatever frequency-licensed VM the job draws, flipping nondeterministically
between skipped and failed. The scalar rows are the stable anchor.
"""

import argparse
import json
import sys


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc["results"]:
        key = (r["name"], r["isa"])
        if key in rows:
            raise SystemExit(f"FAIL  duplicate row {key} in {path}")
        rows[key] = r
    return doc, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="+")
    ap.add_argument("--warn-ratio", type=float, default=1.35,
                    help="slowdown ratio above which to warn (default 1.35)")
    ap.add_argument("--fail-ratio", type=float, default=2.0,
                    help="slowdown ratio above which to fail (default 2.0)")
    ap.add_argument("--gate-isas", default="scalar",
                    help="comma-separated ISAs whose rows may hard-fail; "
                         "others warn only (default: scalar)")
    args = ap.parse_args()
    gate_isas = set(args.gate_isas.split(","))

    base_doc, base = load_results(args.baseline)
    cur = {}
    for path in args.current:
        cur_doc, cur_rows = load_results(path)
        for key in cur_rows:
            if key in cur:
                print(f"FAIL  duplicate row {key} across current files")
                return 1
        cur.update(cur_rows)
        print(f"baseline host_isa={base_doc.get('host_isa')} "
              f"current[{path}] host_isa={cur_doc.get('host_isa')}")
        if base_doc.get("threads") != cur_doc.get("threads"):
            print(f"WARN  thread-count mismatch (baseline "
                  f"{base_doc.get('threads')} vs {path} "
                  f"{cur_doc.get('threads')}): GOPS ratios compare different "
                  f"pool sizes — run the bench with QSERVE_NUM_THREADS="
                  f"{base_doc.get('threads')} for a like-for-like gate")

    failures, warnings, skipped = [], [], []
    for key in sorted(base):
        name, isa = key
        b, c = base[key], cur.get(key)
        if c is None:
            if isa in gate_isas:
                failures.append(f"{name} [{isa}]: missing from every "
                                f"current file")
            else:
                skipped.append(f"{name} [{isa}] (not run on this host)")
            continue
        if c["gops"] <= 0:
            line = f"{name} [{isa}]: current GOPS is zero"
            (failures if isa in gate_isas else warnings).append(line)
            continue
        ratio = b["gops"] / c["gops"]
        line = (f"{name} [{isa}]: {b['gops']:.2f} -> {c['gops']:.2f} GOPS "
                f"(x{ratio:.2f} slowdown)")
        if ratio > args.fail_ratio and isa in gate_isas:
            failures.append(line)
        elif ratio > args.warn_ratio:
            warnings.append(line)
        else:
            print(f"ok    {line}")

    for s in skipped:
        print(f"skip  {s}")
    for w in warnings:
        print(f"WARN  {w}")
    for f_ in failures:
        print(f"FAIL  {f_}")

    if failures:
        print(f"{len(failures)} row(s) missing or regressed by more than "
              f"{args.fail_ratio}x")
        return 1
    print(f"{len(warnings)} warning(s), {len(skipped)} skipped — within "
          f"tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
