#!/usr/bin/env python3
"""Build and run the serving benchmark (see servebench/README.md).

Run from the repository root:

  python3 servebench/run.py --workload chat --seed 1 --seconds 20 --trace 0
  python3 servebench/run.py --workload chat --seed 1 --seconds 20 --trace 1
  python3 servebench/run.py --selftest

The first call builds the engine library and the benchmark program into
.bench_build/ (CMake, Release). A run prints the program's report; its last
stdout line is one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) named in BENCHMARK.json. The traced run also writes a
Chrome trace to .bench_build/traces/. Any build failure, stream mismatch or
metric-name mismatch exits non-zero without printing that JSON line.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json expects for this mode."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_program(workload, seed, seconds, trace, toy=False):
    """Run the built program; returns (returncode, stdout lines, trace path)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(
        TRACE_DIR, f"{workload}-seed{seed}{'-toy' if toy else ''}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_path]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"program did not finish within {RUN_TIMEOUT_S} s")
        return 1, [], trace_path
    return proc.returncode, proc.stdout.splitlines(), trace_path


def check_result(lines, trace):
    """The last line must be the result object naming exactly the metrics
    BENCHMARK.json lists for this mode, with their units. Returns an error
    string or None."""
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, or units differ"
    if result["correct"] is not True or result["attempted"] < 1:
        return "result is not correct"
    return None


# --- self-test at toy scale ------------------------------------------------

def parse_accounting(lines):
    """(sent, completed, failed, per-reason counts) from the report."""
    for line in lines:
        m = re.match(r"requests: sent (\d+), completed (\d+), failed (\d+) \((.*)\)", line)
        if m:
            reasons = {}
            for part in m.group(4).split(", "):
                name, count = part.rsplit(" ", 1)
                reasons[name] = int(count)
            return int(m.group(1)), int(m.group(2)), int(m.group(3)), reasons
    return None


# What each workload was chosen to exercise (the program refuses a run that
# misses it; the self-test checks the printed counts independently).
EXERCISE = {
    "chat": lambda preempt, hits, adm: hits == 0 and preempt == 0,
    "shared_prefix": lambda preempt, hits, adm: adm > 0 and hits >= 0.9 * adm,
    "long_context": lambda preempt, hits, adm: preempt > 0,
}


def engine_counts(lines):
    """(preemptions, prefix hits, admissions) from the report."""
    for line in lines:
        m = re.match(r"engine: \d+ steps, (\d+) preemptions, (\d+) prefix hits "
                     r"in (\d+) admissions", line)
        if m:
            return tuple(int(g) for g in m.groups())
    return None


def digest(lines):
    for line in lines:
        if line.startswith("stream digest: "):
            return line.split(": ", 1)[1]
    return None


def check_trace(path):
    """The trace parses and every span lies inside its parent span."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
    if not spans:
        return "trace has no spans"
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = spans.get(parent)
        if p is None:
            return f"span {e['args']['span']} has unknown parent {parent}"
        # Timestamps are exact microseconds with three decimals; compare in ns.
        s, d = round(e["ts"] * 1000), round(e["dur"] * 1000)
        ps, pd = round(p["ts"] * 1000), round(p["dur"] * 1000)
        if s < ps or s + d > ps + pd:
            return f"span {e['name']} lies outside its parent {p['name']}"
    names = {e["name"] for e in spans.values()}
    for required in ("timed_phase", "step", "submit", "replay"):
        if required not in names:
            return f"trace has no {required} span"
    if not any(e["ph"] == "e" and e["cat"] == "request" for e in events):
        return "trace has no request lifecycle"
    return None


def selftest():
    with open(BENCHMARK_JSON) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []

    def fail(msg):
        failures.append(msg)
        log(f"FAIL {msg}")

    for wl in workloads:
        digests = []
        for seed, trace in ((1, False), (1, True), (2, False)):
            tag = f"{wl} seed {seed} trace {int(trace)}"
            rc, lines, trace_path = run_program(wl, seed, 3, trace, toy=True)
            if rc != 0:
                fail(f"{tag}: exit code {rc}")
                continue
            err = check_result(lines, trace)
            if err:
                fail(f"{tag}: {err}")
                continue
            result = json.loads(lines[-1])
            for name, unit in expected_metrics(trace).items():
                if not any(re.search(rf"\b{re.escape(name)}\s+\S+ {re.escape(unit)}\b", l)
                           for l in lines[:-1]):
                    fail(f"{tag}: {name} not printed with unit {unit}")
            acct = parse_accounting(lines)
            if acct is None:
                fail(f"{tag}: no request accounting line")
            else:
                sent, completed, failed, reasons = acct
                if sent != completed + failed or sum(reasons.values()) != sent:
                    fail(f"{tag}: sent {sent} != completed {completed} + failed {failed}")
                if result["attempted"] != sent or result["failed"] != failed:
                    fail(f"{tag}: JSON attempted/failed disagree with the report")
            counts = engine_counts(lines)
            if counts is None:
                fail(f"{tag}: no engine counts line")
            elif wl in EXERCISE and not EXERCISE[wl](*counts):
                fail(f"{tag}: preemptions/prefix hits/admissions {counts} miss "
                     f"what the workload exercises")
            if trace:
                err = check_trace(trace_path)
                if err:
                    fail(f"{tag}: {err}")
            if seed == 1:
                digests.append(digest(lines))
        if len(digests) == 2 and (digests[0] is None or digests[0] != digests[1]):
            fail(f"{wl}: stream digest differs between untraced and traced runs of one seed")
        log(f"{wl}: checked")

    # Without the engine sources next to it the benchmark must fail cleanly.
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(BENCHMARK_JSON, bare)
        shutil.copytree(HERE, os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "servebench/run.py", "--workload", workloads[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("a checkout without the engine sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if failures:
        log(f"self-test FAILED ({len(failures)} problems)")
        return 1
    log("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark itself at toy scale")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    if not os.path.exists(BENCHMARK_JSON):
        log("BENCHMARK.json not found at the repository root")
        return 2
    if not build():
        return 2
    if args.selftest:
        return selftest()

    rc, lines, _ = run_program(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if rc != 0:
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        log(f"program exited with code {rc}")
        return rc
    err = check_result(lines, bool(args.trace))
    if err:
        print("\n".join(lines[:-1]))
        log(err)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
