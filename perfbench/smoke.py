#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        # from the repository root, ~2 minutes

Checks, with short runs:
  * bad arguments exit 2, both through run.py and whisper_bench itself;
  * every workload, untraced and traced, ends its stdout with a result line
    that parses, has exactly the keys correct/attempted/failed/metrics, is
    correct, and carries exactly the end-to-end (untraced) or per-layer
    (traced) metrics BENCHMARK.json names, each with its unit and a finite
    value;
  * two untraced runs of one seed print the same exact-count fingerprint,
    and the traced run's counts equal the untraced run's;
  * the traced run writes a Chrome trace that parses.
Exits 1 on the first failure.
"""
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SEED = 7
SECONDS = 2


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)


def bench_binary():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench", "whisper_bench")


def check_rejects():
    good = ["--workload", "sweep_deep", "--seed", "1", "--seconds", "1"]
    bad_cases = [
        good + ["--bogus", "1"],
        ["--workload", "nope", "--seed", "1"],
        ["--workload", "sweep_deep", "--seed", "abc"],
        ["--workload", "sweep_deep", "--seed", "1", "--trace", "2"],
        ["--workload", "sweep_deep", "--seed", "1", "--seconds", "0"],
        ["--workload", "sweep_deep"],
    ]
    for args in bad_cases:
        r = run(args)
        if r.returncode != 2:
            fail("run.py %s exited %d, want 2" % (args, r.returncode))
        r = subprocess.run([bench_binary()] + args, capture_output=True)
        if r.returncode != 2:
            fail("whisper_bench %s exited %d, want 2" % (args, r.returncode))


def result_of(workload, trace):
    r = run(["--workload", workload, "--seed", str(SEED),
             "--seconds", str(SECONDS), "--trace", str(trace)])
    if r.returncode != 0:
        fail("%s trace=%d exited %d:\n%s%s" % (workload, trace, r.returncode,
                                              r.stdout[-2000:], r.stderr[-2000:]))
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail("%s trace=%d: last stdout line is not JSON: %s" % (workload, trace, e))
    fp = [l for l in lines if l.startswith("fingerprint ")]
    if len(fp) != 1:
        fail("%s trace=%d: want one fingerprint line, got %d" % (workload, trace, len(fp)))
    return result, fp[0]


def counts(fp_line):
    """The exact counts both runs have (traced runs add decode_misses)."""
    fields = dict(re.findall(r"(\w+)=(\d+)", fp_line))
    fields.pop("decode_misses", None)
    return fields


def check_result(workload, trace, result, spec):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True:
        fail("%s trace=%d: correct is %r" % (workload, trace, result["correct"]))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("%s: %s is %r" % (workload, key, result[key]))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % workload)
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        fail("%s trace=%d: missing %s, unexpected %s" % (workload, trace, missing, extra))
    for m in want:
        v = got[m["name"]]
        if sorted(v) != ["unit", "value"] or v["unit"] != m["unit"]:
            fail("%s: metric %s is %r, want unit %s" % (workload, m["name"], v, m["unit"]))
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail("%s: metric %s value %r" % (workload, m["name"], v["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # The first run builds; its arguments are valid so the build happens.
    first, _ = result_of("sweep_deep", 0)
    check_result("sweep_deep", 0, first, spec)
    check_rejects()
    for w in spec["workloads"]:
        name = w["name"]
        a, fp_a = result_of(name, 0)
        check_result(name, 0, a, spec)
        b, fp_b = result_of(name, 0)
        check_result(name, 0, b, spec)
        if fp_a != fp_b:
            fail("%s: one seed, two fingerprints:\n  %s\n  %s" % (name, fp_a, fp_b))
        t, fp_t = result_of(name, 1)
        check_result(name, 1, t, spec)
        if counts(fp_t) != counts(fp_a):
            fail("%s: traced counts differ:\n  %s\n  %s" % (name, fp_a, fp_t))
        base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        trace_file = os.path.join(ROOT, base, "perfbench",
                                  "trace-%s-%d.json" % (name, SEED))
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            fail("%s: empty Chrome trace" % name)
        print("smoke: %s ok (%s)" % (name, fp_a))
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
