#!/usr/bin/env python3
"""Short self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workloads wound-ball,cli-mix]

For each workload it runs the benchmark once untraced and twice traced,
each measuring for SECONDS, then asserts that:
  * every metric BENCHMARK.json names is printed, with its unit;
  * every operation passed its correctness gate;
  * the deterministic counts repeat exactly between the two traced runs;
  * the report bytes of the untraced run and of both traced runs (before
    and under the tracer) are identical, so the tracer does not change
    what qvlab computes.
Exit code 0 when every assertion holds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("fields.calls", "fields.points", "variational.integrals",
                 "variational.panels_per_integral", "weiss2d.certify_calls")
SECONDS = 1


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (workload, trace, proc.returncode,
                                                             proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[2:] for line in lines if line.strip().startswith("reports sha256")]
    return json.loads(lines[-1]), digests[0]


def check_metrics(result, expected, label):
    got = result["metrics"]
    for metric in expected:
        name = metric["name"]
        assert name in got, "%s: metric %s missing" % (label, name)
        assert got[name]["unit"] == metric["unit"], "%s: %s unit %r, expected %r" % (
            label, name, got[name]["unit"], metric["unit"])
    assert result["correct"] and result["failed"] == 0, "%s: %d failed operations" % (
        label, result["failed"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        plain, plain_digest = run(bench, workload, 0)
        check_metrics(plain, bench["end_to_end"], workload + " untraced")
        traced = [run(bench, workload, 1) for _ in range(2)]
        for k, (result, _) in enumerate(traced):
            check_metrics(result, bench["per_layer"], "%s traced run %d" % (workload, k + 1))
        for name in DETERMINISTIC:
            a, b = (result["metrics"][name]["value"] for result, _ in traced)
            assert a == b, "%s: %s differs between traced runs: %r vs %r" % (workload, name, a, b)
        for _, digests in traced:
            assert digests == plain_digest * 2, (
                "%s: report bytes differ with the tracer: %r vs %r" % (workload, digests,
                                                                       plain_digest))
        print("%s: ok (%s)" % (workload, ", ".join(
            "%s=%s" % (n, traced[0][0]["metrics"][n]["value"]) for n in DETERMINISTIC)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
