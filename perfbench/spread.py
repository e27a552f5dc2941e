#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads; report each metric's spread.

    python3 perfbench/spread.py [--workloads wound-ball,cli-mix] [--seeds 1-10]
        [--json out.json]

Every run is untraced and measures for BENCHMARK.json's run_seconds. With
no --workloads it runs every workload of BENCHMARK.json, so
``--seeds 1`` prints every end-to-end metric of every workload in one
command. For each metric it prints the median and, with two or more seeds,
the quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median next to the bound BENCHMARK.json gives it. --json writes
the same numbers, with the machine context of the runs, for a baseline file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_seeds(bench, workload, seeds):
    """Per-metric values over the seeds, the machine context and the failures."""
    values, context, failed = {}, None, 0
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode,
                                                             proc.stderr[-2000:]))
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])["context"]
        failed += result["failed"]
        print("%s seed %d: correct=%s attempted=%d failed=%d  %s" % (
            workload, seed, result["correct"], result["attempted"], result["failed"],
            "  ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))))
        sys.stdout.flush()
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, context, failed


def summarize(values, bounds):
    summary = {}
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        entry = {"median": med, "runs": len(vals)}
        text = "  %-34s median %-12.6g" % (name, med)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("nan"))
            text += " Q1 %-12.6g Q3 %-12.6g spread %.4f" % (q1, q3, entry["spread"])
            if bounds.get(name) is not None:
                text += "  (bound %g, third %.4f)" % (bounds[name], bounds[name] / 3.0)
        print(text)
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {"seeds": args.seeds, "seconds": bench["run_seconds"], "workloads": {}}
    failed = 0
    for workload in names:
        values, out["context"], workload_failed = run_seeds(
            bench, workload, parse_seeds(args.seeds))
        failed += workload_failed
        print("%s: %d failed operations" % (workload, workload_failed))
        out["workloads"][workload] = summarize(values, bounds)
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
