#!/usr/bin/env python3
"""qvlab benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload wound-ball --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree holding ``src/qvlab``. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs one untraced reference cycle, installs the tracer and
prints the per-layer metrics. The last line of stdout is the JSON result;
the lines before it are a readable summary and the machine context.
Exit code 2 means the benchmark could not run at all (for example, no
qvlab package under src/).
"""

import os

# pin BLAS threads before numpy loads, here and in every child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("wound-ball", "branch-checks", "cli-mix")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
# a fresh interpreter that imports qvlab, builds the fields and prints the
# seconds that took
SETUP_CHILD = ("import sys, time\nstart = time.perf_counter()\n"
               "import qvlab.cli\nfrom qvlab import fields\n"
               "for spec in sys.argv[1:]:\n    fields.parse_field_spec(spec)\n"
               "print(time.perf_counter() - start)\n")


def metric_units(kind) -> dict:
    """Metric name -> unit for one list of BENCHMARK.json ("end_to_end" or "per_layer")."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one worker unless the operation says otherwise, whatever the caller's shell sets
    env["QVLAB_WORKERS"] = "1"
    env.update(extra or {})
    return env


def import_qvlab():
    """Import qvlab from this tree's src/; return (workloads, modules)."""
    sys.path.insert(0, str(SRC))
    import qvlab
    import qvlab.cli  # noqa: F401  (the full package, as the entry point loads it)
    if Path(qvlab.__file__).resolve().parent != (SRC / "qvlab").resolve():
        raise BenchmarkError("qvlab was imported from %s, not from %s" % (qvlab.__file__, SRC))
    import workloads

    return workloads, workloads.Qv()


def machine_context() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "pinning": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                    "QVLAB_WORKERS": "1, and 2 for the sweep"},
    }


class Tally:
    """Latencies, failures and second routes of the operations of one run."""

    def __init__(self):
        self.latencies = {}  # position of the operation in its cycle -> its latencies
        self.attempted = 0
        self.failures = []
        self.routes = Counter()

    def record(self, kind, route, latency, problem, index=None):
        self.attempted += 1
        self.routes[route] += 1
        if latency is not None:
            self.latencies.setdefault(index, []).append(latency)
        if problem is not None:
            self.failures.append("%s: %s" % (kind, problem))


def closed_loop(ops, seconds, execute, tally, refs=None, min_cycles=2):
    """Run whole cycles of ops until `seconds` have passed, at least min_cycles.

    execute(i, op, cycle, check) runs one operation and returns (latency,
    output bytes, problem). Outputs are compared with refs when given (and
    not checked again), otherwise checked on their first run and compared
    with it afterwards; a difference is a failed operation. Returns the
    wall time of every cycle and the first-cycle outputs.
    """
    start = time.perf_counter()
    walls, firsts = [], {}
    while len(walls) < min_cycles or time.perf_counter() - start < seconds:
        cycle_start = time.perf_counter()
        for i, op in enumerate(ops):
            expected = (refs if refs is not None else firsts).get(i)
            latency, data, problem = execute(i, op, len(walls),
                                             check=refs is None and i not in firsts)
            if problem is None and expected is not None and expected != data:
                problem = "output bytes differ from the reference run"
            firsts.setdefault(i, data)
            tally.record(op.kind, op.route, latency, problem, i)
        walls.append(time.perf_counter() - cycle_start)
    return walls, firsts


def tail_stats(latencies, percentile):
    n = len(latencies)
    if n < 2:
        return (latencies[0] if latencies else 0.0), n, 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    beyond = sum(1 for v in latencies if v > value)
    return value, n, beyond


# ---------------------------------------------------------------------------
# in-process workloads


def _execute_inprocess(serialize, tracer=None):
    """serialize is CheckReport.to_json as qvlab defines it, so that the
    benchmark's own serialization of results stays out of the traced spans."""
    def execute(i, op, cycle, check):
        try:
            start = time.perf_counter()
            if tracer is None:
                result = op.call()
            else:
                tracer.set_op("c%d.%d" % (cycle, i))
                result = tracer.span(op.kind, "op", op.call)
            latency = time.perf_counter() - start
            data = serialize(op.report(result)).encode()
            problem = op.check(result) if check else None
        except Exception:  # a raising operation is a failed operation, not a crash
            return None, None, "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        return latency, data, problem
    return execute


def _construct(qv, specs):
    return {spec: qv.fields.parse_field_spec(spec) for spec in specs}


def _certificate_problems(built):
    out = []
    for spec, f in built.items():
        cert = f.construction_cert
        if cert and (cert.get("energy_cross_check") != "pass" or cert.get("stationarity") != "pass"):
            out.append("%s: construction certificate %r" % (spec, cert))
    return out


def run_inprocess(name, seed, seconds, trace):
    workloads, qv = import_qvlab()
    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(random.Random(seed), qv)
    if not trace:
        setup = [_setup_child(inputs["specs"])[1] for _ in range(SETUP_REPEATS)]
    built = _construct(qv, inputs["specs"])
    setup_problems = _certificate_problems(built)
    ops = workload.operations(qv, inputs, built)
    serialize = qv.report.CheckReport.to_json
    tally = Tally()
    if not trace:
        walls, firsts = closed_loop(ops, seconds, _execute_inprocess(serialize), tally,
                                    min_cycles=workload.min_cycles)
        notes = ["setup_s = median import and construction time of %d set-up children %s"
                 % (SETUP_REPEATS, ", ".join("%.4f" % t for t in setup))]
        finish(workload, seed, tally, walls, len(ops), firsts, statistics.median(setup),
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, setup_problems, notes)
        return

    from tracer import Tracer

    (untraced_wall,), refs = closed_loop(ops, 0.0, _execute_inprocess(serialize), tally,
                                         min_cycles=1)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_op("setup")
        built = _construct(qv, inputs["specs"])
        walls, traced_bytes = closed_loop(workload.operations(qv, inputs, built), seconds,
                                          _execute_inprocess(serialize, tracer), tally, refs,
                                          min_cycles=1)
    finally:
        tracer.uninstall()
    finish_traced(workload, seed, tally, tracer.records, walls, untraced_wall, refs, traced_bytes,
                  setup_problems)


# ---------------------------------------------------------------------------
# cli-mix


def _execute_cli(outdir, command, trace_dir=None):
    def execute(i, op, cycle, check):
        for name in op.artifacts:
            path = outdir / name
            if path.exists():
                path.unlink()
        argv = list(command)
        if trace_dir is not None:
            op_id = "c%d.%d" % (cycle, i)
            argv += ["--trace-out", str(trace_dir / ("%s.jsonl" % op_id)), "--op", op_id, "--"]
        argv += op.argv
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(op.env), capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None, "no exit within %d s" % CHILD_TIMEOUT_S
        latency = time.perf_counter() - start
        arts = {name: (outdir / name).read_bytes() for name in op.artifacts
                if (outdir / name).exists()}
        data = proc.stdout + b"".join(b"\0" + name.encode() + b"\0" + arts.get(name, b"")
                                      for name in op.artifacts)
        if proc.returncode not in (0, 1):
            return latency, data, "exit %d: %s" % (proc.returncode,
                                                   proc.stderr.decode(errors="replace").strip()[-300:])
        try:
            problem = op.check(proc.returncode, proc.stdout, arts) if check else None
        except (ValueError, KeyError, TypeError) as exc:
            problem = "unreadable output: %r" % (exc,)
        return latency, data, problem
    return execute


def _setup_child(specs, trace_file=None):
    """Run one set-up child; return (its wall time, the time it printed)."""
    if trace_file is None:
        argv = [sys.executable, "-c", SETUP_CHILD] + list(specs)
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), "--trace-out", str(trace_file),
                "--op", "setup", "--setup", "--"] + list(specs)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError("set-up child failed: %s" % proc.stderr.decode(errors="replace")[-500:])
    return wall, float(proc.stdout or 0.0)


def run_cli(name, seed, seconds, trace):
    workloads, qv = import_qvlab()
    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(random.Random(seed), qv)
    outdir = OUT / workload.name
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    ops = workload.operations(qv, inputs, str(outdir))
    entry = [sys.executable, "-m", "qvlab.cli"]
    tally = Tally()
    if not trace:
        setup = [_setup_child(inputs["specs"])[0] for _ in range(SETUP_REPEATS)]
        execute = _execute_cli(outdir, entry)
        walls, firsts = closed_loop(ops, seconds, execute, tally, min_cycles=workload.min_cycles)
        # determinism as an operation: the same sweep with one worker
        reference = workload.sweep_op(str(outdir), 1, "sweep-w1")
        latency, _, problem = execute(len(ops), reference, 0, check=True)
        if problem is None:
            for ext in (".csv", ".json"):
                if (outdir / ("sweep" + ext)).read_bytes() != (outdir / ("sweep-w1" + ext)).read_bytes():
                    problem = "sweep%s differs between 2 workers and 1 worker" % ext
        tally.record("sweep-1-worker", "rerun", None, problem)
        notes = ["setup_s = median of %d set-up children %s"
                 % (SETUP_REPEATS, ", ".join("%.4f" % t for t in setup)),
                 "1-worker reference sweep took %.3f s" % (latency or 0.0)]
        finish(workload, seed, tally, walls, len(ops), firsts, statistics.median(setup),
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, [], notes)
        return

    from tracer import load_records

    trace_dir = outdir / "spans"
    trace_dir.mkdir()
    _setup_child(inputs["specs"], trace_dir / "setup.jsonl")
    (untraced_wall,), refs = closed_loop(ops, 0.0, _execute_cli(outdir, entry), tally,
                                         min_cycles=1)
    walls, traced_bytes = closed_loop(
        ops, seconds, _execute_cli(outdir, [sys.executable, str(HERE / "cli_child.py")], trace_dir),
        tally, refs, min_cycles=1)
    records = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        records.extend(load_records(str(path)))
    finish_traced(workload, seed, tally, records, walls, untraced_wall, refs, traced_bytes, [])


# ---------------------------------------------------------------------------
# results


def digest(outputs) -> str:
    """sha256 over an operation list's output bytes, in cycle order."""
    h = hashlib.sha256()
    for i in sorted(outputs):
        h.update(outputs[i] or b"")
    return h.hexdigest()


def _emit(workload, seed, trace, tally, lines, metrics, units, setup_problems):
    failed = len(tally.failures) + len(setup_problems)
    for problem in setup_problems + tally.failures[:20]:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    print("perfbench %s seed=%d trace=%d" % (workload.name, seed, trace))
    for line in lines:
        print("  " + line)
    print("  routes: " + ", ".join("%s %d" % kv for kv in sorted(tally.routes.items())))
    print(json.dumps({"context": machine_context()}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted + len(setup_problems),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))


def finish(workload, seed, tally, walls, ops_per_cycle, outputs, setup_s, peak_kb,
           setup_problems, notes):
    """Print the end-to-end metrics of an untraced run."""
    lat = [v for per_op in tally.latencies.values() for v in per_op]
    tail, n, beyond = tail_stats(lat, workload.tail_percentile)
    # a typical cycle: each operation at its median latency of the run. Summing
    # per-operation medians over many samples each reads steadier on a shared
    # host than the median of far fewer whole-cycle times, or than minima
    typical_cycle = sum(statistics.median(tally.latencies[i]) for i in range(ops_per_cycle)
                        if i in tally.latencies)
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": ops_per_cycle / typical_cycle if typical_cycle else 0.0,
        "verdict_latency_s.p50": statistics.median(lat) if lat else 0.0,
        "verdict_latency_s.tail": tail,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    units = metric_units("end_to_end")
    lines = ["%d operations in %d cycles over %.3f s, %d failed"
             % (tally.attempted, len(walls), sum(walls), len(tally.failures)),
             "typical cycle %.4f s (sum of per-operation medians), median cycle wall %.4f s"
             % (typical_cycle, statistics.median(walls))]
    for name, unit in units.items():
        lines.append("%-24s %.6g %s" % (name, metrics[name], unit))
    lines.append("tail is p%d of %d samples, %d beyond it%s"
                 % (workload.tail_percentile, n, beyond, "" if beyond >= 10 else " (fewer than 10)"))
    lines.append("failed_frac              %.6g (%d/%d)"
                 % (len(tally.failures) / max(tally.attempted, 1), len(tally.failures),
                    tally.attempted))
    lines.extend(notes)
    lines.append("reports sha256 %s" % digest(outputs))
    _emit(workload, seed, 0, tally, lines, metrics, units, setup_problems)


def finish_traced(workload, seed, tally, records, walls, untraced_wall, untraced_outputs,
                  traced_outputs, setup_problems):
    """Print the per-layer metrics of a traced run and write its spans."""
    from tracer import layer_metrics, write_records

    units = metric_units("per_layer")
    metrics = layer_metrics(records, len(walls))
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced_wall
    trace_path = OUT / ("trace-%s-seed%d.jsonl" % (workload.name, seed))
    write_records(str(trace_path), records)
    lines = ["untraced reference cycle %.3f s; %d traced cycles over %.3f s; %d spans in %s"
             % (untraced_wall, len(walls), sum(walls), len(records), trace_path.relative_to(ROOT))]
    for name, unit in units.items():
        lines.append("%-34s %.6g %s" % (name, metrics[name], unit))
    lines.append("reports sha256 %s %s" % (digest(untraced_outputs), digest(traced_outputs)))
    _emit(workload, seed, 1, tally, lines, metrics, units, setup_problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "qvlab" / "__init__.py").is_file():
            raise BenchmarkError("no qvlab package under %s" % SRC)
        if args.workload not in WORKLOAD_NAMES:
            raise BenchmarkError("unknown workload %r; choose from %s"
                                 % (args.workload, ", ".join(WORKLOAD_NAMES)))
        OUT.mkdir(exist_ok=True)
        runner = run_cli if args.workload == "cli-mix" else run_inprocess
        runner(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
