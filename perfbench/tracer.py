"""Outside-only tracer for the qvlab benchmark.

The tracer never edits qvlab. It rebinds the public functions named in
TARGETS, in every loaded ``qvlab`` module that holds them, to wrappers that
record one span per call: name, layer, start, end, parent span and the
operation id the benchmark set. Spans stay in memory until ``write_records`` writes
them as JSONL.

Field evaluation is counted through a proxy: the wrappers of
``integrate_region``, ``sphere_integral`` and ``analyze_trace`` pass the
callee a ``dataclasses.replace`` copy of the field whose ``*_fn`` callables
are wrapped, so every field call, its point count and its time are exact.
The ``integrate_region`` wrapper also wraps the density, which runs once
per radial panel, so panels per integral are an exact count too.

``layer_metrics`` turns recorded spans into the per-layer metrics listed in
BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, layer, group, is_check)
TARGETS = (
    ("qvlab.fields", "parse_field_spec", "fields", "parse", False),
    ("qvlab.variational", "integrate_region", "variational", "integral", False),
    ("qvlab.variational", "sphere_integral", "variational", "integral", False),
    ("qvlab.variational", "stationarity_battery", "variational", "check", True),
    ("qvlab.variational", "caccioppoli_check", "variational", "check", True),
    ("qvlab.carleman", "carleman_sides", "carleman", "check", True),
    ("qvlab.carleman", "first_carleman_sides", "carleman", "check", True),
    ("qvlab.carleman", "pre_carleman_sides", "carleman", "check", True),
    ("qvlab.carleman", "modified_carleman_sides", "carleman", "check", True),
    ("qvlab.carleman", "three_sphere_check", "carleman", "check", True),
    ("qvlab.carleman", "doubling_check", "carleman", "check", True),
    ("qvlab.carleman", "carleman_tau_sweep", "carleman", "check", True),
    ("qvlab.frequency", "frequency_identity_check", "frequency", "check", True),
    ("qvlab.frequency", "variant_agreement", "frequency", "check", True),
    ("qvlab.frequency", "frequency_profile", "frequency", "check", True),
    ("qvlab.frequency", "vanishing_order", "frequency", "check", True),
    ("qvlab.frequency", "deficit_profile", "frequency", "check", True),
    ("qvlab.frequency", "homogeneity_deficit", "frequency", "check", True),
    ("qvlab.frequency", "semicontinuity_probe", "frequency", "check", True),
    ("qvlab.weiss2d", "solve_disk", "weiss2d", "certify", False),
    ("qvlab.weiss2d", "analyze_trace", "weiss2d", "trace", False),
    ("qvlab.weiss2d", "epiperimetric_check", "weiss2d", "trace", True),
    ("qvlab.weiss2d", "weiss_profile", "weiss2d", "profile", True),
    ("qvlab.weiss2d", "weiss_energy", "weiss2d", "profile", True),
    ("qvlab.weiss2d", "weiss_derivative_check", "weiss2d", "profile", True),
    ("qvlab.qcore", "batch_match_permutations", "qcore", "match", False),
    ("qvlab.report", "atomic_write_text", "report", "write", False),
)

FAMILIES = ("branch", "wound", "harmonic", "superpose")


def field_family(tag: str) -> str:
    for family in FAMILIES:
        if tag.startswith(family + ":") or tag.startswith(family + "("):
            return family
    return "other"


class _Frame:
    __slots__ = ("id", "name", "layer", "group", "check", "start", "parent", "op",
                 "outer_layer", "outer_group", "outer_check", "child_s", "field_calls",
                 "points", "integrals", "attrs")

    def __init__(self, sid, name, layer, group, check, parent, op, stack):
        self.id = sid
        self.name = name
        self.layer = layer
        self.group = group
        self.check = check
        self.parent = parent.id if parent is not None else None
        self.op = op
        self.outer_layer = not any(f.layer == layer for f in stack)
        self.outer_group = not any(f.layer == layer and f.group == group for f in stack)
        # checks run by a field's construction certificate are set-up work
        self.outer_check = check and not any(
            f.check or f.group in ("parse", "certify") for f in stack)
        self.child_s = 0.0
        self.field_calls = 0
        self.points = 0
        self.integrals = 0
        self.attrs = {}
        self.start = time.perf_counter()


class Tracer:
    """Records spans around qvlab's public functions; see the module docstring."""

    def __init__(self):
        self.records: list = []
        self.op = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._seen: dict = {}
        self._rebound: list = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer, group, check=False) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(next(self._ids), name, layer, group, check, parent, self.op, stack)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            parent = stack[-1]
            parent.child_s += duration
            parent.field_calls += frame.field_calls
            parent.points += frame.points
            parent.integrals += frame.integrals
        record = {
            "id": frame.id, "name": frame.name, "layer": frame.layer, "group": frame.group,
            "start": frame.start, "end": end, "parent": frame.parent, "op": frame.op,
            "outer_layer": frame.outer_layer, "outer_group": frame.outer_group,
            "outer_check": frame.outer_check, "self_s": duration - frame.child_s,
            "field_calls": frame.field_calls,
            "points": frame.points, "integrals": frame.integrals,
        }
        record.update(frame.attrs)
        self.records.append(record)
        return duration

    def span(self, name, layer, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs) inside one span of the given layer."""
        frame = self._open(name, layer, layer)
        if attrs:
            frame.attrs.update(attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def set_op(self, op) -> None:
        self.op = op
        self._seen = {}

    # -- field proxy ------------------------------------------------------

    def _field_fn(self, fn, tag, family, kind):
        tracer = self

        def call(X):
            n = int(X.shape[0])
            key = (tag, X.shape, _fingerprint(X))
            repeat = n if key in tracer._seen else 0
            tracer._seen[key] = True
            frame = tracer._open("field." + kind, "fields", "eval")
            frame.attrs.update(family=family, repeat_points=repeat)
            frame.field_calls = 1
            frame.points = n
            try:
                return fn(X)
            finally:
                tracer._close(frame)

        return call

    def proxy(self, f):
        """Copy of field f whose evaluation callables are counted."""
        tag = getattr(f, "tag", "")
        family = field_family(tag)
        changes = {}
        for fld in dataclasses.fields(f):
            value = getattr(f, fld.name)
            if fld.name.endswith("_fn") and callable(value):
                changes[fld.name] = self._field_fn(value, tag, family, fld.name[:-3])
        return dataclasses.replace(f, **changes)

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, fn, name, layer, group, check):
        tracer = self
        if name == "integrate_region":
            prepare = tracer._prepare_integral
        elif name in ("sphere_integral", "analyze_trace"):
            prepare = tracer._prepare_field_arg
        elif name == "solve_disk":
            signature = inspect.signature(fn)

            def prepare(frame, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                frame.attrs["certify"] = bool(bound.arguments.get("certify", False))
                return args, kwargs
        else:
            prepare = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name, layer, group, check)
            try:
                if prepare is not None:
                    args, kwargs = prepare(frame, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                if group == "integral":
                    frame.integrals += 1
                tracer._close(frame)

        return wrapper

    def _prepare_field_arg(self, frame, args, kwargs):
        if _is_field(args[0]):
            args = (self.proxy(args[0]),) + tuple(args[1:])
        if frame.name == "sphere_integral":
            frame.attrs["panels"] = 1
        return args, kwargs

    def _prepare_integral(self, frame, args, kwargs):
        args = list(args)
        f, region = args[0], args[1]
        density = args[3] if len(args) > 3 else kwargs["density"]
        quad = args[2] if len(args) > 2 else kwargs["quad"]
        ratio = float(getattr(quad, "refinement_ratio", 0.5))
        frame.attrs.update(kind=getattr(region, "kind", "?"), panels=0, cap_hit=False)

        def counted_density(X, r, vals, grads):
            frame.attrs["panels"] += 1
            # only the capped terminal panel reaches below ratio * its top
            # radius: every geometric panel [a, b] has a >= ratio * b
            if r.size and float(r.min()) < ratio * float(r.max()):
                frame.attrs["cap_hit"] = True
            return density(X, r, vals, grads)

        args[0] = self.proxy(f)
        if len(args) > 3:
            args[3] = counted_density
        else:
            kwargs = dict(kwargs, density=counted_density)
        return tuple(args), kwargs

    def install(self) -> None:
        """Rebind every target in every loaded qvlab module that holds it."""
        for modname, attr, layer, group, check in TARGETS:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(original, attr, layer, group, check)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "qvlab" or name.startswith("qvlab.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebound.append((loaded, key, original))
                        setattr(loaded, key, wrapper)
        report = importlib.import_module("qvlab.report")
        original = report.CheckReport.to_json
        tracer = self

        @functools.wraps(original)
        def to_json(report_self):
            frame = tracer._open("to_json", "report", "serialize")
            try:
                text = original(report_self)
                frame.attrs["bytes"] = len(text.encode())
                return text
            finally:
                tracer._close(frame)

        self._rebound.append((report.CheckReport, "to_json", original))
        report.CheckReport.to_json = to_json

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        self._rebound = []


def _is_field(obj) -> bool:
    return dataclasses.is_dataclass(obj) and hasattr(obj, "tag") and hasattr(obj, "q")


def _fingerprint(X) -> bytes:
    """Cheap identity of a node array: 64 strided rows plus the full sum.

    Node arrays come from deterministic grids, so two arrays that agree on
    these are the same array for every input the benchmark generates.
    """
    step = max(1, X.shape[0] // 64)
    return X[::step].tobytes() + repr(float(X.sum())).encode()


def write_records(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_records(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# aggregation


def _num(x):
    """Whole numbers print as integers; everything else keeps all its digits."""
    if isinstance(x, float) and x.is_integer() and abs(x) < 2 ** 53:
        return int(x)
    return x


def layer_metrics(records, cycles: int) -> dict:
    """Per-layer metrics for one pass: the traced set-up plus one cycle.

    Spans of operation "setup" count once; spans of cycle operations are
    divided by the number of traced cycles, which makes every count exact
    when the cycles repeat the same operations.
    """
    setup_acc: dict = defaultdict(float)
    cycle_acc: dict = defaultdict(float)
    # thread-seconds of the operations: every span without a parent, which is
    # the operation span itself or the top span of a worker thread it started
    op_time = 0.0
    op_field = 0.0
    efficiency = []
    by_op_checks: dict = {}
    for rec in records:
        acc = setup_acc if rec["op"] == "setup" else cycle_acc
        dur = rec["end"] - rec["start"]
        layer, group, name = rec["layer"], rec["group"], rec["name"]
        if rec.get("outer_check"):
            by_op_checks[rec["op"]] = by_op_checks.get(rec["op"], 0.0) + dur
        if rec["op"] != "setup":
            if rec["parent"] is None:
                op_time += dur
            if layer == "fields" and group == "eval":
                op_field += dur
        if layer == "op":
            if rec.get("workers", 1) > 1:
                efficiency.append((rec["op"], rec["workers"], dur))
            continue
        if layer == "fields" and group == "eval":
            fam = rec.get("family", "other")
            acc["calls"] += 1
            acc["points"] += rec["points"]
            acc["busy"] += dur
            acc["repeat"] += rec.get("repeat_points", 0)
            acc["points." + fam] += rec["points"]
            acc["busy." + fam] += dur
            continue
        if layer == "fields" and group == "parse" and rec["outer_group"]:
            acc["parse_s"] += dur
        if group == "integral":
            acc["integrals"] += 1
            acc["panels"] += rec.get("panels", 0)
            if rec.get("kind") == "ball":
                acc["balls"] += 1
                if rec.get("cap_hit"):
                    acc["caps"] += 1
        if layer == "variational":
            acc["var.self"] += rec["self_s"]
            if rec["outer_layer"]:
                acc["var.busy"] += dur
        if layer in ("carleman", "frequency") and rec["outer_layer"]:
            acc[layer + ".reports"] += 1
            acc[layer + ".busy"] += dur
            acc[layer + ".integrals"] += rec["integrals"]
            acc[layer + ".points"] += rec["points"]
        if name == "solve_disk" and rec.get("certify"):
            acc["certify_calls"] += 1
            acc["certify_s"] += dur
        if layer == "weiss2d" and group == "trace" and rec["outer_group"]:
            acc["trace_s"] += dur
        if layer == "qcore" and rec["outer_layer"]:
            acc["match_calls"] += 1
            acc["match_s"] += dur
        if layer == "report":
            if group == "serialize":
                acc["serialize_s"] += dur
                acc["bytes"] += rec.get("bytes", 0)
            elif group == "write" and rec["outer_group"]:
                acc["write_s"] += dur

    def get(key):
        # exact for counts: cycle sums are whole multiples of the cycle count
        return setup_acc.get(key, 0.0) + cycle_acc.get(key, 0.0) / cycles

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "fields.calls": get("calls"),
        "fields.points": get("points"),
        "fields.busy_s": get("busy"),
        "fields.busy_frac": ratio(op_field, op_time),
        "fields.parse_s": get("parse_s"),
        "fields.points_per_s": ratio(get("points"), get("busy")),
        "fields.repeat_points_frac": ratio(get("repeat"), get("points")),
    }
    for fam in FAMILIES:
        out["fields.points_per_s." + fam] = ratio(get("points." + fam), get("busy." + fam))
    out.update({
        "variational.integrals": get("integrals"),
        "variational.busy_s": get("var.busy"),
        "variational.self_s": get("var.self"),
        "variational.panels_per_integral": ratio(get("panels"), get("integrals")),
        "variational.cap_hit_frac": ratio(get("caps"), get("balls")),
    })
    for layer in ("carleman", "frequency"):
        reports = get(layer + ".reports")
        out[layer + ".reports"] = reports
        out[layer + ".busy_s"] = get(layer + ".busy")
        out[layer + ".integrals_per_report"] = ratio(get(layer + ".integrals"), reports)
        out[layer + ".points_per_report"] = ratio(get(layer + ".points"), reports)
    out.update({
        "weiss2d.certify_calls": get("certify_calls"),
        "weiss2d.certify_s": get("certify_s"),
        "weiss2d.trace_s": get("trace_s"),
        "qcore.match_calls": get("match_calls"),
        "qcore.busy_s": get("match_s"),
        "report.serialize_s": get("serialize_s"),
        "report.bytes": get("bytes"),
        "report.write_s": get("write_s"),
    })
    effs = [by_op_checks.get(op, 0.0) / (workers * wall)
            for op, workers, wall in efficiency if wall > 0]
    out["cli.parallel_efficiency"] = sum(effs) / len(effs) if effs else 0.0
    return {key: _num(value) for key, value in out.items()}
