"""Command-line front end: field specs and config in, reports and CSV out.

Every subcommand parses a field spec (see fields.parse_field_spec), runs one
of the library checks, prints the resulting report as canonical JSON, and
optionally persists it. All artifact writes go through a same-directory
temp file plus rename, so a crash never leaves a half-written report.

Exit codes: 0 when no produced verdict is "fail" (diagnostic verdicts count
as non-failures), 1 when any verdict fails or an artifact cannot be written,
2 on malformed arguments, field specs, or configuration.

Configuration precedence is flag > config file > built-in default; the
effective configuration is echoed, with its hash, into the provenance block
of every report, so identical invocations produce byte-identical output.
The QVLAB_WORKERS environment variable (positive integer) sets the thread
count for sweep execution; results are assembled in grid order, so the
output does not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import __version__
from . import carleman
from . import fields
from . import frequency
from . import variational
from . import weiss2d
from .qcore import QPoint, metric_g
from .report import CheckReport, atomic_write_text, config_hash
from .variational import CutoffConstructionError, QuadratureSpec, RadialBump, ball


class UsageError(ValueError):
    """Malformed flags, field specs, or configuration; maps to exit 2."""


class PlotDataError(ValueError):
    """emit_plot_data was handed no rows or an incomplete row."""


class ArtifactError(OSError):
    """An artifact could not be written; carries the offending path."""

    def __init__(self, path, cause):
        super().__init__("could not write %s: %s" % (path, cause))
        self.path = path


DEFAULT_CONFIG = {
    "quad_radial": 20,
    "quad_angular": 256,
    "quad_polar": 32,
    "n_nodes": 512,
    "seed": 0,
}

SWEEP_COLUMNS = (
    "case", "field", "tau", "eps", "delta", "kappa", "cutoff_kind",
    "a_in", "a_lo", "a_hi", "a_out", "lhs", "rhs", "ratio",
    "resolution", "verdict",
)

_UNITS = {
    "frequency-sharp": "dimensionless",
    "frequency-linear": "dimensionless",
    "weiss": "normalized energy",
    "deficit": "dimensionless",
}


def example_library():
    """The reference field library: deterministic (name, spec) pairs.

    Covers the trivial fields, separated harmonic sheets up to three
    values, the classical branch points k/Q in {1/2, 3/2, 2/3, 5/3}, and
    ten seeded wound boundary fields.
    """
    entries = [
        ("trivial-q1", "trivial:1"),
        ("trivial-q3", "trivial:3"),
        ("linear", "harmonic:n2m1:x1"),
        ("harmonic-pair", "harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2"),
        ("harmonic-triple", "harmonic:n2m1:x1|x1^2-x2^2|x1^3-3*x1*x2^2"),
        ("branch-half", "branch:1/2"),
        ("branch-three-halves", "branch:3/2"),
        ("branch-two-thirds", "branch:2/3"),
        ("branch-five-thirds", "branch:5/3"),
    ]
    for seed in range(10):
        q = 2 if seed % 2 == 0 else 3
        entries.append(("wound-s%d" % seed, "wound:%d,%d,4,1.8" % (seed, q)))
    return entries


def _workers() -> int:
    raw = os.environ.get("QVLAB_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError("QVLAB_WORKERS must be a positive integer, got %r" % raw)
    return value


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise UsageError("config %s must hold a JSON object" % path)
    for key, value in raw.items():
        if key not in DEFAULT_CONFIG:
            raise UsageError("unknown config key %r in %s" % (key, path))
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError("config key %r must be an integer, got %r" % (key, value))
        if key != "seed" and value < 1:
            raise UsageError("config key %r must be positive, got %r" % (key, value))
    return dict(raw)


def _effective_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in DEFAULT_CONFIG:
        flag = getattr(args, key, None)
        if flag is not None:
            if key != "seed" and flag < 1:
                raise UsageError("--%s must be positive, got %d" % (key.replace("_", "-"), flag))
            cfg[key] = flag
    return cfg


def _quad_of(cfg: dict) -> QuadratureSpec:
    return QuadratureSpec(radial_order=cfg["quad_radial"],
                          angular_nodes=cfg["quad_angular"],
                          polar_nodes=cfg["quad_polar"])


def _fmt(x) -> str:
    return repr(float(x))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _render_resolution(resolutions: dict) -> str:
    return ",".join("%s=%s" % (k, resolutions[k]) for k in sorted(resolutions))


def _write_artifact(path: str, text: str) -> None:
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise ArtifactError(path, exc)


def emit_plot_data(data, path: str, resolution: str | None = None) -> None:
    """Write a radial profile or a sweep table as a headed CSV.

    The first line names the quantity, its units, and the resolution it was
    computed at; the second line is the column header. Column order is
    fixed. Raises PlotDataError on empty input or a row missing a column.
    """
    if isinstance(data, frequency.RadialProfile):
        rows = data.rows()
        if not rows:
            raise PlotDataError("no rows to plot for %s" % path)
        res = resolution if resolution is not None else _render_resolution(data.resolutions)
        units = _UNITS.get(data.quantity, "dimensionless")
        lines = ["# quantity: %s; units: %s; resolution: %s" % (data.quantity, units, res),
                 "r,%s" % data.quantity]
        lines.extend("%s,%s" % (_fmt(r), _fmt(v)) for r, v in rows)
    else:
        rows = list(data)
        if not rows:
            raise PlotDataError("no sweep rows to write for %s" % path)
        res = resolution if resolution is not None else "per-row"
        lines = ["# quantity: carleman-sweep; units: dimensionless; resolution: %s" % res,
                 ",".join(SWEEP_COLUMNS)]
        for row in rows:
            cells = []
            for col in SWEEP_COLUMNS:
                if col not in row:
                    raise PlotDataError("sweep row missing column %r" % col)
                cells.append(_cell(row[col]))
            lines.append(",".join(cells))
    _write_artifact(path, "\n".join(lines) + "\n")


@dataclass
class _Context:
    """Carries the effective config through one invocation and collects verdicts."""

    cfg: dict
    quad: QuadratureSpec
    reports: list = dc_field(default_factory=list)

    def provenance(self) -> dict:
        return {
            "seed": self.cfg["seed"],
            "version": __version__,
            "config": dict(self.cfg),
            "config_hash": config_hash(self.cfg),
        }

    def emit(self, report: CheckReport, path: str | None = None) -> CheckReport:
        stamped = replace(report, provenance={**report.provenance, **self.provenance()})
        self.reports.append(stamped)
        text = stamped.to_json()
        sys.stdout.write(text)
        if path:
            _write_artifact(path, text)
        return stamped

    def exit_code(self) -> int:
        return 1 if any(r.verdict == "fail" for r in self.reports) else 0


def _parse_floats(text: str, count: int | None, what: str):
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError("%s must be comma-separated numbers, got %r" % (what, text))
    if count is not None and len(values) != count:
        raise UsageError("%s needs %d comma-separated numbers, got %r" % (what, count, text))
    return values


def _require_count(value: int, flag: str) -> None:
    if value < 1:
        raise UsageError("%s must be at least 1, got %d" % (flag, value))


def _parse_point(text: str | None, n: int):
    if text is None or text == "origin":
        return np.zeros(n)
    values = _parse_floats(text, None, "--x")
    if len(values) != n:
        raise UsageError("--x needs %d coordinates for this field, got %r" % (n, text))
    return np.asarray(values)


def _parse_cutoff(text: str, smoothed: bool):
    if not text.startswith("annulus:"):
        raise UsageError("--chi must look like annulus:a,b,c,d, got %r" % text)
    radii = _parse_floats(text[len("annulus:"):], 4, "--chi")
    build = carleman.smoothed_cutoff if smoothed else carleman.linear_cutoff
    try:
        return build(*radii)
    except CutoffConstructionError as exc:
        raise UsageError("--chi %r: %s" % (text, exc))


def _parse_bump(text: str) -> RadialBump:
    radii = _parse_floats(text, 4, "--bump")
    try:
        return RadialBump(*radii)
    except CutoffConstructionError as exc:
        raise UsageError("--bump %r: %s" % (text, exc))


def _resolve_kappa(value: str, f, ctx: _Context, x=None):
    """A literal finite number, or `auto` for the fitted vanishing order at x."""
    if value != "auto":
        try:
            kappa = float(value)
        except ValueError:
            kappa = math.nan
        if not math.isfinite(kappa):
            raise UsageError("--kappa must be a finite number or auto, got %r" % value)
        return kappa, {"kappa_source": "flag"}
    if x is None:
        x = np.zeros(f.n)
    est = frequency.vanishing_order(f, x, quad=ctx.quad)
    if est.infinite_order or not math.isfinite(est.kappa) or est.kappa <= 0.0:
        raise UsageError("--kappa auto found no positive finite vanishing order "
                         "(infinite_order=%s)" % est.infinite_order)
    return est.kappa, {"kappa_source": "vanishing-order fit", "kappa_residual": est.residual}


def _load_pieces(path: str):
    try:
        return weiss2d.load_boundary_data(path)
    except OSError as exc:
        raise UsageError("cannot read boundary data %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_examples(args, ctx: _Context) -> None:
    for name, spec in example_library():
        sys.stdout.write("%s\t%s\n" % (name, spec))


def _cmd_check_stationarity(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    bump = _parse_bump(args.bump) if args.bump else None
    report = variational.stationarity_battery(f, ctx.quad, bump=bump,
                                              refine=not args.no_refine)
    ctx.emit(report, args.out)


def _cmd_check_carleman(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    cutoff = _parse_cutoff(args.chi, args.smoothed)
    if args.eta_tuned:
        report = carleman.first_carleman_sides(f, args.tau, cutoff, ctx.quad)
    else:
        eps = args.eps if args.eps is not None else carleman.eps_recipe(cutoff.a_lo, cutoff.a_hi)
        w = carleman.WeightSpec(tau=args.tau, eps=eps, exponent_variant=args.variant)
        report = carleman.carleman_sides(f, w, cutoff, ctx.quad)
    ctx.emit(report, args.out)


def _cmd_check_three_sphere(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    r1, r2, r3 = _parse_floats(args.radii, 3, "--radii")
    report = carleman.three_sphere_check(f, x, r1, r2, r3, args.tau, ctx.quad)
    ctx.emit(report, args.out)


def _cmd_check_doubling(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    kappa, _ = _resolve_kappa(args.kappa, f, ctx, x)
    report = carleman.doubling_check(f, x, args.r, kappa, ctx.quad,
                                     eta_abs=args.eta_abs, levels=args.levels)
    ctx.emit(report, args.out)


def _cmd_check_caccioppoli(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    report = variational.caccioppoli_check(f, _parse_bump(args.bump), ctx.quad, args.c_max)
    ctx.emit(report, args.out)


def _cmd_frequency(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    if args.identity:
        r_lo, r_hi = _parse_floats(args.identity, 2, "--identity")
        report = frequency.frequency_identity_check(f, x, r_lo, r_hi, ctx.quad)
        ctx.emit(report, args.out)
        return
    if args.r is not None:
        report = frequency.variant_agreement(f, x, args.r, ctx.quad)
        ctx.emit(report, args.out)
        return
    if args.radii:
        radii = sorted(_parse_floats(args.radii, None, "--radii"), reverse=True)
    else:
        _require_count(args.n_radii, "--n-radii")
        radii = [args.r_max * 0.5 ** j for j in range(args.n_radii)]
    profile = frequency.frequency_profile(f, x, radii, ctx.quad, variant=args.variant)
    if args.plot_data:
        emit_plot_data(profile, args.plot_data)
    report = CheckReport(
        name="frequency-profile",
        field_spec=f.tag,
        params={"x": tuple(float(v) for v in x), "radii": tuple(float(r) for r in radii),
                "variant": args.variant},
        quantities={"outermost": profile.values[0], "innermost": profile.values[-1],
                    "n_radii": float(len(radii))},
        resolutions=dict(profile.resolutions),
        verdict="diagnostic",
    )
    ctx.emit(report, args.out)


def _cmd_vanishing_order(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    est = frequency.vanishing_order(f, x, r_max=args.r_max, n_radii=args.n_radii,
                                    quad=ctx.quad)
    report = CheckReport(
        name="vanishing-order",
        field_spec=f.tag,
        params={"x": tuple(float(v) for v in x), "r_max": args.r_max,
                "n_radii": args.n_radii},
        quantities={"kappa": est.kappa,
                    "infinite_order": 1.0 if est.infinite_order else 0.0,
                    "drift": est.drift, "residual": est.residual},
        resolutions=ctx.quad.meta(),
        verdict="diagnostic",
        notes=("infinite order of vanishing: " + est.note,) if est.infinite_order else (),
    )
    ctx.emit(report, args.out)


def _cmd_deficit(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    _require_count(args.windows, "--windows")
    kappa, kappa_prov = _resolve_kappa(args.kappa, f, ctx, x)
    rows = frequency.deficit_profile(f, x, kappa, r_max=args.r_max,
                                     n_windows=args.windows, quad=ctx.quad)
    radii = tuple(r for r, _ in rows)
    values = tuple(v for _, v in rows)
    resolutions = ctx.quad.meta()
    if args.plot_data:
        profile = frequency.RadialProfile(quantity="deficit", center=tuple(float(v) for v in x),
                                          radii=radii, values=values, resolutions=resolutions)
        emit_plot_data(profile, args.plot_data)
    increases = [values[k + 1] - values[k] for k in range(len(values) - 1)]
    report = CheckReport(
        name="deficit-profile",
        field_spec=f.tag,
        params={"x": tuple(float(v) for v in x), "kappa": kappa,
                "r_max": args.r_max, "windows": args.windows, **kappa_prov},
        quantities={"outermost": values[0], "innermost": values[-1],
                    "max_increase": max([0.0] + increases)},
        resolutions=resolutions,
        verdict="diagnostic",
    )
    ctx.emit(report, args.out)


def _cmd_weiss(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    kappa, kappa_prov = _resolve_kappa(args.kappa, f, ctx, x)
    if args.derivative:
        try:
            report = weiss2d.weiss_derivative_check(f, x, kappa, args.r, h=args.h,
                                                    quad=ctx.quad,
                                                    exponent_dim=args.exponent_dim)
        except weiss2d.StepSizeError as exc:
            raise UsageError(str(exc))
        report = replace(report, params={**report.params, **kappa_prov})
        ctx.emit(report, args.out)
        return
    if args.radii:
        radii = sorted(_parse_floats(args.radii, None, "--radii"), reverse=True)
        profile = weiss2d.weiss_profile(f, x, kappa, radii, quad=ctx.quad,
                                        exponent_dim=args.exponent_dim)
        if args.plot_data:
            emit_plot_data(profile, args.plot_data)
        drops = [profile.values[k + 1] - profile.values[k]
                 for k in range(len(profile.values) - 1)]
        violation = max([0.0] + drops)
        report = CheckReport(
            name="weiss-monotone",
            field_spec=f.tag,
            params={"x": tuple(float(v) for v in x), "kappa": kappa,
                    "radii": tuple(float(r) for r in radii), **kappa_prov},
            quantities={"w_outermost": profile.values[0],
                        "w_innermost": profile.values[-1],
                        "max_violation": violation,
                        "tolerance": weiss2d.EPIPERIMETRIC_SLACK},
            resolutions=dict(profile.resolutions),
            verdict="pass" if violation <= weiss2d.EPIPERIMETRIC_SLACK else "fail",
        )
        ctx.emit(report, args.out)
        return
    value = weiss2d.weiss_energy(f, x, kappa, args.r, quad=ctx.quad,
                                 exponent_dim=args.exponent_dim)
    report = CheckReport(
        name="weiss-energy",
        field_spec=f.tag,
        params={"x": tuple(float(v) for v in x), "kappa": kappa, "r": args.r,
                **kappa_prov},
        quantities={"weiss": value},
        resolutions=ctx.quad.meta(),
        verdict="diagnostic",
    )
    ctx.emit(report, args.out)


def _cmd_epiperimetric(args, ctx: _Context) -> None:
    if args.boundary:
        pieces = _load_pieces(args.boundary)
        probe = weiss2d.solve_disk(pieces)
    else:
        probe = fields.parse_field_spec(args.field)
        if probe.n != 2:
            raise UsageError("epiperimetric needs a planar field, got n=%d" % probe.n)
        pieces = weiss2d.analyze_trace(probe, n_nodes=ctx.cfg["n_nodes"])
    kappa, kappa_prov = _resolve_kappa(args.kappa, probe, ctx)
    report = weiss2d.epiperimetric_check(pieces, kappa, n_nodes=ctx.cfg["n_nodes"])
    report = replace(report, params={**report.params, **kappa_prov})
    ctx.emit(report, args.out)


def _cmd_solve2d(args, ctx: _Context) -> None:
    pieces = _load_pieces(args.boundary)
    f = weiss2d.solve_disk(pieces, quad=ctx.quad)
    cert = f.construction_cert
    if args.samples:
        radii = _parse_floats(args.sample_radii, None, "--sample-radii")
        weiss2d.export_polar_grid(f, args.samples, radii, n_theta=args.n_theta)
    ok = cert["energy_cross_check"] == "pass" and cert["stationarity"] == "pass"
    report = CheckReport(
        name="solve2d",
        field_spec=f.tag,
        params={"boundary": os.path.basename(args.boundary),
                "pieces": len(pieces)},
        quantities={"energy_closed_form": cert["energy_closed_form"],
                    "energy_quadrature": cert["energy_quadrature"],
                    "energy_rel_gap": cert["energy_rel_gap"]},
        resolutions=ctx.quad.meta(),
        verdict="pass" if ok else "fail",
        notes=("energy cross-check %s; stationarity %s"
               % (cert["energy_cross_check"], cert["stationarity"]),),
    )
    ctx.emit(report, args.out)


_BLOWUP_PROBE_ANGLES = tuple(2.0 * math.pi * k / 16.0 for k in range(16))


def _blowup_probes(n: int) -> np.ndarray:
    if n == 2:
        ring = np.array([[0.5 * math.cos(t), 0.5 * math.sin(t)]
                         for t in _BLOWUP_PROBE_ANGLES])
        inner = 0.5 * ring
        return np.vstack([ring, inner])
    probes = []
    for i in range(n):
        for s in (0.5, -0.5, 0.25, -0.25):
            p = np.zeros(n)
            p[i] = s
            probes.append(p)
    probes.append(np.full(n, 0.4 / math.sqrt(n)))
    return np.array(probes)


def _cmd_blowup(args, ctx: _Context) -> None:
    f = fields.parse_field_spec(args.field)
    x = _parse_point(args.x, f.n)
    if args.levels < 2:
        raise UsageError("--levels must be at least 2 to compare successive rescalings")
    rescaled = []
    norms = []
    for k in range(args.levels):
        rho = args.rho0 * 0.5 ** k
        norm = variational.l2_mass(f, ball(x, rho), ctx.quad)
        if norm <= 0.0:
            raise UsageError("blowup needs positive mass on B_rho(x); "
                             "got %g at rho=%g" % (norm, rho))
        norms.append(norm)
        rescaled.append(fields.blowup_rescale(f, x, rho, norm))
    probes = _blowup_probes(f.n)
    distances = []
    for g, h in zip(rescaled, rescaled[1:]):
        vg = g.values(probes)
        vh = h.values(probes)
        d = max(metric_g(QPoint(vg[i]), QPoint(vh[i])) for i in range(len(probes)))
        distances.append(d)
    quantities = {"rho0": args.rho0, "levels": float(args.levels),
                  "final_distance": distances[-1]}
    for k, d in enumerate(distances):
        quantities["distance_%d" % k] = d
    if distances[0] > 0.0:
        quantities["contraction"] = distances[-1] / distances[0]
    notes = ()
    if all(b <= a + 1e-12 for a, b in zip(distances, distances[1:])):
        notes = ("successive rescalings approach a limit along this dyadic sequence",)
    report = CheckReport(
        name="blowup",
        field_spec=f.tag,
        params={"x": tuple(float(v) for v in x), "rho0": args.rho0,
                "levels": args.levels, "n_probes": len(probes)},
        quantities=quantities,
        resolutions=ctx.quad.meta(),
        verdict="diagnostic",
        notes=notes,
    )
    ctx.emit(report, args.out)


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepConfig:
    """Grids and output paths for an aggregate sweep run.

    Every grid that is present must be non-empty and every tolerance
    positive. The tau x cutoff (x eps) product drives weighted-estimate
    rows; an optional delta grid adds bent-weight rows and an optional
    kappa grid adds boundary-gap rows.
    """

    fields: tuple
    taus: tuple
    cutoffs: tuple
    eps: tuple | None = None
    deltas: tuple = ()
    kappas: tuple = ()
    bent_radii: tuple = (0.05, 0.25)
    tolerances: dict = dc_field(default_factory=dict)
    out_csv: str | None = None
    out_report: str | None = None

    def __post_init__(self):
        for name in ("fields", "taus", "cutoffs"):
            if not getattr(self, name):
                raise UsageError("sweep grid %r must be non-empty" % name)
        if self.eps is not None and not self.eps:
            raise UsageError("sweep grid 'eps' must be non-empty when given")
        for key, value in self.tolerances.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise UsageError("sweep tolerance %r must be positive, got %r" % (key, value))
        if len(self.bent_radii) != 2 or not (0.0 < self.bent_radii[0] < self.bent_radii[1]):
            raise UsageError("bent_radii must be two increasing positive numbers")

    @classmethod
    def from_dict(cls, raw: dict, path: str) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise UsageError("sweep config %s must hold a JSON object" % path)
        known = {"fields", "taus", "cutoffs", "eps", "deltas", "kappas",
                 "bent_radii", "tolerances", "out_csv", "out_report"}
        for key in raw:
            if key not in known:
                raise UsageError("unknown sweep config key %r in %s" % (key, path))
        cutoffs = tuple(tuple(float(v) for v in c) for c in raw.get("cutoffs", ()))
        for c in cutoffs:
            if len(c) != 4:
                raise UsageError("each cutoff needs 4 radii, got %r" % (c,))
        return cls(
            fields=tuple(raw.get("fields", ())),
            taus=tuple(float(t) for t in raw.get("taus", ())),
            cutoffs=cutoffs,
            eps=None if "eps" not in raw else tuple(float(e) for e in raw["eps"]),
            deltas=tuple(float(d) for d in raw.get("deltas", ())),
            kappas=tuple(float(k) for k in raw.get("kappas", ())),
            bent_radii=tuple(float(r) for r in raw.get("bent_radii", (0.05, 0.25))),
            tolerances=dict(raw.get("tolerances", {})),
            out_csv=raw.get("out_csv"),
            out_report=raw.get("out_report"),
        )


def _sweep_row_base() -> dict:
    return {col: "" for col in SWEEP_COLUMNS}


def _cutoff_cells(cutoff) -> dict:
    a_in, a_lo, a_hi, a_out = cutoff.radii
    return {"cutoff_kind": cutoff.kind, "a_in": a_in, "a_lo": a_lo, "a_hi": a_hi,
            "a_out": a_out}


def _carleman_row(f, tau, eps, cutoff, quad, res):
    row = carleman.carleman_row(f, tau, eps, cutoff, quad)
    del row["cutoff_radii"]
    return {**_sweep_row_base(), **row, **_cutoff_cells(cutoff),
            "case": "carleman", "resolution": res}


def _modified_row(f, tau, delta, cutoff, bent_radii, quad, res):
    bent = carleman.build_phi_delta(delta, *bent_radii)
    rep = carleman.modified_carleman_sides(f, tau, bent, cutoff, quad)
    row = _sweep_row_base()
    row.update(case="modified", field=f.tag, tau=tau, delta=delta,
               lhs=rep.quantities["lhs"], rhs=rep.quantities["rhs"],
               ratio=rep.quantities["ratio"], resolution=res,
               verdict=rep.verdict, **_cutoff_cells(cutoff))
    return row


def _epiperimetric_row(f, kappa, n_nodes, res):
    rep = weiss2d.epiperimetric_check(f, kappa, n_nodes=n_nodes)
    row = _sweep_row_base()
    row.update(case="epiperimetric", field=f.tag, kappa=kappa,
               lhs=rep.quantities["gap"],
               rhs=rep.quantities["weiss_w1"],
               ratio=rep.quantities["margin"], resolution="n_nodes=%d" % n_nodes,
               verdict=rep.verdict)
    return row


def _cmd_sweep(args, ctx: _Context) -> None:
    try:
        with open(args.config_sweep) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError("cannot read sweep config %s: %s" % (args.config_sweep, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("sweep config %s is not valid JSON: %s" % (args.config_sweep, exc))
    sweep = SweepConfig.from_dict(raw, args.config_sweep)
    out_csv = args.out_csv or sweep.out_csv
    out_report = args.out or sweep.out_report

    built = [(spec, fields.parse_field_spec(spec)) for spec in sweep.fields]
    quad = ctx.quad
    res = "radial=%d;angular=%d;polar=%d" % (quad.radial_order, quad.angular_nodes,
                                             quad.polar_nodes)
    cutoffs = [carleman.linear_cutoff(*c) for c in sweep.cutoffs]

    tasks = []
    for _, f in built:
        for cutoff in cutoffs:
            if sweep.eps is None:
                eps_grid = (carleman.eps_recipe(cutoff.a_lo, cutoff.a_hi),)
            else:
                eps_grid = sweep.eps
            for eps in eps_grid:
                for tau in sweep.taus:
                    tasks.append((_carleman_row, (f, tau, eps, cutoff, quad, res)))
        for delta in sweep.deltas:
            for tau in sweep.taus:
                tasks.append((_modified_row, (f, tau, delta, cutoffs[0],
                                              sweep.bent_radii, quad, res)))
        for kappa in sweep.kappas:
            if f.n != 2:
                raise UsageError("kappa grid needs planar fields, got n=%d for %s"
                                 % (f.n, f.tag))
            tasks.append((_epiperimetric_row, (f, kappa, ctx.cfg["n_nodes"], res)))

    workers = _workers()
    if workers == 1:
        rows = [fn(*fn_args) for fn, fn_args in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda t: t[0](*t[1]), tasks))

    if out_csv:
        emit_plot_data(rows, out_csv, resolution=res)

    n_fail = sum(1 for row in rows if row["verdict"] == "fail")
    ratios = [row["ratio"] for row in rows if isinstance(row["ratio"], float)]
    quantities = {"n_rows": float(len(rows)), "n_fail": float(n_fail),
                  "max_ratio": max(ratios), "min_ratio": min(ratios)}
    for spec, f in built:
        field_rows = [row for row in rows
                      if row["case"] == "carleman" and row["field"] == f.tag]
        if len({row["tau"] for row in field_rows}) >= 2:
            quantities["trend:" + spec] = carleman.tau_trend_statistic(field_rows)
    report = CheckReport(
        name="sweep",
        field_spec=";".join(sweep.fields),
        params={"taus": sweep.taus, "cutoffs": sweep.cutoffs,
                "eps": sweep.eps if sweep.eps is not None else "recipe",
                "deltas": sweep.deltas, "kappas": sweep.kappas},
        quantities=quantities,
        resolutions={**quad.meta(), "n_nodes": ctx.cfg["n_nodes"]},
        verdict="pass" if n_fail == 0 else "fail",
    )
    ctx.emit(report, out_report)


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--quad-radial", dest="quad_radial", type=int)
    parser.add_argument("--quad-angular", dest="quad_angular", type=int)
    parser.add_argument("--quad-polar", dest="quad_polar", type=int)
    parser.add_argument("--n-nodes", dest="n_nodes", type=int,
                        help="boundary sample count for planar trace analysis")
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--out", help="write the report JSON here (atomic)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvlab",
        description="Checks and sweeps for multivalued energy-stationary fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="reference field library")
    ex_sub = p.add_subparsers(dest="examples_command", required=True)
    p_list = ex_sub.add_parser("list", help="print the deterministic library listing")
    p_list.set_defaults(handler=_cmd_examples)

    check = sub.add_parser("check", help="run one inequality check")
    check_sub = check.add_subparsers(dest="check_kind", required=True)

    p = check_sub.add_parser("stationarity", help="outer and inner variation residuals")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--bump", help="a_in,a_lo,a_hi,a_out plateau bump radii")
    p.add_argument("--no-refine", action="store_true")
    p.set_defaults(handler=_cmd_check_stationarity)

    p = check_sub.add_parser("carleman", help="weighted estimate, both sides")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--chi", required=True, help="annulus:a_in,a_lo,a_hi,a_out")
    p.add_argument("--eps", type=float, help="mass-term weight (default: plateau recipe)")
    p.add_argument("--variant", choices=("proof", "statement"), default="proof")
    p.add_argument("--smoothed", action="store_true", help="use the C^2 quintic ramp cutoff")
    p.add_argument("--eta-tuned", action="store_true",
                   help="completed-square estimate with eps = 0")
    p.set_defaults(handler=_cmd_check_carleman)

    p = check_sub.add_parser("three-sphere", help="three-annulus constant")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--radii", required=True, help="r1,r2,r3")
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(handler=_cmd_check_three_sphere)

    p = check_sub.add_parser("doubling", help="dyadic mass doubling constant")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--r", type=float, default=0.25)
    p.add_argument("--kappa", required=True, help="vanishing order, or auto")
    p.add_argument("--eta-abs", type=float, default=0.1)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(handler=_cmd_check_doubling)

    p = check_sub.add_parser("caccioppoli", help="interior energy bound")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--bump", default="0.15,0.3,0.6,0.9")
    p.add_argument("--c-max", type=float, default=variational.CACCIOPPOLI_C_MAX)
    p.set_defaults(handler=_cmd_check_caccioppoli)

    p = sub.add_parser("frequency", help="frequency value, profile, or identity")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--r", type=float, help="single scale: compare both normalizations")
    p.add_argument("--radii", help="comma list for a profile")
    p.add_argument("--r-max", type=float, default=0.5)
    p.add_argument("--n-radii", type=int, default=6)
    p.add_argument("--variant", choices=("sharp", "linear"), default="sharp")
    p.add_argument("--identity", help="r_lo,r_hi for the integrated height identity")
    p.add_argument("--plot-data", help="write the profile CSV here")
    p.set_defaults(handler=_cmd_frequency)

    p = sub.add_parser("vanishing-order", help="fit the growth exponent at a point")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--r-max", type=float, default=0.5)
    p.add_argument("--n-radii", type=int, default=8)
    p.set_defaults(handler=_cmd_vanishing_order)

    p = sub.add_parser("deficit", help="homogeneity deficit on shrinking windows")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--kappa", required=True, help="homogeneity to test, or auto")
    p.add_argument("--r-max", type=float, default=0.5)
    p.add_argument("--windows", type=int, default=5)
    p.add_argument("--plot-data", help="write the profile CSV here")
    p.set_defaults(handler=_cmd_deficit)

    p = sub.add_parser("weiss", help="boundary-adjusted monotone energy")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--kappa", required=True, help="homogeneity parameter, or auto")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--radii", help="comma list: check monotonicity along a profile")
    p.add_argument("--derivative", action="store_true",
                   help="check the derivative identity at --r")
    p.add_argument("--exponent-dim", type=int, default=None)
    p.add_argument("--plot-data", help="write the profile CSV here")
    p.set_defaults(handler=_cmd_weiss)

    p = sub.add_parser("epiperimetric", help="boundary-data energy gap")
    _add_common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--boundary", help="boundary-data JSON file")
    src.add_argument("--field", help="planar field spec to trace")
    p.add_argument("--kappa", required=True, help="homogeneity, or auto")
    p.set_defaults(handler=_cmd_epiperimetric)

    p = sub.add_parser("solve2d", help="harmonic extension of boundary data")
    _add_common(p)
    p.add_argument("--boundary", required=True, help="boundary-data JSON file")
    p.add_argument("--samples", help="write a polar sample grid CSV here")
    p.add_argument("--sample-radii", default="0.25,0.5,0.75")
    p.add_argument("--n-theta", type=int, default=64)
    p.set_defaults(handler=_cmd_solve2d)

    p = sub.add_parser("blowup", help="successive normalized rescalings at a point")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--rho0", type=float, default=0.25)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(handler=_cmd_blowup)

    p = sub.add_parser("sweep", help="grid of checks from a JSON sweep config")
    _add_common(p)
    p.add_argument("--config-sweep", dest="config_sweep", required=True,
                   help="sweep grid JSON (fields, taus, cutoffs, ...)")
    p.add_argument("--out-csv", help="aggregate row CSV path (overrides config)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _effective_config(args)
        _workers()
        ctx = _Context(cfg=cfg, quad=_quad_of(cfg))
        args.handler(args, ctx)
    except ArtifactError as exc:
        sys.stderr.write("qvlab: error: %s\n" % exc)
        return 1
    except ValueError as exc:
        sys.stderr.write("qvlab: error: %s\n" % exc)
        return 2
    except weiss2d.TraceContinuationError as exc:
        sys.stderr.write("qvlab: error: %s with --n-nodes above %d\n" % (exc, cfg["n_nodes"]))
        return 2
    return ctx.exit_code()


if __name__ == "__main__":
    sys.exit(main())
