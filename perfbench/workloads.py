"""Seeded inputs and one cycle of operations for each workload.

A workload turns a seed into concrete inputs (field specs, radii, tau
grids), builds its fields, and lists the operations of one cycle. The
benchmark repeats the cycle in a closed loop; qvlab only ever sees the
generated specs and numbers. Inputs are picked by structural properties of
what the generator produced (for example "one winding-3 piece"), never by
the seed's value, so every seed loads the same layers the same way.

Each operation names its second route, the check that judges its output
without going through the code path being timed:
  closed-form        weiss2d closed forms for energy and height, or exact
                     radial densities of homogeneous branch fields;
  exact-homogeneity  fitted orders against the smallest active l/Q;
  by-construction    verdicts every constructed field must get;
  rerun              only completion and byte-identical reruns.
Every operation is also compared byte for byte with its first run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import oracle

ORIGIN = (0.0, 0.0)


class Qv:
    """The qvlab modules, imported by the caller so the import can be timed."""

    def __init__(self):
        from qvlab import carleman, fields, frequency, report, variational, weiss2d

        self.carleman = carleman
        self.fields = fields
        self.frequency = frequency
        self.report = report
        self.variational = variational
        self.weiss2d = weiss2d


@dataclass
class Op:
    """One in-process operation: the timed call, its report, its second route."""

    kind: str
    route: str
    call: Callable[[], object]
    report: Callable[[object], object]
    check: Callable[[object], str | None]


@dataclass
class CliOp:
    """One qvlab invocation: arguments, extra environment, artifacts it writes."""

    kind: str
    route: str
    argv: list
    check: Callable[[int, bytes, dict], str | None]
    env: dict = field(default_factory=dict)
    artifacts: tuple = ()


def _problems(*pairs):
    """First failing (ok, message) pair's message, or None."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


def _pick_wound(rng, qv, Q, L, decay):
    """First generated wound spec whose trace is one winding-Q piece whose
    lowest mode carries at least a tenth of the mode energy."""
    while True:
        seed = rng.randrange(1_000_000)
        data = qv.fields.random_wound_pieces(seed, Q, L, decay)
        if len(data) != 1 or data[0][0] != Q:
            continue
        energies = [float(a @ a + b @ b) for _, a, b in data[0][2]]
        if energies[0] >= 0.1 * sum(energies):
            pieces = [qv.weiss2d.FourierPiece(winding=w, a0=a0, modes=m) for w, a0, m in data]
            return "wound:%d,%d,%d,%s" % (seed, Q, L, repr(float(decay))), pieces


def _branch_piece(qv, k, Q, amp):
    return qv.weiss2d.FourierPiece(winding=Q, a0=(0.0, 0.0), modes=((k, (0.0, amp), (amp, 0.0)),))


def _harmonic_pair(rng, qv):
    """Two harmonic components a1 Re z + b1 Im z + a2 Re z^2 + b2 Im z^2 as
    spec text, and the winding-1 Fourier piece with the same coefficients."""
    texts, coeffs = [], []
    for _ in range(2):
        a1, b1, a2, b2 = (rng.choice((-1, 1)) * round(rng.uniform(0.2, 1.0), 3) for _ in range(4))
        texts.append("%+.3f*x1%+.3f*x2%+.3f*x1^2%+.3f*x2^2%+.3f*x1*x2"
                     % (a1, b1, a2, -a2, 2.0 * b2))
        coeffs.append((a1, b1, a2, b2))
    (p1, q1, p2, q2), (r1, s1, r2, s2) = coeffs
    piece = qv.weiss2d.FourierPiece(winding=1, a0=(0.0, 0.0),
                                    modes=((1, (q1, s1), (p1, r1)), (2, (q2, s2), (p2, r2))))
    return ";".join(texts), piece


def _profile_report(qv, name, f, params, quad, quantities):
    return qv.report.CheckReport(name=name, field_spec=f.tag, params=params,
                                 quantities=quantities, resolutions=quad.meta(),
                                 verdict="diagnostic")


def _same(report):
    return report


# ---------------------------------------------------------------------------
# wound-ball


class WoundBall:
    """Ball profiles of a seeded winding-3 wound field at reduced quadrature.

    Every ball integral runs through the branch point and stops at the
    subdivision cap, so field evaluation is nearly all of the time.
    """

    name = "wound-ball"
    tail_percentile = 90
    min_cycles = 2
    quad_args = {"radial_order": 8, "angular_nodes": 32}
    # the identity check is the slowest operation. With four of the ten
    # operations of a cycle, p90 falls inside its latencies and p50 inside
    # those of the two profiles. With one, both percentiles sat on a border
    # between two operations and jumped with the host's speed
    identity_checks = 4

    def generate(self, rng, qv):
        spec, pieces = _pick_wound(rng, qv, 3, 4, 1.8)
        identity = []
        for _ in range(self.identity_checks):
            r_lo = round(rng.uniform(0.1, 0.2), 4)
            identity.append((r_lo, round(r_lo * rng.uniform(2.5, 3.5), 4)))
        r_max = round(rng.uniform(0.3, 0.6), 4)
        return {
            "specs": (spec,),
            "oracle": oracle.PieceField(qv.weiss2d, pieces),
            "identity": tuple(identity),
            "variant_radii": (0.25, 0.125, 0.0625),
            "profile_radii": (r_max, 0.5 * r_max, 0.25 * r_max),
        }

    def operations(self, qv, inputs, built):
        f = built[inputs["specs"][0]]
        pf = inputs["oracle"]
        quad = qv.variational.QuadratureSpec(**self.quad_args)
        kappa = pf.smallest_order()
        fr = qv.frequency
        radii = inputs["profile_radii"]
        ops = []
        for r_lo, r_hi in inputs["identity"]:
            def identity_check(rep, r_lo=r_lo, r_hi=r_hi):
                q = rep.quantities
                return _problems(
                    (rep.verdict == "pass", "identity verdict %s on a stationary field" % rep.verdict),
                    (oracle.close(q["height_lo"], pf.height(r_lo), 1e-8), "height_lo off closed form"),
                    (oracle.close(q["height_hi"], pf.height(r_hi), 1e-8), "height_hi off closed form"))

            ops.append(Op("identity", "closed-form",
                          lambda r_lo=r_lo, r_hi=r_hi: fr.frequency_identity_check(
                              f, ORIGIN, r_lo, r_hi, quad, nodes=4),
                          _same, identity_check))

        for r in inputs["variant_radii"]:
            def variant_check(rep, r=r):
                q = rep.quantities
                return _problems(
                    (oracle.close(q["sharp"], pf.frequency(r), 1e-8), "sharp frequency off closed form"),
                    (oracle.close(q["linear"], pf.linear_frequency(r), 1e-8),
                     "linear frequency off closed form"))

            ops.append(Op("variant", "closed-form",
                          lambda r=r: fr.variant_agreement(f, ORIGIN, r, quad), _same, variant_check))

        def profile_check(prof):
            return _problems(*((oracle.close(v, pf.frequency(r), 1e-8),
                                "frequency at r=%g off closed form" % r)
                               for r, v in zip(prof.radii, prof.values)))

        ops.append(Op("frequency-profile", "closed-form",
                      lambda: fr.frequency_profile(f, ORIGIN, radii, quad),
                      lambda prof: _profile_report(qv, "frequency-profile", f,
                                                   {"radii": prof.radii}, quad,
                                                   {"values": prof.values}),
                      profile_check))

        def weiss_check(prof):
            scale = max(abs(pf.weiss(kappa, r)) + pf.height(r) * r ** (-1.0 - 2.0 * kappa)
                        for r in prof.radii)
            return _problems(*((oracle.close(v, pf.weiss(kappa, r), 1e-8, 1e-9 * scale),
                                "Weiss energy at r=%g off closed form" % r)
                               for r, v in zip(prof.radii, prof.values)))

        ops.append(Op("weiss-profile", "closed-form",
                      lambda: qv.weiss2d.weiss_profile(f, ORIGIN, kappa, radii, quad),
                      lambda prof: _profile_report(qv, "weiss-profile", f,
                                                   {"kappa": kappa, "radii": prof.radii}, quad,
                                                   {"values": prof.values}),
                      weiss_check))

        ops.append(Op("vanishing-order", "exact-homogeneity",
                      lambda: fr.vanishing_order(f, ORIGIN, quad=quad),
                      lambda est: _profile_report(qv, "vanishing-order", f, {}, quad, {
                          "kappa": est.kappa, "drift": est.drift, "residual": est.residual,
                          "means": est.means, "window_slopes": est.window_slopes}),
                      lambda est: None if abs(est.kappa - kappa) <= 0.02 else
                      "vanishing order %r is not the smallest active l/Q %r" % (est.kappa, kappa)))
        return ops


# ---------------------------------------------------------------------------
# branch-checks


class BranchChecks:
    """Annulus checks on branch, harmonic and superposed fields at the
    reference quadrature: shallow fixed refinement, several integrals per
    node set."""

    name = "branch-checks"
    tail_percentile = 90
    min_cycles = 2
    quad_args = {}

    def generate(self, rng, qv):
        k = rng.choice((1, 3, 5))
        amp = round(rng.uniform(0.5, 2.0), 3)
        k3 = rng.choice((1, 2, 4, 5))
        shift_text, shift_piece = _harmonic_pair(rng, qv)
        sheet_texts, sheet_pieces = zip(*(_harmonic_pair(rng, qv) for _ in range(2)))
        branch = "branch:%d/2:%s" % (k, repr(amp))
        superposed = "superpose(branch:%d/3,n2m2:%s)" % (k3, shift_text)
        harmonic = "harmonic:n2m2:" + "|".join(sheet_texts)
        return {
            "specs": (branch, superposed, harmonic),
            "branch": (k, 2, amp),
            "oracle": {
                branch: oracle.PieceField(qv.weiss2d, [_branch_piece(qv, k, 2, amp)]),
                superposed: oracle.PieceField(qv.weiss2d, [_branch_piece(qv, k3, 3, 1.0)],
                                              shift=[shift_piece]),
                harmonic: oracle.PieceField(qv.weiss2d, sheet_pieces),
            },
            "kappa": {branch: k / 2.0, superposed: k3 / 3.0, harmonic: 1.0},
            "taus": tuple(sorted(round(rng.uniform(1.0, 4.0), 3) for _ in range(2))),
            "delta": round(rng.uniform(0.05, 0.3), 3),
        }

    def operations(self, qv, inputs, built):
        quad = qv.variational.QuadratureSpec(**self.quad_args)
        cm, var, fr = qv.carleman, qv.variational, qv.frequency
        cutoffs = (cm.linear_cutoff(0.1, 0.2, 0.6, 0.8), cm.smoothed_cutoff(0.1, 0.2, 0.6, 0.8))
        bump = var.RadialBump(0.15, 0.3, 0.6, 0.9)
        bent = cm.build_phi_delta(inputs["delta"], 0.05, 0.25)
        taus = inputs["taus"]
        branch_spec = inputs["specs"][0]
        exact = oracle.BranchRadial(*inputs["branch"])
        ops = []
        for spec in inputs["specs"]:
            f = built[spec]
            pf = inputs["oracle"][spec]
            kappa = inputs["kappa"][spec]
            homogeneous = spec == branch_spec

            def stationarity_check(rep, pf=pf):
                expected = pf.dirichlet(0.9) - pf.dirichlet(0.15)
                return _problems(
                    (rep.verdict == "pass", "stationarity verdict %s" % rep.verdict),
                    (oracle.close(rep.quantities["dirichlet_support"], expected, 1e-8),
                     "support energy off closed form"))

            ops.append(Op("stationarity", "closed-form",
                          lambda f=f: var.stationarity_battery(f, quad), _same, stationarity_check))

            for cutoff in cutoffs:
                eps = 1.0 / math.sqrt(1.0 + math.log(cutoff.radii[2] / cutoff.radii[1]) ** 2)
                for tau in taus:
                    w = cm.WeightSpec(tau=tau, eps=eps)

                    def carleman_check(rep, w=w, cutoff=cutoff, homogeneous=homogeneous):
                        q = rep.quantities
                        if not homogeneous:
                            return None if rep.verdict == "pass" else "verdict %s" % rep.verdict
                        lhs, rhs = exact.carleman(w.tau, w.eps, w.mass_exponent(), cutoff)
                        other = w.mass_exponent("statement")
                        lhs_other, _ = exact.carleman(w.tau, w.eps, other, cutoff)
                        return _problems(
                            (rep.verdict == "pass", "verdict %s" % rep.verdict),
                            (oracle.close(q["lhs"], lhs, 1e-7), "lhs off closed form"),
                            (oracle.close(q["rhs"], rhs, 1e-7), "rhs off closed form"),
                            (oracle.close(q["lhs_statement_variant"], lhs_other, 1e-7),
                             "variant lhs off closed form"))

                    ops.append(Op("carleman", "closed-form" if homogeneous else "by-construction",
                                  lambda f=f, w=w, cutoff=cutoff: cm.carleman_sides(f, w, cutoff, quad),
                                  _same, carleman_check))

            first_tau = kappa if homogeneous else taus[0]

            def first_check(rep, homogeneous=homogeneous):
                q = rep.quantities
                return _problems(
                    (rep.verdict == "pass", "verdict %s" % rep.verdict),
                    (not homogeneous or abs(q["lhs"]) <= 1e-10 * abs(q["rhs"]),
                     "eta-tuned left side does not vanish on a homogeneous field"))

            ops.append(Op("first-carleman", "exact-homogeneity" if homogeneous else "by-construction",
                          lambda f=f, t=first_tau: cm.first_carleman_sides(f, t, cutoffs[0], quad),
                          _same, first_check))

            def modified_check(rep, homogeneous=homogeneous):
                if not homogeneous:
                    return None if rep.verdict == "pass" else "verdict %s" % rep.verdict
                q = rep.quantities
                lhs, boundary, bulk = exact.modified(taus[1], bent, cutoffs[0])
                return _problems(
                    (rep.verdict == "pass", "verdict %s" % rep.verdict),
                    (oracle.close(q["lhs"], lhs, 1e-7, 1e-12 * boundary), "lhs off closed form"),
                    (oracle.close(q["rhs_boundary"], boundary, 1e-7), "boundary term off closed form"),
                    (oracle.close(q["rhs_bulk_integral"], bulk, 1e-7), "bulk term off closed form"))

            ops.append(Op("modified-carleman", "closed-form" if homogeneous else "by-construction",
                          lambda f=f: cm.modified_carleman_sides(f, taus[1], bent, cutoffs[0], quad),
                          _same, modified_check))

            ops.append(Op("caccioppoli", "by-construction",
                          lambda f=f: var.caccioppoli_check(f, bump, quad), _same,
                          lambda rep: _problems(
                              (rep.verdict == "pass", "verdict %s" % rep.verdict),
                              (rep.quantities["c_est"] <= var.CACCIOPPOLI_C_MAX,
                               "Caccioppoli constant above 4"))))

            def three_check(rep, pf=pf):
                q = rep.quantities
                return _problems(*((oracle.close(q["shell_mass_r%d" % i], pf.ring_mass(r, 2.0 * r), 1e-8),
                                    "shell mass at r=%g off closed form" % r)
                                   for i, r in ((1, 0.05), (2, 0.15), (3, 0.45))))

            ops.append(Op("three-sphere", "closed-form",
                          lambda f=f: cm.three_sphere_check(f, ORIGIN, 0.05, 0.15, 0.45, taus[0], quad),
                          _same, three_check))

            def deficit_check(rows, homogeneous=homogeneous):
                values = [v for _, v in rows]
                if not all(math.isfinite(v) and v >= 0.0 for v in values):
                    return "deficit not a finite nonnegative number"
                if homogeneous and max(values) > 1e-12:
                    return "deficit of a homogeneous field at its own order is %r" % max(values)
                return None

            ops.append(Op("deficit-profile", "exact-homogeneity" if homogeneous else "rerun",
                          lambda f=f, kappa=kappa: fr.deficit_profile(f, ORIGIN, kappa, quad=quad),
                          lambda rows, f=f, kappa=kappa: _profile_report(
                              qv, "deficit-profile", f, {"kappa": kappa}, quad,
                              {"radii": [r for r, _ in rows], "values": [v for _, v in rows]}),
                          deficit_check))
        return ops


# ---------------------------------------------------------------------------
# cli-mix


def _cli_report(stdout: bytes) -> dict:
    return json.loads(stdout.decode())


class CliMix:
    """Quick-start style qvlab invocations as child processes, one at a time.

    Every invocation pays interpreter start and import, the four wound
    invocations pay the wound certification, the sweep runs its thread pool
    with two workers at the reference quadrature, and all of them write
    artifacts.
    """

    name = "cli-mix"
    tail_percentile = 50
    min_cycles = 4
    quad_flags = ("--quad-radial", "8", "--quad-angular", "32")
    sweep_workers = 2

    def generate(self, rng, qv):
        spec, pieces = _pick_wound(rng, qv, 3, 1, 1.8)
        k = rng.choice((1, 2, 4, 5))
        r_max = round(rng.uniform(0.3, 0.6), 4)
        return {
            "specs": (spec, "branch:%d/3" % k),
            "oracle": oracle.PieceField(qv.weiss2d, pieces),
            "radii": (r_max, 0.5 * r_max, 0.25 * r_max),
            "sweep": {
                "fields": ["branch:%d/3" % k],
                "taus": sorted(round(rng.uniform(1.0, 4.0), 3) for _ in range(2)),
                "cutoffs": [[0.1, 0.2, 0.6, 0.8]],
                "deltas": [round(rng.uniform(0.05, 0.3), 3)],
                "kappas": [rng.choice((0.5, 1.0, 1.5))],
            },
        }

    def operations(self, qv, inputs, outdir):
        spec = inputs["specs"][0]
        pf = inputs["oracle"]
        s_min = pf.smallest_order()
        w = qv.weiss2d

        def path(name):
            return os.path.join(outdir, name)

        sweep_cfg = path("sweep-config.json")
        with open(sweep_cfg, "w", encoding="utf-8") as handle:
            json.dump(inputs["sweep"], handle, sort_keys=True)
        quad = list(self.quad_flags)
        ops = []

        def stationarity_check(rc, out, arts):
            rep = _cli_report(out)
            return _problems((rc == 0, "exit %d" % rc),
                             (rep["verdict"] == "pass", "verdict %s" % rep["verdict"]),
                             (arts.get("stat.json") == out, "--out file differs from stdout"))

        ops.append(CliOp("check-stationarity", "by-construction",
                         ["check", "stationarity", "--field", spec, "--out", path("stat.json")] + quad,
                         stationarity_check, artifacts=("stat.json",)))

        radii_text = ",".join(repr(r) for r in inputs["radii"])

        def frequency_check(rc, out, arts):
            rows = list(csv.reader(io.StringIO(arts.get("freq.csv", b"").decode())))[2:]
            if rc != 0 or len(rows) != len(inputs["radii"]):
                return "exit %d with %d profile rows" % (rc, len(rows))
            return _problems(*((oracle.close(float(v), pf.frequency(float(r)), 1e-8),
                                "frequency at r=%s off closed form" % r) for r, v in rows),
                             (arts.get("freq.json") == out, "--out file differs from stdout"))

        ops.append(CliOp("frequency-plot", "closed-form",
                         ["frequency", "--field", spec, "--radii", radii_text,
                          "--plot-data", path("freq.csv"), "--out", path("freq.json")] + quad,
                         frequency_check, artifacts=("freq.csv", "freq.json")))

        def order_check(rc, out, arts):
            kappa = _cli_report(out)["quantities"]["kappa"]
            return _problems((rc == 0, "exit %d" % rc),
                             (abs(kappa - s_min) <= 0.02,
                              "vanishing order %r is not the smallest active l/Q %r" % (kappa, s_min)),
                             (arts.get("order.json") == out, "--out file differs from stdout"))

        ops.append(CliOp("vanishing-order", "exact-homogeneity",
                         ["vanishing-order", "--field", spec, "--out", path("order.json")] + quad,
                         order_check, artifacts=("order.json",)))

        def epi_check(rc, out, arts):
            rep = _cli_report(out)
            q, kappa = rep["quantities"], rep["params"]["kappa"]
            e_min = pf.dirichlet(1.0)
            e_hom = sum(w.homogeneous_extension_energy(p, kappa) for p in pf.pieces)
            w1 = e_min - kappa * pf.height(1.0)
            margin = (e_hom - e_min) - float(w.epiperimetric_delta(kappa)) * w1
            verdict = "pass" if margin >= -w.EPIPERIMETRIC_SLACK else "fail"
            return _problems(
                (oracle.close(q["minimizing_energy"], e_min, 1e-8), "minimizing energy off closed form"),
                (oracle.close(q["homogeneous_energy"], e_hom, 1e-8), "homogeneous energy off closed form"),
                (rep["verdict"] == verdict, "verdict %s, closed form gives %s" % (rep["verdict"], verdict)),
                (rc == (1 if verdict == "fail" else 0), "exit %d for verdict %s" % (rc, verdict)),
                (arts.get("epi.json") == out, "--out file differs from stdout"))

        ops.append(CliOp("epiperimetric", "closed-form",
                         ["epiperimetric", "--field", spec, "--kappa", "auto",
                          "--out", path("epi.json")] + quad,
                         epi_check, artifacts=("epi.json",)))

        ops.append(self.sweep_op(outdir, self.sweep_workers, "sweep"))
        return ops

    def sweep_op(self, outdir, workers, stem):
        def sweep_check(rc, out, arts):
            rep = _cli_report(out)
            expected = 1 if rep["verdict"] == "fail" else 0
            return _problems((rc == expected, "exit %d for verdict %s" % (rc, rep["verdict"])),
                             (arts.get(stem + ".json") == out, "--out file differs from stdout"),
                             (bool(arts.get(stem + ".csv")), "no sweep CSV"))

        return CliOp("sweep", "rerun",
                     ["sweep", "--config-sweep", os.path.join(outdir, "sweep-config.json"),
                      "--out-csv", os.path.join(outdir, stem + ".csv"),
                      "--out", os.path.join(outdir, stem + ".json")],
                     sweep_check, env={"QVLAB_WORKERS": str(workers)},
                     artifacts=(stem + ".csv", stem + ".json"))


WORKLOADS = {w.name: w for w in (WoundBall(), BranchChecks(), CliMix())}
