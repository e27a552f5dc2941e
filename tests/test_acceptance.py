"""Acceptance gate: one test per release criterion.

Each test prints a one-line verdict with the governing tolerance before
asserting, so a full run leaves a readable scoreboard in the captured
output. Criteria that fail here are failing honestly: the checks implement
the stated inequality at the stated tolerance, and the verdict line plus
the check report carry the analysis of why the bound does not hold.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qvlab import carleman, cli, fields, frequency, variational, weiss2d
from qvlab.cli import example_library
from qvlab.qcore import QPoint, metric_g
from qvlab.variational import REFERENCE_QUAD

ACC = REFERENCE_QUAD

BRANCH_SPECS = ("branch:1/2", "branch:3/2", "branch:2/3", "branch:5/3")
BRANCH_KAPPA = {"branch:1/2": 0.5, "branch:3/2": 1.5,
                "branch:2/3": 2.0 / 3.0, "branch:5/3": 5.0 / 3.0}

# rms misfit allowed on the log-mass slope fit of a certified field; the
# library's worst observed value is 4e-4, so this is a 25x guard band
RESIDUAL_THRESHOLD = 1e-2


def verdict(num: int, title: str, ok: bool, detail: str) -> bool:
    print("[criterion %02d] %s: %s -- %s" % (num, title, "PASS" if ok else "FAIL", detail))
    return ok


def wound_exact_kappa(seed: int, q: int) -> float:
    raw = fields.random_wound_pieces(seed, q, 4, 1.8)
    return float(min(Fraction(1, int(w)) for w, _, _ in raw))


def wound_pieces(seed: int, q: int):
    raw = fields.random_wound_pieces(seed, q, 4, 1.8)
    return [weiss2d.FourierPiece(
        winding=int(w),
        a0=tuple(float(v) for v in a0),
        modes=tuple((int(l), tuple(float(x) for x in a), tuple(float(x) for x in b))
                    for l, a, b in modes))
        for w, a0, modes in raw]


def test_c01_stationarity_gate_over_library():
    """Every library field is energy-stationary across the deformation battery."""
    worst = 0.0
    worst_name = ""
    for name, spec in example_library():
        f = fields.parse_field_spec(spec)
        rep = variational.stationarity_battery(f, ACC)
        dir_support = rep.quantities["dirichlet_support"]
        ratio = rep.quantities["max_residual"] / max(dir_support, 1e-300)
        if dir_support == 0.0:
            ratio = rep.quantities["max_residual"]
        if ratio > worst:
            worst, worst_name = ratio, name
        assert rep.verdict == "pass", "%s: %s" % (name, rep.quantities)
    ok = worst <= 1e-6
    assert verdict(1, "stationarity gate (19 fields x 12 deformations)", ok,
                   "worst residual/Dir = %.2e at %s vs 1e-6, refinement decay enforced"
                   % (worst, worst_name))


def test_c02_weighted_estimate_sweep_trend():
    """Weighted-estimate sweep: finite ratios, no upward trend in the weight
    strength, and square-term collapse in the tuned cases.

    The trend clause is expected to fail: the two-sided ratio grows roughly
    linearly in tau on every field tested, so its rank correlation with tau
    is +1, not <= 0. The tuned square-term clause and finiteness hold.
    """
    cutoffs = (carleman.linear_cutoff(0.05, 0.1, 0.3, 0.5),
               carleman.linear_cutoff(0.1, 0.2, 0.6, 0.9),
               carleman.linear_cutoff(0.2, 0.3, 0.5, 0.7))
    taus = (1.0, 2.0, 5.0, 10.0, 20.0)
    rows = []
    for spec in BRANCH_SPECS:
        f = fields.parse_field_spec(spec)
        rows.extend(carleman.carleman_tau_sweep(f, taus, cutoffs, ACC))
    finite = all(math.isfinite(row["ratio"]) for row in rows)
    max_by_tau = [{"tau": tau, "ratio": max(r["ratio"] for r in rows if r["tau"] == tau)}
                  for tau in taus]
    spearman = carleman.tau_trend_statistic(max_by_tau)
    trend_ok = spearman <= 0.0

    tuned_worst = 0.0
    for spec in BRANCH_SPECS:
        f = fields.parse_field_spec(spec)
        tau = carleman.eta_tuned_tau(BRANCH_KAPPA[spec], 2)
        rep = carleman.first_carleman_sides(f, tau, cutoffs[1], ACC)
        tuned_worst = max(tuned_worst, rep.quantities["lhs"])
    tuned_ok = tuned_worst <= 1e-10

    ok = finite and trend_ok and tuned_ok
    assert verdict(
        2, "weighted-estimate sweep (4 fields x 5 tau x 3 cutoffs)", ok,
        "ratios finite=%s; Spearman(tau, max ratio)=%+.3f vs <=0 %s; "
        "tuned square-term lhs=%.2e vs 1e-10 %s"
        % (finite, spearman, "ok" if trend_ok else "VIOLATED",
           tuned_worst, "ok" if tuned_ok else "VIOLATED"))


def test_c03_three_annulus_constant():
    """Three-annulus constant bounded on dyadic triples; closed form on
    homogeneous fields matches the radial oracle."""
    radii = [2.0 ** (-j) for j in range(4, 9)]
    oracle = 1.0 / (1.0 + math.log(4.0) ** 2)
    max_c = 0.0
    worst_gap = 0.0
    for spec, tau, homogeneous in (("branch:3/2", 2.5, True),
                                   ("branch:1/2", 1.5, True),
                                   ("wound:5,3,4,1.8", 2.0, False)):
        f = fields.parse_field_spec(spec)
        for r in radii:
            rep = carleman.three_sphere_check(f, (0.0, 0.0), r, 4.0 * r, 16.0 * r, tau, ACC)
            assert rep.verdict == "pass", (spec, r, rep.notes)
            max_c = max(max_c, rep.quantities["c_est"])
            if homogeneous:
                worst_gap = max(worst_gap, abs(rep.quantities["c_est"] - oracle) / oracle)
    ok = max_c <= 1.0 and worst_gap <= 1e-8
    assert verdict(3, "three-annulus constant (3 fields x 5 dyadic triples)", ok,
                   "max C_est=%.4f (bounded), homogeneous closed-form gap=%.2e vs 1e-8"
                   % (max_c, worst_gap))


def test_c04_vanishing_order_and_frequency_agreement():
    """Fitted vanishing order matches the winding exponent; the frequency at
    the smallest tested radius matches the fit; the integrated height
    identity holds to 1e-6."""
    worst_fit = 0.0
    for spec in BRANCH_SPECS:
        f = fields.parse_field_spec(spec)
        est = frequency.vanishing_order(f, (0.0, 0.0), quad=ACC)
        worst_fit = max(worst_fit, abs(est.kappa - BRANCH_KAPPA[spec]))
    fit_ok = worst_fit <= 1e-3

    worst_agree = 0.0
    probes = [fields.parse_field_spec(s) for s in BRANCH_SPECS]
    probes += [fields.random_wound_field(seed, 2 if seed % 2 == 0 else 3, 4, 1.8)
               for seed in range(10)]
    for f in probes:
        est = frequency.vanishing_order(f, (0.0, 0.0), r_max=0.05, n_radii=10, quad=ACC)
        i_small = frequency.frequency(f, (0.0, 0.0), min(est.radii), ACC)
        worst_agree = max(worst_agree, abs(i_small - est.kappa))
    agree_ok = worst_agree <= 1e-3

    worst_identity = 0.0
    for f, pairs in ((fields.parse_field_spec("branch:3/2"), ((0.1, 0.4), (0.2, 0.5))),
                     (fields.parse_field_spec("branch:2/3"), ((0.1, 0.4),)),
                     (fields.random_wound_field(5, 3, 4, 1.8), ((0.15, 0.45),))):
        for r_lo, r_hi in pairs:
            rep = frequency.frequency_identity_check(f, (0.0, 0.0), r_lo, r_hi, ACC)
            assert rep.verdict == "pass", rep.quantities
            worst_identity = max(worst_identity, rep.quantities["gap"])
    identity_ok = worst_identity <= 1e-6

    ok = fit_ok and agree_ok and identity_ok
    assert verdict(4, "vanishing order and frequency", ok,
                   "branch fit err=%.2e vs 1e-3; |I(r_min)-fit|=%.2e over 14 fields vs 1e-3; "
                   "height identity=%.2e vs 1e-6" % (worst_fit, worst_agree, worst_identity))


def test_c05_unique_continuation_probe():
    """The zero field flags infinite order; every nontrivial certified field
    fits a finite order with small residual."""
    est0 = frequency.vanishing_order(fields.parse_field_spec("trivial:3"),
                                     (0.0, 0.0), quad=ACC)
    zero_ok = est0.infinite_order

    worst_resid = 0.0
    finite_ok = True
    nontrivial = [fields.parse_field_spec(s)
                  for s in ("branch:3/2", "branch:2/3", "harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2")]
    nontrivial += [fields.random_wound_field(seed, 2 if seed % 2 == 0 else 3, 4, 1.8)
                   for seed in (2, 7)]
    for f in nontrivial:
        est = frequency.vanishing_order(f, (0.0, 0.0), r_max=0.05, n_radii=10, quad=ACC)
        finite_ok = finite_ok and not est.infinite_order and math.isfinite(est.kappa)
        worst_resid = max(worst_resid, est.residual)
    resid_ok = worst_resid <= RESIDUAL_THRESHOLD

    ok = zero_ok and finite_ok and resid_ok
    assert verdict(5, "unique-continuation probe", ok,
                   "zero field infinite-order flag=%s; nontrivial orders finite=%s with "
                   "residual=%.2e vs %g" % (zero_ok, finite_ok, worst_resid, RESIDUAL_THRESHOLD))


def test_c06_almost_homogeneity_deficit():
    """Deficit with the fitted order decreases toward zero on shrinking
    windows for non-homogeneous fields and vanishes for homogeneous ones."""
    shrink_ok = True
    detail = []
    sup = fields.parse_field_spec(
        "superpose(branch:3/2,n2m2:0.05*x1^2-0.05*x2^2;0.1*x1*x2)")
    wound = fields.random_wound_field(3, 3, 4, 1.8)
    for name, f, r_max in (("perturbed", sup, 0.4), ("wound-s3", wound, 0.2)):
        est = frequency.vanishing_order(f, (0.0, 0.0), r_max=0.1, n_radii=8, quad=ACC)
        prof = frequency.deficit_profile(f, (0.0, 0.0), est.kappa,
                                         r_max=r_max, n_windows=5, quad=ACC)
        values = [v for _, v in prof]
        decreasing = all(b < a for a, b in zip(values, values[1:]))
        toward_zero = values[-1] <= 0.5 * values[0]
        shrink_ok = shrink_ok and decreasing and toward_zero
        detail.append("%s %.1e->%.1e" % (name, values[0], values[-1]))

    homog_worst = 0.0
    for spec in ("branch:3/2", "branch:1/2"):
        f = fields.parse_field_spec(spec)
        prof = frequency.deficit_profile(f, (0.0, 0.0), BRANCH_KAPPA[spec],
                                         r_max=0.4, n_windows=4, quad=ACC)
        homog_worst = max(homog_worst, max(v for _, v in prof))
    homog_ok = homog_worst <= 1e-12

    ok = shrink_ok and homog_ok
    assert verdict(6, "almost-homogeneity deficit", ok,
                   "non-homogeneous decreasing (%s); homogeneous max=%.1e vs 1e-12"
                   % ("; ".join(detail), homog_worst))


def test_c07_doubling_constant():
    """Dyadic doubling constant of homogeneous fields equals the planar
    closed form; perturbations converge to it as the scale shrinks."""
    worst_rel = 0.0
    for spec in ("branch:1/2", "branch:3/2", "branch:2/3"):
        f = fields.parse_field_spec(spec)
        expected = 2.0 ** (2.0 * BRANCH_KAPPA[spec] + 2.0)
        rep = carleman.doubling_check(f, (0.0, 0.0), 0.25, BRANCH_KAPPA[spec], ACC, levels=3)
        assert rep.verdict == "pass"
        assert rep.quantities["expected_homogeneous"] == pytest.approx(expected)
        for c in rep.quantities["c_est"]:
            worst_rel = max(worst_rel, abs(c - expected) / expected)
    homog_ok = worst_rel <= 1e-6

    sup = fields.parse_field_spec(
        "superpose(branch:3/2,n2m2:0.05*x1^2-0.05*x2^2;0.1*x1*x2)")
    rep = carleman.doubling_check(sup, (0.0, 0.0), 0.25, 1.5, ACC, levels=3)
    devs = [abs(c - 32.0) for c in rep.quantities["c_est"]]
    converge_ok = all(b <= a for a, b in zip(devs, devs[1:])) and devs[-1] / 32.0 <= 1e-4

    ok = homog_ok and converge_ok
    assert verdict(7, "doubling constant", ok,
                   "homogeneous rel err=%.2e vs 1e-6; perturbed deviation %.1e->%.1e shrinking=%s"
                   % (worst_rel, devs[0], devs[-1], converge_ok))


def test_c08_monotone_energy():
    """The boundary-adjusted energy is monotone for minimizers, its
    derivative identity balances, and it vanishes identically in the tuned
    homogeneous case."""
    profile_fields = [(fields.parse_field_spec(s), BRANCH_KAPPA[s])
                      for s in ("branch:1/2", "branch:3/2", "branch:5/3")]
    profile_fields += [(fields.random_wound_field(seed, 3, 4, 1.8),
                        wound_exact_kappa(seed, 3)) for seed in (1, 5)]
    worst_up = -math.inf
    for f, kappa in profile_fields:
        prof = weiss2d.weiss_profile(f, (0.0, 0.0), kappa, (0.6, 0.45, 0.3, 0.15), quad=ACC)
        ups = [b - a for a, b in zip(prof.values, prof.values[1:])]
        worst_up = max(worst_up, max(ups))
    monotone_ok = worst_up <= 1e-8

    worst_mismatch_rel = 0.0
    for f, kappa, r in ((fields.random_wound_field(5, 3, 4, 1.8),
                         wound_exact_kappa(5, 3), 0.3),
                        (fields.random_wound_field(5, 3, 4, 1.8),
                         wound_exact_kappa(5, 3), 0.5),
                        (fields.parse_field_spec("branch:3/2"), 1.5, 0.4)):
        rep = weiss2d.weiss_derivative_check(f, (0.0, 0.0), kappa, r, quad=ACC)
        assert rep.verdict == "pass", rep.quantities
        worst_mismatch_rel = max(
            worst_mismatch_rel,
            rep.quantities["mismatch"] / rep.quantities["tolerance"])
    derivative_ok = worst_mismatch_rel <= 1.0

    tuned_worst = 0.0
    for spec in BRANCH_SPECS:
        f = fields.parse_field_spec(spec)
        for r in (0.2, 0.5, 0.8):
            tuned_worst = max(tuned_worst, abs(
                weiss2d.weiss_energy(f, (0.0, 0.0), BRANCH_KAPPA[spec], r, quad=ACC)))
    tuned_ok = tuned_worst <= 1e-8

    ok = monotone_ok and derivative_ok and tuned_ok
    assert verdict(8, "monotone boundary-adjusted energy", ok,
                   "max increase=%.1e vs 1e-8; derivative mismatch=%.2f of tolerance; "
                   "tuned |W|=%.1e vs 1e-8" % (worst_up, worst_mismatch_rel, tuned_worst))


def test_c09_epiperimetric_gap():
    """Per-mode inequality over the full grid with its exact equality cases,
    then the full gap bound on seeded boundary data.

    The seeded clause is expected to fail: boundary data whose lowest mode
    sits on a winding-3 piece has an active unwound homogeneity strictly
    between kappa and floor(kappa)+1, where the best constant
    (s - kappa)/(2 kappa) is smaller than the stated delta. The per-mode
    grid and equality clauses hold.
    """
    grid_ok = True
    for ell in range(1, 201):
        for tenth in range(1, 101):
            kappa = Fraction(tenth, 10)
            res = weiss2d.mode_inequality(ell, kappa)
            if not res["holds"]:
                grid_ok = False
    eq_ok = True
    for kappa in (1, 2, 3, 5):
        eq_ok = eq_ok and weiss2d.mode_inequality(kappa, kappa)["equality"]
        eq_ok = eq_ok and weiss2d.mode_inequality(kappa + 1, kappa)["equality"]
    eq_ok = eq_ok and weiss2d.mode_inequality(2, Fraction(3, 2))["equality"]

    violations = []
    worst_margin = math.inf
    for q in (2, 3):
        for seed in range(10):
            kappa = wound_exact_kappa(seed, q)
            rep = weiss2d.epiperimetric_check(wound_pieces(seed, q), kappa)
            margin = rep.quantities["margin"]
            worst_margin = min(worst_margin, margin)
            if margin < -1e-8:
                violations.append((q, seed, margin))
    seeded_ok = not violations

    ok = grid_ok and eq_ok and seeded_ok
    assert verdict(
        9, "epiperimetric gap", ok,
        "mode grid 200x100 holds=%s, equalities=%s; seeded gap>=delta*W-1e-8 %s "
        "(violations %s, worst margin %.3e)"
        % (grid_ok, eq_ok, "ok" if seeded_ok else "VIOLATED",
           [(q, s) for q, s, _ in violations], worst_margin))


def test_c10_unwinding_consistency():
    """Closed-form energies match quadrature on certified constructions,
    trace analysis round-trips coefficients, and the disk solver reproduces
    the reference branch construction."""
    worst_gap = 0.0
    for seed in range(10):
        q = 2 if seed % 2 == 0 else 3
        f = fields.random_wound_field(seed, q, 4, 1.8)
        cert = f.construction_cert
        assert cert["energy_cross_check"] == "pass", (seed, cert)
        worst_gap = max(worst_gap, cert["energy_rel_gap"])
    energy_ok = worst_gap <= 1e-6

    # single-piece seed: partition of 2 drawn as (2), so the unwound
    # coefficients must round-trip through trace analysis unchanged
    raw = fields.random_wound_pieces(3, 2, 4, 1.8)
    assert len(raw) == 1 and int(raw[0][0]) == 2
    f = fields.random_wound_field(3, 2, 4, 1.8)
    got = weiss2d.analyze_trace(f, n_nodes=512)
    assert len(got) == 1 and got[0].winding == 2
    worst_coeff = 0.0
    by_mode = {l: (a, b) for l, a, b in raw[0][2]}
    for l, a, b in got[0].modes:
        ra, rb = by_mode[l]
        worst_coeff = max(worst_coeff,
                          float(np.max(np.abs(np.asarray(a) - ra))),
                          float(np.max(np.abs(np.asarray(b) - rb))))
    round_trip_ok = worst_coeff <= 1e-10

    piece = weiss2d.FourierPiece(winding=2, a0=(0.0, 0.0),
                                 modes=((3, (0.0, 1.0), (1.0, 0.0)),))
    rebuilt = weiss2d.solve_disk([piece], quad=ACC)
    reference = fields.parse_field_spec("branch:3/2")
    thetas = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    probes = np.array([[r * math.cos(t), r * math.sin(t)]
                       for r in (0.3, 0.7, 1.0) for t in thetas])
    va, vb = rebuilt.values(probes), reference.values(probes)
    worst_dist = max(metric_g(QPoint(va[i]), QPoint(vb[i])) for i in range(len(probes)))
    rebuild_ok = worst_dist <= 1e-8

    ok = energy_ok and round_trip_ok and rebuild_ok
    assert verdict(10, "unwinding consistency", ok,
                   "energy gap=%.1e vs 1e-6; coefficient round trip=%.1e vs 1e-10; "
                   "branch rebuild multiset distance=%.1e vs 1e-8"
                   % (worst_gap, worst_coeff, worst_dist))


def test_c11_singular_set_probe():
    """The branch field's collapse set concentrates at the origin with
    near-zero box dimension; separated sheets yield an empty probe."""
    f = fields.parse_field_spec("branch:3/2")
    res = fields.singular_set_probe(f, fields.ProbeGrid(), 1e-6)
    dists = np.linalg.norm(res.flagged, axis=1) if res.flagged.size else np.array([])
    near_origin = bool(dists.size) and float(dists.max()) <= 1e-2
    dim_ok = res.dimension_estimate is not None and res.dimension_estimate <= 0.2

    sep = fields.parse_field_spec("harmonic:n2m1:x1|x1+5")
    res_sep = fields.singular_set_probe(sep, fields.ProbeGrid(zoom_levels=4), 1e-6)
    empty_ok = res_sep.flagged.shape[0] == 0

    ok = near_origin and dim_ok and empty_ok
    assert verdict(11, "singular-set probe", ok,
                   "flagged max |x|=%.1e (<=1e-2), box dim=%.3f vs 0.2; "
                   "separated sheets flags=%d"
                   % (float(dists.max()) if dists.size else 0.0,
                      res.dimension_estimate if res.dimension_estimate is not None else -1.0,
                      res_sep.flagged.shape[0]))


def test_c12_reproducibility(tmp_path, capsys, monkeypatch):
    """Identical invocations produce byte-identical reports, independent of
    the worker count."""
    FQ = ["--quad-radial", "10", "--quad-angular", "48", "--quad-polar", "12"]
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "fields": ["branch:1/2"], "taus": [1.0, 2.0],
        "cutoffs": [[0.1, 0.2, 0.6, 0.9]],
    }))

    def run_set(tag: str, workers: str):
        monkeypatch.setenv("QVLAB_WORKERS", workers)
        out = {}
        rep = tmp_path / ("rep-%s.json" % tag)
        assert cli.main(["check", "carleman", "--field", "branch:3/2", "--tau", "3",
                         "--chi", "annulus:0.1,0.2,0.6,0.8", "--out", str(rep), *FQ]) == 0
        out["carleman"] = rep.read_text()
        csv = tmp_path / ("freq-%s.csv" % tag)
        assert cli.main(["frequency", "--field", "branch:3/2", "--radii", "0.5,0.25",
                         "--plot-data", str(csv), *FQ]) == 0
        out["freq"] = csv.read_text()
        sw_csv = tmp_path / ("sw-%s.csv" % tag)
        sw_rep = tmp_path / ("swr-%s.json" % tag)
        assert cli.main(["sweep", "--config-sweep", str(sweep_cfg),
                         "--out-csv", str(sw_csv), "--out", str(sw_rep), *FQ]) == 0
        out["sweep_csv"] = sw_csv.read_text()
        out["sweep_rep"] = sw_rep.read_text()
        capsys.readouterr()
        return out

    first = run_set("a", "1")
    second = run_set("b", "1")
    parallel = run_set("c", "3")
    rerun_ok = first == second
    workers_ok = first == parallel
    ok = rerun_ok and workers_ok
    assert verdict(12, "reproducibility", ok,
                   "rerun byte-identical=%s; worker-count independent=%s (4 artifacts)"
                   % (rerun_ok, workers_ok))
