"""Weighted inequality checkers.

Key oracles: Euler's identity Df_i . x = kappa f_i makes the completed
square vanish exactly when eta is tuned to the homogeneity degree; annular
masses of the k/Q branch field are closed-form power laws, so with
tau = kappa + n/2 the three-annulus constant reduces to half the log
weight; the doubling constant of a kappa-homogeneous field is 2^{2 kappa + n}
at every scale.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qvlab.carleman import (
    BentWeightError,
    CutoffConstructionError,
    RadiusHypothesisError,
    WeightSpec,
    build_phi_delta,
    carleman_sides,
    carleman_tau_sweep,
    doubling_check,
    eta_tuned_tau,
    first_carleman_sides,
    linear_cutoff,
    modified_carleman_sides,
    pre_carleman_sides,
    smoothed_cutoff,
    tau_trend_statistic,
    three_sphere_check,
)
from qvlab import fields
from qvlab.fields import (
    QField,
    make_branch_field,
    make_harmonic_sheets,
    make_trivial,
    parse_field_spec,
    parse_polynomial,
    superpose,
)
from qvlab.variational import (
    DEFAULT_BATTERY_BUMP,
    REFERENCE_QUAD,
    QuadratureSpec,
    RadialBump,
    caccioppoli_check,
)

FAST = QuadratureSpec(radial_order=12, angular_nodes=64, polar_nodes=16)
CUT = linear_cutoff(0.1, 0.2, 0.6, 0.9)


def linear_sheet():
    return make_harmonic_sheets([[parse_polynomial("1.0*x1", 2), parse_polynomial("0.0", 2)]])


# ---------------------------------------------------------------------------
# cutoff profiles and weight specs


def test_cutoff_validation_and_plateau():
    with pytest.raises(CutoffConstructionError):
        linear_cutoff(0.0, 0.2, 0.6, 0.9)
    with pytest.raises(CutoffConstructionError):
        RadialBump(0.1, 0.2, 0.6, 0.9, kind="gaussian")
    r = np.array([0.05, 0.15, 0.4, 0.95])
    np.testing.assert_allclose(CUT.chi_r(r), [0.0, 0.5, 1.0, 0.0])
    assert CUT.slope_bound == pytest.approx(1.0 / 0.1)


def test_smoothed_cutoff_matches_linear_at_plateau_and_edges():
    smooth = smoothed_cutoff(0.1, 0.2, 0.6, 0.9)
    r = np.linspace(0.05, 0.95, 181)
    chi = smooth.chi_r(r)
    assert np.all(chi >= 0.0) and np.all(chi <= 1.0)
    assert np.max(np.abs(smooth.dchi_r(r))) <= smooth.slope_bound + 1e-9
    mid = (r > 0.2) & (r < 0.6)
    np.testing.assert_allclose(chi[mid], 1.0)


def test_weight_spec_eta_and_variants():
    w = WeightSpec(tau=2.0, eps=0.5)
    assert w.eta(2) == pytest.approx(2.0)
    assert w.eta(3) == pytest.approx(1.5)
    assert w.mass_exponent() == pytest.approx(2 * 2.0 + 2 - 2 * 0.5)
    assert w.mass_exponent("statement") == pytest.approx(2 * 2.0 + 2 - 0.5)
    w0 = WeightSpec(tau=2.0, eps=0.0)
    assert w0.mass_exponent("proof") == w0.mass_exponent("statement")
    with pytest.raises(ValueError):
        WeightSpec(tau=0.0)
    with pytest.raises(ValueError):
        WeightSpec(tau=1.0, eps=-0.1)
    with pytest.raises(ValueError, match="tau"):
        WeightSpec(tau=math.nan)
    with pytest.raises(ValueError, match="eps"):
        WeightSpec(tau=1.0, eps=math.nan)
    with pytest.raises(ValueError, match="tau and eps must be finite"):
        WeightSpec(tau=math.inf)
    with pytest.raises(ValueError, match="tau and eps must be finite"):
        WeightSpec(tau=1.0, eps=math.inf)
    assert eta_tuned_tau(1.5, 2) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# the weighted two-sided checks


def test_first_carleman_closed_form_vanishes_at_the_tuned_tau():
    # branch:3/2 is 3/2-homogeneous: at eta = 3/2 the spectrum's S holds
    # (s - eta)^2 = 0 for its one mode, so the closed-form left side is an
    # exact zero rather than a cancellation residue
    tau = eta_tuned_tau(1.5, 2)
    rep = first_carleman_sides(make_branch_field(3, 2), tau,
                               smoothed_cutoff(0.1, 0.2, 0.6, 0.8), FAST)
    assert rep.params["second_route"] == "closed-form"
    assert rep.quantities["eta"] == 1.5
    assert rep.quantities["lhs_closed_form"] == 0.0
    assert rep.verdict == "pass"


def test_carleman_trivial_field_both_sides_zero():
    rep = carleman_sides(make_trivial(2), WeightSpec(tau=2.0, eps=0.3), CUT, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["lhs"] == 0.0
    assert rep.quantities["rhs"] == 0.0
    assert rep.quantities["ratio"] == 0.0


def test_first_carleman_eta_tuned_left_side_vanishes():
    # Euler identity: for a kappa-homogeneous field and eta = kappa the
    # square |Df_i . x - eta f_i|^2 is pointwise zero
    cases = [
        (make_branch_field(3, 2), 1.5),
        (make_branch_field(2, 3), 2.0 / 3.0),
        (linear_sheet(), 1.0),
    ]
    for f, kappa in cases:
        tau = eta_tuned_tau(kappa, f.n)
        rep = first_carleman_sides(f, tau, CUT, FAST)
        assert rep.quantities["rhs"] > 0.0
        assert rep.quantities["lhs"] <= 1e-12 * rep.quantities["rhs"]
        assert rep.verdict == "pass"


def test_first_carleman_detuned_left_side_positive():
    f = make_branch_field(3, 2)
    for tau in (1.3, 1.7):
        rep = first_carleman_sides(f, tau, CUT, FAST)
        assert rep.quantities["lhs"] > 1e-4
        assert rep.verdict == "pass"


def test_carleman_sides_logs_both_exponent_variants():
    f = make_branch_field(3, 2)
    rep = carleman_sides(f, WeightSpec(tau=2.0, eps=0.4), CUT, FAST)
    assert rep.verdict == "pass"
    assert math.isfinite(rep.quantities["ratio"])
    assert rep.quantities["mass_exponent"] == pytest.approx(5.2)
    assert rep.quantities["mass_exponent_statement"] == pytest.approx(5.6)
    assert rep.quantities["lhs_statement_variant"] > 0.0
    rep0 = carleman_sides(f, WeightSpec(tau=2.0, eps=0.0), CUT, FAST)
    assert "lhs_statement_variant" not in rep0.quantities


def test_verdicts_stable_under_refinement():
    f = make_branch_field(5, 3)
    for tau in (2.0, 4.0):
        a = first_carleman_sides(f, tau, CUT, FAST)
        b = first_carleman_sides(f, tau, CUT, FAST.refined())
        assert a.verdict == b.verdict == "pass"
        assert a.quantities["ratio"] == pytest.approx(b.quantities["ratio"], rel=1e-6, abs=1e-12)


def test_pre_carleman_branch_field():
    f = make_branch_field(3, 2)
    rep = pre_carleman_sides(f, 3.0, CUT, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["eta"] == pytest.approx(3.0)
    assert rep.quantities["lhs"] <= rep.quantities["ratio"] * rep.quantities["rhs"] + 1e-12


def test_pre_carleman_trivial():
    rep = pre_carleman_sides(make_trivial(3), 1.0, CUT, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["lhs"] == 0.0


def test_cutoff_must_be_centered_at_origin():
    shifted = RadialBump(0.1, 0.2, 0.6, 0.9, center=(0.3, 0.0),
                         kind="piecewise-linear-annular")
    with pytest.raises(ValueError):
        first_carleman_sides(make_branch_field(1, 2), 1.0, shifted, FAST)


def test_weighted_checks_reject_ball_cutoff():
    # the power weights are singular at the origin, so a cutoff whose
    # support reaches it (a_in = 0) is refused by every weighted check
    ball_cut = RadialBump(0.0, 0.2, 0.6, 0.9)
    f = make_branch_field(3, 2)
    bent = build_phi_delta(0.05, 0.01, 0.25)
    checks = (
        lambda: carleman_sides(f, WeightSpec(tau=1.5, eps=0.3), ball_cut, FAST),
        lambda: first_carleman_sides(f, 1.5, ball_cut, FAST),
        lambda: pre_carleman_sides(f, 1.5, ball_cut, FAST),
        lambda: modified_carleman_sides(f, 1.5, bent, ball_cut, FAST),
    )
    for check in checks:
        with pytest.raises(ValueError, match="a_in > 0"):
            check()


# ---------------------------------------------------------------------------
# three-sphere


def test_three_sphere_preconditions_name_failed_ratio():
    f = make_branch_field(1, 2)
    with pytest.raises(RadiusHypothesisError, match="r3/r2"):
        three_sphere_check(f, (0.0, 0.0), 0.02, 0.05, 0.09, 1.0, FAST)
    with pytest.raises(RadiusHypothesisError, match="r2/r1"):
        three_sphere_check(f, (0.0, 0.0), 0.03, 0.05, 0.12, 1.0, FAST)
    with pytest.raises(RadiusHypothesisError):
        three_sphere_check(f, (0.0, 0.0), 0.05, 0.02, 0.12, 1.0, FAST)
    # r1 is checked first, before the ratio r2/r1 divides by it
    for r1 in (0.0, -0.05):
        with pytest.raises(RadiusHypothesisError, match="need r1 > 0"):
            three_sphere_check(f, (0.0, 0.0), r1, 0.15, 0.45, 1.0, FAST)


def test_three_sphere_domain_bound():
    pieces = ((2, (0.0, 0.0), ((3, (0.0, 1.0), (1.0, 0.0)),)),)
    from qvlab.fields import make_wound_field

    f = make_wound_field(pieces, tag="wound:domain", domain_radius=1.0)
    with pytest.raises(RadiusHypothesisError, match="r3"):
        three_sphere_check(f, (0.0, 0.0), 0.05, 0.15, 0.6, 1.0, FAST)
    rep = three_sphere_check(f, (0.0, 0.0), 0.05, 0.15, 0.45, 1.0, FAST)
    assert rep.verdict == "pass"


def test_three_sphere_homogeneous_closed_form():
    # with tau = kappa + n/2 the shell masses scale exactly like r^{2 tau},
    # so C_est collapses to half the log weight
    f = make_branch_field(3, 2)
    r1, r2, r3 = 0.02, 0.05, 0.12
    rep = three_sphere_check(f, (0.0, 0.0), r1, r2, r3, 2.5, FAST)
    weight = 1.0 / (1.0 + math.log(r3 / r2) ** 2) + 1.0 / (1.0 + math.log(r2 / r1) ** 2)
    assert rep.quantities["c_est"] == pytest.approx(weight / 2.0, rel=1e-8)
    assert rep.verdict == "pass"
    assert rep.provenance["case"] in ("rescale-to-r1", "rescale-to-r3")
    kappa = 1.5
    mass_oracle = 4.0 * math.pi * (2.0 ** (2 * kappa + 2) - 1.0) / (2 * kappa + 2) * r2 ** (2 * kappa + 2)
    assert rep.quantities["shell_mass_r2"] == pytest.approx(mass_oracle, rel=1e-10)


def test_three_sphere_trivial():
    rep = three_sphere_check(make_trivial(2), (0.0, 0.0), 0.02, 0.05, 0.12, 1.0, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["lhs"] == 0.0 and rep.quantities["rhs"] == 0.0


def _bump_sheet_field() -> QField:
    """One sheet equal to a radial bump supported in the shell [0.2, 0.4]."""
    bump = RadialBump(0.2, 0.25, 0.35, 0.4)
    return QField(n=2, m=1, q=1, tag="bump-sheet:0.2,0.25,0.35,0.4",
                  values_fn=lambda X: bump.chi(X)[:, None, None],
                  gradients_fn=lambda X: bump.grad_chi(X)[:, None, None, :])


@pytest.mark.parametrize("run, note, infinite", [
    # r^(-64) crowds the weight onto the inner ramp, which 12 x 64 does not
    # resolve; branch:3/2 is a piece field, so its second route is the closed form
    (lambda: carleman_sides(parse_field_spec("branch:3/2"), WeightSpec(tau=32.0),
                            smoothed_cutoff(0.1, 0.2, 0.6, 0.8), FAST),
     "closed-form disagreement above 0.0001 relative", None),
    (lambda: caccioppoli_check(parse_field_spec("harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2"),
                               DEFAULT_BATTERY_BUMP,
                               QuadratureSpec(radial_order=6, angular_nodes=24)),
     "closed-form disagreement above 1e-06 relative", None),
    # the same weight on a field whose sheets do not sum to zero: no pieces,
    # so the refined rerun is the second route
    (lambda: carleman_sides(parse_field_spec("superpose(branch:2/2,n2m2:x1;x2)"),
                            WeightSpec(tau=32.0), smoothed_cutoff(0.1, 0.2, 0.6, 0.8), FAST),
     "two-resolution disagreement above 0.0001 relative", None),
    # the shells about r1 and r3 miss the bump's support, the one about r2 meets it
    (lambda: three_sphere_check(_bump_sheet_field(), (0.0, 0.0), 0.05, 0.15, 0.45, 1.0, FAST),
     "right side vanished while left side is positive", "c_est"),
], ids=["carleman-tau32", "caccioppoli-coarse", "carleman-tau32-refined", "three-sphere-bump"])
def test_two_sided_failure_paths_are_noted(run, note, infinite):
    rep = run()
    assert rep.verdict == "fail"
    assert note in rep.notes
    route = "closed-form" if note.startswith("closed-form") else "refined"
    if note.endswith("relative"):
        assert rep.params["second_route"] == route
    if infinite is not None:
        assert rep.quantities[infinite] == math.inf


@pytest.mark.parametrize("tau, verdict", [(16.0, "pass"), (32.0, "fail")])
def test_both_second_routes_judge_the_crowded_weight_alike(tau, verdict):
    # At 12 x 64 the refined rerun of branch:3/2 is within 1e-8 of the closed
    # form, so both routes see the same error of the reference run: 8.6e-5
    # at tau 16, just inside 1e-4, and 1.2e-2 at tau 32
    f = parse_field_spec("branch:3/2")
    cut = smoothed_cutoff(0.1, 0.2, 0.6, 0.8)
    closed = carleman_sides(f, WeightSpec(tau=tau), cut, FAST)
    refined = carleman_sides(dataclasses.replace(f, pieces=None), WeightSpec(tau=tau), cut, FAST)
    assert closed.params["second_route"] == "closed-form"
    assert refined.params["second_route"] == "refined"
    assert closed.verdict == refined.verdict == verdict
    q, r = closed.quantities, refined.quantities
    assert (q["lhs"], q["rhs"], q["ratio"]) == (r["lhs"], r["rhs"], r["ratio"])
    for side in ("lhs", "rhs"):
        assert q[side + "_closed_form"] == pytest.approx(r[side + "_refined"], rel=1e-8)
    gap = abs(q["lhs"] / q["lhs_closed_form"] - 1.0)
    assert (5e-5 < gap < 1e-4) if verdict == "pass" else gap > 1e-2


PIECE_FIELDS = ["branch:3/2", "harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2",
                "superpose(branch:1/3,n2m2:x1+0.5*x2;x1^2-x2^2)", "wound:0,2,4,1.8"]


def _six_checks(f, center=(0.0, 0.0), quad=REFERENCE_QUAD):
    lin = linear_cutoff(0.1, 0.2, 0.4, 0.8)
    smooth = smoothed_cutoff(0.05, 0.1, 0.3, 0.45)
    return {
        "carleman": lambda: carleman_sides(f, WeightSpec(tau=1.5, eps=0.3), lin, quad),
        "first": lambda: first_carleman_sides(f, 1.25, smooth, quad),
        "pre": lambda: pre_carleman_sides(f, 1.25, lin, quad),
        "modified": lambda: modified_carleman_sides(f, 1.5, build_phi_delta(0.1, 0.05, 0.4),
                                                    smooth, quad),
        "caccioppoli-ball": lambda: caccioppoli_check(f, RadialBump(0.0, 0.2, 0.5, 0.8), quad),
        "three-sphere": lambda: three_sphere_check(f, center, 0.05, 0.11, 0.24, 1.5, quad),
    }


def _recorded_routes(monkeypatch):
    """Swap the helper for a wrapper that records each (ref, second, route)."""
    from qvlab import carleman, variational

    seen = []
    original = variational._two_resolution

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result[:3])
        return result

    monkeypatch.setattr(carleman, "_two_resolution", recording)
    monkeypatch.setattr(variational, "_two_resolution", recording)
    return seen


@pytest.mark.parametrize("spec", PIECE_FIELDS)
def test_closed_form_route_matches_reference_quadrature(spec, monkeypatch):
    seen = _recorded_routes(monkeypatch)
    f = parse_field_spec(spec)
    for name, check in _six_checks(f).items():
        rep = check()
        assert rep.verdict == "pass" and rep.params["second_route"] == "closed-form", name
        (ref, exact, route), = seen
        seen.clear()
        assert route == "closed-form"
        scale = max(abs(v) for v in ref + exact)
        for a, b in zip(ref, exact):
            # the tuned first-carleman left side is roundoff of its right side
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)) + 1e-14 * scale, name
    rep = carleman_sides(f, WeightSpec(tau=2.0), linear_cutoff(0.1, 0.2, 0.4, 0.8))
    assert set(rep.quantities) >= {"lhs_closed_form", "rhs_closed_form"}
    assert not any(key.endswith("_refined") for key in rep.quantities)


@pytest.mark.parametrize("make, center, names", [
    (lambda: parse_field_spec("superpose(branch:2/2,n2m2:x1;x2)"), (0.0, 0.0), None),
    (lambda: parse_field_spec("harmonic:n3m1:x1*x2|x3"), (0.0, 0.0, 0.0), ("caccioppoli-ball",)),
    (lambda: fields.blowup_rescale(make_branch_field(3, 2), (0.0, 0.0), 0.5, 1.0),
     (0.0, 0.0), None),
    (lambda: parse_field_spec("harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2"), (0.3, 0.2),
     ("three-sphere",)),
], ids=["superpose-nonzero-sum", "three-dimensional", "blowup", "off-centre-three-sphere"])
def test_fields_without_a_spectrum_keep_the_refined_rerun(make, center, names, monkeypatch):
    seen = _recorded_routes(monkeypatch)
    checks = _six_checks(make(), center, FAST)
    for name in names or checks:
        rep = checks[name]()
        assert rep.params["second_route"] == "refined", name
        assert [route for _, _, route in seen] == ["refined"]
        seen.clear()
        if "lhs" in rep.quantities and name not in ("modified", "three-sphere"):
            assert "lhs_refined" in rep.quantities and "lhs_closed_form" not in rep.quantities


def test_three_sphere_case_split_recorded():
    f = make_branch_field(1, 2)
    near_r1 = three_sphere_check(f, (0.0, 0.0), 0.02, 0.05, 0.3, 1.0, FAST)
    assert near_r1.provenance["case"] == "rescale-to-r1"
    assert near_r1.quantities["eps_recipe"] == pytest.approx(
        1.0 / math.sqrt(1.0 + math.log(2.5) ** 2))
    near_r3 = three_sphere_check(f, (0.0, 0.0), 0.01, 0.06, 0.15, 1.0, FAST)
    assert near_r3.provenance["case"] == "rescale-to-r3"


# ---------------------------------------------------------------------------
# doubling


def test_doubling_homogeneous_matches_oracle():
    f = make_branch_field(3, 2)
    rep = doubling_check(f, (0.0, 0.0), 0.25, 1.5, FAST)
    assert rep.verdict == "pass"
    for c in rep.quantities["c_est"]:
        assert c == pytest.approx(32.0, rel=1e-9)
    assert rep.quantities["expected_homogeneous"] == pytest.approx(32.0)
    assert rep.quantities["absorption_value"] < 0.5


@pytest.mark.parametrize("eta_abs", [0.0, -0.1, math.nan, math.inf])
def test_doubling_rejects_nonpositive_eta_abs(eta_abs):
    with pytest.raises(ValueError, match="eta_abs must be positive"):
        doubling_check(make_branch_field(3, 2), (0.0, 0.0), 0.25, 1.5, FAST, eta_abs=eta_abs)


@pytest.mark.parametrize("r,levels,message", [
    (0.25, 0, "levels must be at least 1"),
    (-0.25, 3, "r must be positive"),
    (0.0, 3, "r must be positive"),
    (math.nan, 3, "r must be positive"),
])
def test_doubling_rejects_degenerate_scales(r, levels, message):
    # levels = 0 used to pass with no scales; r < 0 raised TypeError from a
    # complex power
    with pytest.raises(ValueError, match=message):
        doubling_check(make_branch_field(3, 2), (0.0, 0.0), r, 1.5, FAST, levels=levels)


def test_doubling_unmet_absorption_is_noted_and_not_passed():
    # eps^(2 eta_abs) < 1/2 needs about 500 halvings of 1/4 at eta_abs = 1e-3,
    # past the guard; the ratios of the linear field are still the homogeneous
    # 2^4 down there, so only the unmet criterion can fail the report
    f = make_harmonic_sheets([[parse_polynomial("x1", 2)]])
    rep = doubling_check(f, (0.0, 0.0), 0.25, 1.0, FAST, eta_abs=1e-3)
    assert rep.quantities["absorption_value"] >= 0.5
    assert rep.quantities["absorption_scale"] == 0.25 * 0.5 ** 200
    assert rep.quantities["c_est"] == pytest.approx([16.0] * 3, rel=1e-9)
    assert rep.quantities["drift"] <= 0.25
    assert rep.verdict == "fail"
    assert rep.notes == ("absorption criterion eps^(2 eta_abs) < 1/2 not met after 200 "
                         "halvings (value %r); the scales are not in the absorbed regime"
                         % rep.quantities["absorption_value"],)


def test_doubling_trivial_is_diagnostic():
    rep = doubling_check(make_trivial(2), (0.0, 0.0), 0.25, 0.0, FAST)
    assert rep.verdict == "diagnostic"
    assert "trivial" in rep.notes[0]


def test_doubling_perturbed_approaches_homogeneous_limit():
    base = make_branch_field(3, 2)
    bump = [parse_polynomial("0.2*x1^4-1.2*x1^2*x2^2+0.2*x2^4", 2),
            parse_polynomial("0.0", 2)]
    f = superpose(base, bump)
    rep = doubling_check(f, (0.0, 0.0), 0.25, 1.5, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["c_est_final"] == pytest.approx(32.0, rel=1e-3)


# ---------------------------------------------------------------------------
# bent weight


def test_build_phi_delta_validations():
    with pytest.raises(BentWeightError):
        build_phi_delta(0.05, 0.1, 0.3)  # r2 <= 4 r1
    with pytest.raises(BentWeightError):
        build_phi_delta(-0.01, 0.01, 0.25)
    with pytest.raises(BentWeightError):
        build_phi_delta(0.05, 0.1, 0.6)  # r2 > 1/2


def test_phi_delta_zero_is_identity():
    bent = build_phi_delta(0.0, 0.01, 0.25)
    t = np.linspace(-6.0, -1.0, 50)
    np.testing.assert_allclose(bent.phi(t), t)
    assert bent.sup_dphi_minus_1 == 0.0
    assert bent.sup_d2phi == 0.0


def test_phi_delta_sups_scale_linearly():
    deltas = [0.01, 0.02, 0.05]
    slopes = []
    for d in deltas:
        bent = build_phi_delta(d, 0.01, 0.25)
        slopes.append((bent.sup_dphi_minus_1 + bent.sup_d2phi) / d)
    for s in slopes[1:]:
        assert s == pytest.approx(slopes[0], rel=1e-9)


def test_phi_delta_bend_geometry():
    # weight exponent dips below the identity on the middle window (so the
    # weight is amplified there) and rises above it on the two end windows
    delta, r1, r2 = 0.05, 0.01, 0.25
    bent = build_phi_delta(delta, r1, r2)
    tm = math.log(math.sqrt(r1 * r2))
    assert bent.phi(np.array([tm]))[0] == pytest.approx((1 + 2 * delta) * tm)
    assert bent.phi(np.array([tm]))[0] < tm
    for t in (math.log(r1), math.log(2 * r1), math.log(r2), math.log(2 * r2)):
        assert bent.phi(np.array([t]))[0] == pytest.approx((1 - delta) * t)
        assert bent.phi(np.array([t]))[0] > t


def test_modified_carleman_delta_zero_reduces_to_first():
    f = make_branch_field(3, 2)
    cut = linear_cutoff(0.1, 0.2, 0.6, 0.9)
    tau = 2.0
    bent = build_phi_delta(0.0, 0.01, 0.25)
    modified = modified_carleman_sides(f, tau, bent, cut, FAST)
    first = first_carleman_sides(f, tau, cut, FAST)
    assert modified.quantities["lhs"] == pytest.approx(first.quantities["lhs"], rel=1e-10, abs=1e-14)
    assert modified.quantities["rhs"] == pytest.approx(first.quantities["rhs"], rel=1e-10)
    assert modified.quantities["bulk_coefficient"] == 0.0


def test_modified_carleman_trivial():
    bent = build_phi_delta(0.05, 0.01, 0.25)
    rep = modified_carleman_sides(make_trivial(2), 1.5, bent, CUT, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["lhs"] == 0.0


def test_modified_carleman_branch_bounded():
    f = make_branch_field(3, 2)
    bent = build_phi_delta(0.05, 0.01, 0.25)
    rep = modified_carleman_sides(f, 1.5, bent, CUT, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["lhs"] <= rep.quantities["rhs"] * max(1.0, rep.quantities["ratio"]) + 1e-12
    assert rep.quantities["rhs_bulk_integral"] > 0.0


# ---------------------------------------------------------------------------
# sweep helper


def test_sweep_rows_and_trend_statistic():
    f = make_branch_field(1, 2)
    rows = carleman_tau_sweep(f, (1.0, 2.0), [CUT], FAST)
    assert len(rows) == 2
    for row in rows:
        assert row["field"] == f.tag
        assert math.isfinite(row["ratio"])
        assert row["verdict"] == "pass"
    up = [{"tau": t, "ratio": r} for t, r in ((1, 0.1), (2, 0.2), (5, 0.3))]
    down = [{"tau": t, "ratio": r} for t, r in ((1, 0.3), (2, 0.2), (5, 0.1))]
    assert tau_trend_statistic(up) == pytest.approx(1.0)
    assert tau_trend_statistic(down) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        tau_trend_statistic([{"tau": 1.0, "ratio": 0.5}])


def _trend_cases():
    rng = np.random.default_rng(20)
    for n in (2, 3, 5, 8, 13, 21):
        taus = rng.uniform(0.5, 4.0, size=n)
        tied_taus = np.round(taus)
        tied_taus[:2] = (0.5, 4.0)
        ratios = rng.normal(size=n)
        yield taus, ratios
        yield tied_taus, np.round(ratios, 1)
        yield taus, np.full(n, 0.25)
        with_nan = ratios.copy()
        with_nan[n // 2] = np.nan
        yield taus, with_nan
        with_inf = np.round(ratios)
        with_inf[0], with_inf[-1] = np.inf, -np.inf
        yield tied_taus, with_inf


def test_tau_trend_statistic_matches_scipy_spearman_bitwise():
    """The numpy rank correlation is the same double as scipy's spearmanr,
    nan included, on ties, constant ratios, nan and infinite ratios."""
    from scipy import stats

    seen_nan = 0
    for taus, ratios in _trend_cases():
        rows = [{"tau": float(t), "ratio": float(r)} for t, r in zip(taus, ratios)]
        ours = tau_trend_statistic(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = float(stats.spearmanr(taus.tolist(), ratios.tolist()).statistic)
        if math.isnan(ref):
            seen_nan += 1
            assert math.isnan(ours), (taus, ratios, ours)
        else:
            assert ours.hex() == ref.hex(), (taus, ratios, ours, ref)
    assert seen_nan >= 12
