"""Frequency, vanishing order, and homogeneity diagnostics.

Oracles: for the k/Q branch field both frequency normalizations equal
k/Q at every scale; for the sheet (x1, 0) the height is pi r^3, the ball
energy pi r^2, and the frequency is identically 1. The homogeneity deficit
of a kappa-homogeneous field tested against exponent kappa' equals
(kappa - kappa')^2 exactly.
"""

import math

import pytest

from qvlab import carleman, weiss2d
from qvlab.fields import (
    blowup_rescale,
    make_branch_field,
    make_harmonic_sheets,
    make_trivial,
    make_wound_field,
    parse_polynomial,
)
from qvlab.frequency import (
    KappaEstimate,
    ZeroHeightError,
    deficit_profile,
    frequency,
    frequency_identity_check,
    frequency_profile,
    height,
    homogeneity_deficit,
    semicontinuity_probe,
    vanishing_order,
    variant_agreement,
)
from qvlab.variational import QuadratureSpec, RegionBranchError

FAST = QuadratureSpec(radial_order=12, angular_nodes=64, polar_nodes=16)


def linear_sheet():
    return make_harmonic_sheets([[parse_polynomial("1.0*x1", 2), parse_polynomial("0.0", 2)]])


def harmonic_pair():
    return make_harmonic_sheets([[parse_polynomial("1.0*x1", 2), parse_polynomial("1.0*x2", 2)]])


def wound_two_mode():
    pieces = ((2, (0.0, 0.0), ((1, (0.0, 1.0), (1.0, 0.0)), (3, (0.2, 0.0), (0.0, 0.3)))),)
    return make_wound_field(pieces, tag="wound:two-mode")


def test_height_and_frequency_of_linear_sheet():
    f = linear_sheet()
    for r in (0.25, 0.5, 1.0):
        assert height(f, (0.0, 0.0), r, FAST) == pytest.approx(math.pi * r ** 3, rel=1e-10)
        assert frequency(f, (0.0, 0.0), r, FAST) == pytest.approx(1.0, rel=1e-10)


def test_branch_frequency_equals_degree_both_variants():
    for k, Q in ((1, 2), (3, 2), (2, 3), (5, 3)):
        f = make_branch_field(k, Q)
        s = k / Q
        for r in (0.1, 0.4):
            assert frequency(f, (0.0, 0.0), r, FAST, "sharp") == pytest.approx(s, abs=1e-9)
            assert frequency(f, (0.0, 0.0), r, FAST, "linear") == pytest.approx(s, abs=1e-9)


def test_variant_agreement_report():
    report = variant_agreement(make_branch_field(3, 2), (0.0, 0.0), 0.3, FAST)
    assert report.verdict == "pass"
    assert report.quantities["gap"] <= 1e-6


def test_frequency_rejects_zero_field():
    with pytest.raises(ZeroHeightError):
        frequency(make_trivial(2), (0.0, 0.0), 0.5, FAST)


def test_frequency_profile_shape():
    prof = frequency_profile(make_branch_field(1, 2), (0.0, 0.0), (0.4, 0.2, 0.1), FAST)
    assert prof.quantity == "frequency-sharp"
    assert len(prof.rows()) == 3
    for _, v in prof.rows():
        assert v == pytest.approx(0.5, abs=1e-9)


def test_profiles_raise_their_first_error_radius_by_radius():
    """Errors keep the order of one radius at a time.

    The blown-up zero branch field vanishes everywhere and has its branch
    point at distance about 0.224 from the origin. Radius by radius the
    first check to fail is a vanishing height at r = 0.4, before any ball
    or shell that reaches the branch point is looked at.
    """
    zero = blowup_rescale(make_branch_field(3, 2, 0.0), (0.1, 0.05), 0.5, 1.0)
    coarse = QuadratureSpec(radial_order=8, angular_nodes=32)
    for variant, what in (("sharp", "boundary trace"), ("linear", "shell mass")):
        with pytest.raises(ZeroHeightError, match="^%s vanishes at r=0.4$" % what):
            frequency_profile(zero, (0.0, 0.0), (0.4, 0.2, 0.1), coarse, variant)
    with pytest.raises(ZeroHeightError, match="^boundary trace vanishes at r=0.3$"):
        variant_agreement(zero, (0.0, 0.0), 0.3, coarse)
    with pytest.raises(ValueError, match="^variant must be sharp or linear, got 'cubic'$"):
        frequency_profile(zero, (0.0, 0.0), (0.4,), coarse, "cubic")
    assert frequency_profile(zero, (0.0, 0.0), (), coarse, "cubic").values == ()
    # the increasing Weiss profile first meets the branch point in its
    # second ball, the doubling ladder in its first
    branch = blowup_rescale(make_branch_field(3, 2), (0.1, 0.05), 0.5, 1.0)
    with pytest.raises(RegionBranchError, match=r"ball/\(0.0, 0.3\)"):
        weiss2d.weiss_profile(branch, (0.0, 0.0), 1.5, (0.15, 0.3, 0.45), coarse)
    with pytest.raises(RegionBranchError, match=r"ball/\(0.0, 0.25\)"):
        carleman.doubling_check(branch, (0.0, 0.0), 0.25, 1.5, coarse, eta_abs=1.0, levels=4)


def test_vanishing_order_branch():
    est = vanishing_order(make_branch_field(3, 2), (0.0, 0.0), quad=FAST)
    assert isinstance(est, KappaEstimate)
    assert not est.infinite_order
    assert est.kappa == pytest.approx(1.5, abs=1e-6)
    assert est.drift <= 1e-6
    assert est.residual <= 1e-8


def test_vanishing_order_at_nonvanishing_point():
    est = vanishing_order(harmonic_pair(), (0.5, 0.0), r_max=0.1, quad=FAST)
    assert abs(est.kappa) <= 0.05


def test_vanishing_order_zero_field_flags_infinite():
    est = vanishing_order(make_trivial(3), (0.0, 0.0), quad=FAST)
    assert est.infinite_order
    assert est.kappa == math.inf
    assert est.note == "all annular means below mass floor"


def test_vanishing_order_notes_trailing_run_below_floor(monkeypatch):
    # r^2 growth above r = 0.01, then the two innermost means under the floor
    monkeypatch.setattr("qvlab.frequency._annular_mean",
                        lambda f, x, r, quad: r * r if r > 0.01 else 1e-300)
    est = vanishing_order(make_trivial(2), (0.0, 0.0), quad=FAST)
    assert est.infinite_order and est.kappa == math.inf
    assert max(est.window_slopes) < 2.0
    assert est.note == "innermost 2 annular means below mass floor"


def test_vanishing_order_notes_slope_ceiling(monkeypatch):
    # slope 60 in every window, with every mean well above the floor
    monkeypatch.setattr("qvlab.frequency._annular_mean",
                        lambda f, x, r, quad: r ** 120)
    est = vanishing_order(make_trivial(2), (0.0, 0.0), r_max=1.0, n_radii=6, quad=FAST)
    assert est.infinite_order and est.kappa == math.inf
    assert min(est.means) > 1e-200
    assert est.note == "two innermost window slopes 60, 60 above slope ceiling 50"


def test_vanishing_order_needs_enough_radii():
    with pytest.raises(ValueError):
        vanishing_order(make_branch_field(1, 2), (0.0, 0.0), n_radii=3, quad=FAST)


def test_identity_check_branch_and_wound():
    rep = frequency_identity_check(make_branch_field(3, 2), (0.0, 0.0), 0.2, 0.8, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["lhs"] == pytest.approx(3.0 * math.log(4.0), rel=1e-9)
    rep = frequency_identity_check(wound_two_mode(), (0.0, 0.0), 0.2, 0.8, FAST)
    assert rep.verdict == "pass"


def test_identity_check_rejects_zero_height():
    with pytest.raises(ZeroHeightError):
        frequency_identity_check(make_trivial(2), (0.0, 0.0), 0.2, 0.8, FAST)


def test_deficit_exact_for_matching_and_offset_degree():
    f = make_branch_field(3, 2)
    hit = homogeneity_deficit(f, (0.0, 0.0), 0.25, 0.5, 1.5, FAST)
    assert hit <= 1e-12
    off = homogeneity_deficit(f, (0.0, 0.0), 0.25, 0.5, 2.5, FAST)
    assert off == pytest.approx(1.0, rel=1e-10)


def test_deficit_profile_decreases_for_composite():
    f = wound_two_mode()
    prof = deficit_profile(f, (0.0, 0.0), 0.5, r_max=0.5, n_windows=4, quad=FAST)
    values = [v for _, v in prof]
    assert all(a > b for a, b in zip(values[:-1], values[1:]))
    assert values[-1] < 0.1 * values[0]


def test_semicontinuity_branch():
    rep = semicontinuity_probe(make_branch_field(3, 2), (0.0, 0.0), 0.3, FAST)
    assert rep.verdict == "pass"
    assert rep.quantities["kappa_center"] == pytest.approx(1.5, abs=1e-4)
    assert rep.quantities["max_finite_neighbor"] <= 0.05


def test_semicontinuity_window_guard():
    with pytest.raises(ValueError):
        semicontinuity_probe(make_branch_field(1, 2), (0.0, 0.0), 0.3, FAST, r_max=0.5)
