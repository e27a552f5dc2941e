"""Quadrature oracles and first-variation checks.

Closed forms used as frozen oracles: for the k/Q branch field with
amplitude A, the energy on B_R is 2 pi Q (k/Q) A^2 R^{2k/Q}; the squared
mass on an annulus [a, b] is 2 pi Q A^2 (b^{2s+2} - a^{2s+2}) / (2s + 2)
with s = k/Q; on the circle of radius r the squared trace is
2 pi r Q A^2 r^{2s}.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.fields import (
    QField,
    make_branch_field,
    make_harmonic_sheets,
    make_trivial,
    make_wound_field,
    parse_field_spec,
    parse_polynomial,
    random_wound_pieces,
)
from qvlab import variational
from qvlab.variational import (
    CACCIOPPOLI_C_MAX,
    QuadratureSpec,
    RadialBump,
    Region,
    RegionBranchError,
    OuterTestField,
    annulus,
    ball,
    caccioppoli_check,
    dirichlet_energy,
    inner_battery,
    integrate_region,
    inner_variation,
    l2_mass,
    outer_battery,
    outer_variation,
    sphere_integral,
    stationarity_battery,
    tree_sum,
)

QUAD = QuadratureSpec()
FAST = QuadratureSpec(radial_order=12, angular_nodes=64, polar_nodes=16)


def poly_field(*components, n=2):
    return make_harmonic_sheets([[parse_polynomial(c, n) for c in components]])


# ---------------------------------------------------------------------------
# summation and geometry plumbing


def test_tree_sum_basics():
    assert tree_sum([]) == 0.0
    assert tree_sum([3.5]) == 3.5
    assert tree_sum([1.0, 2.0, 3.0]) == 6.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=70))
def test_tree_sum_matches_fsum(xs):
    assert tree_sum(xs) == pytest.approx(math.fsum(xs), rel=1e-12, abs=1e-9)


def test_tree_sum_deterministic_vs_order():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(1000)
    assert tree_sum(v) == tree_sum(v.copy())


def test_region_validation():
    with pytest.raises(ValueError):
        Region(kind="ball", center=(0.0, 0.0), radii=(0.1, 1.0))
    with pytest.raises(ValueError):
        annulus((0.0, 0.0), 0.5, 0.5)
    with pytest.raises(ValueError):
        Region(kind="box", center=(0.0, 0.0), radii=(0.0, 1.0))
    r = ball((0.0, 0.0), 2.0)
    assert r.radii == (0.0, 2.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial_order=0)
    with pytest.raises(ValueError):
        QuadratureSpec(refinement_ratio=1.0)
    q = QuadratureSpec().refined()
    assert q.radial_order == 40 and q.angular_nodes == 512


# ---------------------------------------------------------------------------
# frozen integral oracles


def test_dirichlet_of_linear_sheet_on_disk():
    f = poly_field("1.0*x1", "0.0")
    assert dirichlet_energy(f, ball((0.0, 0.0), 1.0), QUAD) == pytest.approx(math.pi, rel=1e-10)


def test_mass_of_linear_sheet_on_disk():
    f = poly_field("1.0*x1", "0.0")
    assert l2_mass(f, ball((0.0, 0.0), 1.0), QUAD) == pytest.approx(math.pi / 4.0, rel=1e-10)


def test_branch_dirichlet_closed_form():
    for k, Q in ((1, 2), (3, 2), (2, 3), (5, 3)):
        f = make_branch_field(k, Q, amp=0.8)
        s = k / Q
        for R in (0.5, 1.0):
            expected = 2.0 * math.pi * Q * s * 0.64 * R ** (2.0 * s)
            got = dirichlet_energy(f, ball((0.0, 0.0), R), QUAD)
            assert got == pytest.approx(expected, rel=1e-10), (k, Q, R)


def test_branch_mass_on_annulus_closed_form():
    f = make_branch_field(3, 2)
    got = l2_mass(f, annulus((0.0, 0.0), 0.5, 1.0), QUAD)
    assert got == pytest.approx(31.0 * math.pi / 40.0, rel=1e-10)


def test_sphere_integral_branch_trace():
    f = make_branch_field(3, 2)

    def density(X, r, vals, grads):
        return np.einsum("nqm,nqm->n", vals, vals)

    for r in (0.3, 0.7, 1.0):
        got = sphere_integral(f, (0.0, 0.0), r, QUAD, density)
        assert got == pytest.approx(4.0 * math.pi * r ** 4, rel=1e-10)


def test_trivial_field_has_no_energy_or_mass():
    f = make_trivial(3)
    assert dirichlet_energy(f, ball((0.0, 0.0), 1.0), FAST) == 0.0
    assert l2_mass(f, annulus((0.0, 0.0), 0.25, 1.0), FAST) == 0.0


def test_three_dimensional_ball_oracles():
    f = poly_field("1.0*x1", n=3)
    got = dirichlet_energy(f, ball((0.0, 0.0, 0.0), 1.0), FAST)
    assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)

    def density(X, r, vals, grads):
        return np.einsum("nqm,nqm->n", vals, vals)

    got = sphere_integral(f, (0.0, 0.0, 0.0), 1.0, FAST, density)
    assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)


def test_refinement_agreement_through_branch_point():
    f = make_branch_field(1, 2)
    a = dirichlet_energy(f, ball((0.0, 0.0), 1.0), FAST)
    b = dirichlet_energy(f, ball((0.0, 0.0), 1.0), FAST.refined())
    assert a == pytest.approx(2.0 * math.pi, rel=1e-10)
    assert a == pytest.approx(b, rel=1e-12)


def test_off_center_branch_point_rejected():
    f = make_branch_field(3, 2)
    with pytest.raises(RegionBranchError):
        dirichlet_energy(f, annulus((0.5, 0.0), 0.2, 1.0), FAST)
    # centered region and region that keeps the branch point outside are fine
    dirichlet_energy(f, annulus((0.0, 0.0), 0.2, 1.0), FAST)
    dirichlet_energy(f, ball((0.5, 0.0), 0.3), FAST)


def test_domain_radius_guard():
    pieces = ((1, (0.0, 0.0), ((1, (0.0, 1.0), (1.0, 0.0)),)),)
    f = make_wound_field(pieces, tag="wound:test", domain_radius=1.0)
    dirichlet_energy(f, ball((0.0, 0.0), 1.0), FAST)
    with pytest.raises(ValueError):
        dirichlet_energy(f, ball((0.0, 0.0), 1.5), FAST)


# ---------------------------------------------------------------------------
# radial bump


def test_bump_plateau_and_support():
    bump = RadialBump(0.15, 0.3, 0.6, 0.9)
    r = np.array([0.1, 0.15, 0.45, 0.95])
    np.testing.assert_allclose(bump.chi_r(r), [0.0, 0.0, 1.0, 0.0])
    assert bump.chi_r(np.array([0.225]))[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        RadialBump(0.3, 0.15, 0.6, 0.9)


def test_bump_derivative_matches_finite_differences():
    bump = RadialBump(0.15, 0.3, 0.6, 0.9)
    r = np.array([0.18, 0.22, 0.27, 0.45, 0.65, 0.75, 0.85])
    h = 1e-6
    fd = (bump.chi_r(r + h) - bump.chi_r(r - h)) / (2.0 * h)
    np.testing.assert_allclose(bump.dchi_r(r), fd, atol=1e-6)


def test_bump_gradient_is_radial():
    bump = RadialBump(0.15, 0.3, 0.6, 0.9)
    X = np.array([[0.2, 0.1], [0.0, 0.75], [-0.5, 0.5]])
    g = bump.grad_chi(X)
    r = np.linalg.norm(X, axis=1)
    expected = bump.dchi_r(r)[:, None] * X / r[:, None]
    np.testing.assert_allclose(g, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# first variations


BUMP = RadialBump(0.15, 0.3, 0.6, 0.9)


def _max_residual(f, quad=FAST, bump=BUMP):
    outs = [abs(outer_variation(f, t, quad)) for t in outer_battery(bump, f.n, f.m)]
    ins = [abs(inner_variation(f, t, quad)) for t in inner_battery(bump, f.n)]
    return max(outs + ins)


def test_variations_vanish_for_harmonic_pair():
    f = make_harmonic_sheets([
        [parse_polynomial("1.0*x1", 2), parse_polynomial("1.0*x2", 2)],
        [parse_polynomial("1.0*x1^2-1.0*x2^2", 2), parse_polynomial("2.0*x1*x2", 2)],
    ])
    dir_support = dirichlet_energy(f, BUMP.support(2), FAST, breakpoints=BUMP.breakpoints())
    assert _max_residual(f) <= 1e-9 * dir_support


def test_variations_vanish_for_branch_fields():
    for k, Q in ((1, 2), (3, 2), (2, 3)):
        f = make_branch_field(k, Q)
        dir_support = dirichlet_energy(f, BUMP.support(2), FAST, breakpoints=BUMP.breakpoints())
        assert _max_residual(f) <= 1e-8 * dir_support, (k, Q)


def test_variations_vanish_for_wound_composite():
    pieces = (
        (2, (0.0, 0.0), ((1, (0.3, 0.1), (0.5, -0.2)), (3, (0.2, 0.0), (0.0, 0.4)))),
        (1, (0.4, 0.0), ((2, (0.0, 0.3), (0.1, 0.0)),)),
    )
    f = make_wound_field(pieces, tag="wound:composite")
    dir_support = dirichlet_energy(f, BUMP.support(2), FAST, breakpoints=BUMP.breakpoints())
    assert _max_residual(f) <= 1e-8 * dir_support


def _non_stationary_field():
    """Single sheet u = x1^2: not harmonic, so the outer variation against
    chi(x) u equals -2 int chi x1^2 < 0."""

    def values(X):
        return (X[:, 0] ** 2)[:, None, None]

    def gradients(X):
        g = np.zeros((X.shape[0], 1, 1, 2))
        g[:, 0, 0, 0] = 2.0 * X[:, 0]
        return g

    return QField(n=2, m=1, q=1, tag="test:x1sq", values_fn=values, gradients_fn=gradients)


def test_outer_variation_detects_non_harmonic_sheet():
    f = _non_stationary_field()
    psi = outer_battery(BUMP, 2, 1)[0]
    got = outer_variation(f, psi, FAST)

    def reference(X, r, vals, grads):
        return -2.0 * BUMP.chi(X) * X[:, 0] ** 2

    from qvlab.variational import integrate_region

    expected = integrate_region(f, BUMP.support(2), FAST, reference,
                                breakpoints=BUMP.breakpoints())
    assert got == pytest.approx(expected, rel=1e-8)
    assert abs(got) > 1e-3


def test_growth_certificate_violation_reported():
    f = make_branch_field(1, 2)
    honest = outer_battery(BUMP, 2, 2)[0]
    lying = OuterTestField(psi=honest.psi, dpsi_dx=honest.dpsi_dx,
                           dpsi_du=honest.dpsi_du, support=honest.support,
                           growth_du=0.0, growth_linear=honest.growth_linear,
                           label="outer:lying", breakpoints=honest.breakpoints)
    sink = []
    outer_variation(f, lying, FAST, warnings_sink=sink)
    assert sink and "growth certificate" in sink[0]
    sink = []
    outer_variation(f, honest, FAST, warnings_sink=sink)
    assert sink == []


# ---------------------------------------------------------------------------
# stationarity battery and Caccioppoli reports


def test_battery_passes_on_branch_field():
    report = stationarity_battery(make_branch_field(3, 2), FAST)
    assert report.verdict == "pass"
    assert report.quantities["max_residual"] <= report.quantities["threshold"]
    assert len([k for k in report.quantities if k.startswith("pair_")]) == 12


def test_battery_passes_on_trivial_field():
    report = stationarity_battery(make_trivial(2), FAST)
    assert report.verdict == "pass"
    assert report.quantities["max_residual"] == 0.0


def test_battery_fails_on_non_stationary_field():
    report = stationarity_battery(_non_stationary_field(), FAST)
    assert report.verdict == "fail"
    assert report.quantities["max_residual"] > report.quantities["threshold"]


def test_battery_report_serializes():
    report = stationarity_battery(make_branch_field(1, 2), FAST)
    text = report.to_json()
    assert '"stationarity"' in text and '"verdict"' in text


@settings(deadline=None, max_examples=5)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_battery_threshold_scale_invariance(seed):
    # residuals and the threshold both scale with amplitude^2, so the
    # verdict must not depend on overall field amplitude
    rng = np.random.default_rng(seed)
    amp = float(rng.uniform(0.1, 3.0))
    r1 = stationarity_battery(make_branch_field(1, 2, amp=1.0), FAST)
    r2 = stationarity_battery(make_branch_field(1, 2, amp=amp), FAST)
    assert r1.verdict == r2.verdict == "pass"


def test_caccioppoli_branch_field_within_constant():
    report = caccioppoli_check(make_branch_field(3, 2), BUMP, FAST)
    assert report.verdict == "pass"
    assert 0.0 < report.quantities["c_est"] <= CACCIOPPOLI_C_MAX


def test_caccioppoli_trivial_field():
    report = caccioppoli_check(make_trivial(2), BUMP, FAST)
    assert report.verdict == "pass"
    assert report.quantities["c_est"] == 0.0


class _FlatCutoff:
    """Cutoff with zero gradient: makes the right-hand side degenerate."""

    def support(self, n):
        return annulus((0.0,) * n, 0.2, 0.8)

    def breakpoints(self):
        return (0.2, 0.8)

    def chi(self, X, center=None):
        return np.ones(len(X))

    def grad_chi(self, X, center=None):
        return np.zeros_like(np.asarray(X, dtype=float))


def test_caccioppoli_degenerate_rhs_fails():
    report = caccioppoli_check(make_branch_field(1, 2), _FlatCutoff(), FAST)
    assert report.verdict == "fail"
    assert report.quantities["lhs"] > 0.0
    assert report.quantities["rhs"] == 0.0


# ---------------------------------------------------------------------------
# block evaluation of radial panels

COARSE = QuadratureSpec(radial_order=8, angular_nodes=32)


def _panel_by_panel(f, region, quad, density, *, need_values=True, need_gradients=True,
                    breakpoints=(), early_stop=True):
    """integrate_region with one field call per panel, as a bit-exact reference."""
    from qvlab.variational import _angular_nodes, _leggauss, _radial_panels

    inner, outer = region.radii
    dirs, wdir = _angular_nodes(f.n, quad)
    center = region.center_array
    xg, wg = _leggauss(quad.radial_order)
    contributions = []
    running = 0.0
    lull = 0
    for a, b in _radial_panels(inner, outer, quad, breakpoints):
        rr = 0.5 * (b - a) * xg + 0.5 * (a + b)
        wr = 0.5 * (b - a) * wg
        X = (center[None, None, :] + rr[:, None, None] * dirs[None, :, :]).reshape(-1, f.n)
        r = np.repeat(rr, dirs.shape[0])
        w = (wr[:, None] * rr[:, None] ** (f.n - 1) * wdir[None, :]).ravel()
        vals = f.values_fn(X) if need_values else None
        grads = f.gradients_fn(X) if need_gradients else None
        contrib = tree_sum(density(X, r, vals, grads) * w)
        contributions.append(contrib)
        if early_stop and inner == 0.0 and running != 0.0:
            if abs(contrib) <= quad.tail_rel_tol * abs(running):
                lull += 1
                if lull >= 2:
                    running += contrib
                    break
            else:
                lull = 0
        running += contrib
    return tree_sum(contributions)


def _counted_density(density):
    panels = []

    def counted(X, r, vals, grads):
        panels.append(X.shape[0])
        return density(X, r, vals, grads)

    return counted, panels


def _counted_field(f):
    calls = {"values": 0, "gradients": 0}

    def counted(name, fn):
        def call(X):
            calls[name] += 1
            return fn(X)
        return call

    g = dataclasses.replace(f, values_fn=counted("values", f.values_fn),
                            gradients_fn=counted("gradients", f.gradients_fn))
    return g, calls


def _winding3_wound_field():
    pieces = random_wound_pieces(3, 3, 4, 1.8)
    assert [p[0] for p in pieces] == [3]
    return make_wound_field(pieces, tag="wound:3,3,4,1.8")


def test_block_evaluation_matches_panels_on_capped_wound_ball():
    f = _winding3_wound_field()
    region = ball((0.0, 0.0), 0.5)
    # the Dirichlet density shrinks by only 2^(-2/3) per level and hits the
    # subdivision cap; the mass density stops early
    for density, kw, capped in (
            (variational._dirichlet_density, {"need_values": False}, True),
            (variational._mass_density, {"need_gradients": False}, False)):
        blocked, blocked_panels = _counted_density(density)
        single, single_panels = _counted_density(density)
        got = integrate_region(f, region, COARSE, blocked, **kw)
        expected = _panel_by_panel(f, region, COARSE, single, **kw)
        assert got == expected
        assert blocked_panels == single_panels
        assert (len(blocked_panels) == COARSE.max_subdivisions) == capped


def test_block_evaluation_keeps_early_stop():
    f = parse_field_spec("harmonic:n2m1:x1")
    region = ball((0.1, -0.2), 0.8)
    blocked, blocked_panels = _counted_density(variational._dirichlet_density)
    single, single_panels = _counted_density(variational._dirichlet_density)
    got = integrate_region(f, region, COARSE, blocked, need_values=False)
    expected = _panel_by_panel(f, region, COARSE, single, need_values=False)
    assert got == expected
    # the stop fires inside a block, and later panels of it see no density call
    assert len(blocked_panels) == len(single_panels) < COARSE.max_subdivisions
    assert len(blocked_panels) % 20 != 0


def test_block_evaluation_keeps_outer_variation_notes(monkeypatch):
    f = make_branch_field(3, 2)
    honest = outer_battery(BUMP, 2, 2)[0]
    lying = OuterTestField(psi=honest.psi, dpsi_dx=honest.dpsi_dx,
                           dpsi_du=honest.dpsi_du, support=honest.support,
                           growth_du=0.0, growth_linear=honest.growth_linear,
                           label="outer:lying", breakpoints=honest.breakpoints)
    blocked_sink = []
    got = outer_variation(f, lying, COARSE, warnings_sink=blocked_sink)
    monkeypatch.setattr(variational, "integrate_region", _panel_by_panel)
    single_sink = []
    expected = outer_variation(f, lying, COARSE, warnings_sink=single_sink)
    assert got == expected
    assert blocked_sink and blocked_sink == single_sink


def test_capped_wound_ball_field_call_counts():
    f, calls = _counted_field(_winding3_wound_field())
    dirichlet_energy(f, ball((0.0, 0.0), 1.0), COARSE)
    # 64 capped panels of 256 nodes, 20 panels per 5120-node block
    assert calls == {"values": 0, "gradients": 4}
    f, calls = _counted_field(_winding3_wound_field())
    dirichlet_energy(f, ball((0.0, 0.0), 1.0), QUAD)
    assert calls == {"values": 0, "gradients": 64}
