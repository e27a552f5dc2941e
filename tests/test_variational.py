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
    random_wound_field,
    random_wound_pieces,
)
from qvlab import carleman, radial, variational
from qvlab.variational import (
    CACCIOPPOLI_C_MAX,
    QuadratureSpec,
    RadialBump,
    Region,
    RegionBranchError,
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


def test_radii_must_be_finite_and_nonnegative():
    for kind, radii in (("ball", (0.0, math.inf)), ("annulus", (0.5, math.inf)),
                        ("ball", (0.0, math.nan)), ("annulus", (-0.1, 0.5))):
        with pytest.raises(ValueError, match=r"^radii must satisfy 0 <= inner < outer < inf"):
            Region(kind=kind, center=(0.0, 0.0), radii=radii)
    for radii in ((0.1, 0.2, 0.3, math.inf), (0.1, 0.2, math.inf, math.inf),
                  (math.nan, 0.2, 0.3, 0.4), (-math.inf, 0.2, 0.3, 0.4)):
        with pytest.raises(variational.CutoffConstructionError,
                           match=r"^cutoff radii must be finite, got"):
            RadialBump(*radii)
    f = make_branch_field(3, 2)
    for center in ((0.0, 0.0), (0.3, 0.1)):
        for r in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^sphere radius must satisfy 0 <= r < inf"):
                sphere_integral(f, center, r, FAST, variational._mass_density)
        assert sphere_integral(f, center, 0.0, FAST, variational._mass_density) == 0.0


def test_angular_rule_is_built_once_and_read_only():
    for n, quad in ((2, FAST), (3, FAST), (2, QUAD)):
        dirs, w = variational._angular_nodes(n, quad)
        again = variational._angular_nodes(n, dataclasses.replace(quad))
        assert again[0] is dirs and again[1] is w
        assert not dirs.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
    # the planar rule does not depend on polar_nodes, but each key has its own
    assert np.array_equal(variational._angular_nodes(2, FAST)[0],
                          variational._angular_nodes(2, dataclasses.replace(FAST, polar_nodes=3))[0])


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial_order=0)
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


def test_bump_kinds_slope_and_ball_support():
    smooth = RadialBump(0.15, 0.3, 0.6, 0.9)
    linear = RadialBump(0.15, 0.3, 0.6, 0.9, kind="piecewise-linear-annular")
    assert smooth.kind == "smoothed"
    assert smooth.radii == smooth.breakpoints() == (0.15, 0.3, 0.6, 0.9)
    assert smooth.slope_bound == pytest.approx(15.0 / 8.0 / 0.15)
    assert linear.slope_bound == pytest.approx(1.0 / 0.15)
    r = np.linspace(0.0, 1.0, 1001)
    for bump in (smooth, linear):
        assert np.max(np.abs(bump.dchi_r(r))) <= bump.slope_bound * (1.0 + 1e-12)
    np.testing.assert_allclose(linear.chi_r(np.array([0.225, 0.75])), [0.5, 0.5])
    assert smooth.support(2).kind == "annulus"
    ball_bump = RadialBump(0.0, 0.2, 0.6, 0.9)
    assert ball_bump.support(2) == Region(kind="ball", center=(0.0, 0.0), radii=(0.0, 0.9))
    with pytest.raises(variational.CutoffConstructionError):
        RadialBump(0.1, 0.2, 0.6, 0.9, kind="gaussian")


def test_outer_battery_growth_is_twice_the_peak_slope():
    for kind in ("smoothed", "piecewise-linear-annular"):
        bump = RadialBump(0.15, 0.3, 0.6, 0.9, kind=kind)
        for test in outer_battery(bump, 2):
            assert test.growth_linear == 1.0 + 2.0 * bump.slope_bound
    # the quintic constant is bit for bit the former 30/8 over the narrower ramp
    assert outer_battery(BUMP, 2)[0].growth_linear == 1.0 + 30.0 / 8.0 / 0.15


def test_bump_derivative_matches_finite_differences():
    bump = RadialBump(0.15, 0.3, 0.6, 0.9)
    r = np.array([0.18, 0.22, 0.27, 0.45, 0.65, 0.75, 0.85])
    h = 1e-6
    fd = (bump.chi_r(r + h) - bump.chi_r(r - h)) / (2.0 * h)
    np.testing.assert_allclose(bump.dchi_r(r), fd, atol=1e-6)


def test_bump_center_must_match_the_domain_dimension():
    # a centre with another number of coordinates is refused, not moved to
    # the origin; the all-zero default centre serves every dimension
    bump = RadialBump(0.1, 0.2, 0.3, 0.4, center=(0.5, 0.0))
    assert bump.support(2).center == (0.5, 0.0)
    assert bump.chi(np.array([[0.75, 0.0]]))[0] == 1.0
    for call in (lambda: bump.support(3), lambda: bump.chi(np.array([[0.75, 0.0, 0.0]]))):
        with pytest.raises(variational.CutoffConstructionError,
                           match=r"has 2 coordinates but the domain has dimension 3"):
            call()
    assert RadialBump(0.1, 0.2, 0.3, 0.4).support(3).center == (0.0, 0.0, 0.0)


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
    outs = [abs(outer_variation(f, t, quad)) for t in outer_battery(bump, f.m)]
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
    psi = outer_battery(BUMP, 1)[0]
    got = outer_variation(f, psi, FAST)

    def reference(X, r, vals, grads):
        return -2.0 * BUMP.chi(X) * X[:, 0] ** 2

    from qvlab.variational import integrate_region

    expected = integrate_region(f, BUMP.support(2), FAST, reference,
                                breakpoints=BUMP.breakpoints())
    assert got == pytest.approx(expected, rel=1e-8)
    assert abs(got) > 1e-3


def test_growth_certificate_violation_refused():
    # the certificate is proved from A, c and the bump's slope bound, so a
    # declared constant below the proved bound is refused when the test is built
    honest = outer_battery(BUMP, 2)[0]
    with pytest.raises(ValueError, match="growth certificate"):
        dataclasses.replace(honest, growth_du=0.0, label="outer:lying")
    bound = 1.0 + BUMP.slope_bound  # times max(|A|_2, |c|) = 1, as A = I and c = 0
    assert dataclasses.replace(honest, growth_linear=bound).growth_linear == bound
    with pytest.raises(ValueError, match="growth certificate"):
        dataclasses.replace(honest, growth_linear=math.nextafter(bound, 0.0))


def _outer_reference(test, chi, dchi, vals, grads):
    """Per-node outer variation of test, contracted sheet by sheet."""
    du = chi[:, None, None] * test.A[None, :, :]
    total = np.zeros(chi.shape[0])
    for i in range(vals.shape[1]):
        G = grads[:, i, :, :]
        shifted = vals[:, i, :] @ test.A.T + test.c
        dx = shifted[:, :, None] * dchi[:, None, :]
        total += np.einsum("nmk,nmk->n", dx, G)
        total += np.einsum("nab,nbk,nak->n", du, G, G)
    return total


def _inner_reference(test, chi, dchi, X, grads):
    """Per-node inner variation of test from the full gradient array."""
    dphi = chi[:, None, None] * test.J[None, :, :] + \
        np.einsum("nk,nl->nkl", X @ test.J.T + test.c, dchi)
    df_dphi = np.einsum("nqml,nlk->nqmk", grads, dphi)
    stress = 2.0 * np.einsum("nqmk,nqmk->n", grads, df_dphi)
    div = np.einsum("nkk->n", dphi)
    return stress - variational._dirichlet_density(X, None, None, grads) * div


def _random_smooth_field(rng, q, m, n):
    """A hand-built field whose values and gradients are independent smooth
    functions with random coefficients, |.| <= 2: the battery's algebra
    needs no relation between the two."""
    a, b = rng.uniform(-1.5, 1.5, size=(n, q * m)), rng.uniform(-1.5, 1.5, size=q * m)
    c, d = rng.uniform(-1.5, 1.5, size=(n, q * m * n)), rng.uniform(-1.5, 1.5, size=q * m * n)

    def values(X):
        return 2.0 * np.cos(X @ a + b).reshape(-1, q, m)

    def gradients(X):
        return 2.0 * np.sin(X @ c + d).reshape(-1, q, m, n)

    return QField(n=n, m=m, q=q, tag="test:random", values_fn=values, gradients_fn=gradients)


TINY = QuadratureSpec(radial_order=6, angular_nodes=16, polar_nodes=6)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_contracted_entries_match_per_sheet_reference(q, m, n, seed):
    # each entry contracted from the integrated coefficient rows is the
    # integral of its per-sheet, per-test contraction, up to the rounding of
    # a different summation order; and it is linear in the test's data
    rng = np.random.default_rng(seed)
    f = _random_smooth_field(rng, q, m, n)
    (A1, A2), (c1, c2) = rng.uniform(-1.5, 1.5, size=(2, m, m)), rng.uniform(-1.5, 1.5, size=(2, m))
    (J1, J2), (d1, d2) = rng.uniform(-1.5, 1.5, size=(2, n, n)), rng.uniform(-1.5, 1.5, size=(2, n))
    outers = [variational.OuterTestField(BUMP, A, c, math.inf, math.inf, "outer:random")
              for A, c in ((A1, c1), (A2, c2), (A1 + A2, c1 + c2))]
    inners = [variational.InnerVectorField(BUMP, J, c, "inner:random")
              for J, c in ((J1, d1), (J2, d2), (J1 + J2, d1 + d2))]
    got = variational._variations(f, BUMP, TINY, outers, inners)

    def integral(density):
        return integrate_region(f, BUMP.support(n), TINY, density, breakpoints=BUMP.breakpoints())

    def outer_pair(test):
        def density(X, r, vals, grads):
            chi, dchi = BUMP.chi(X), BUMP.grad_chi(X)
            size = (1.0 + np.linalg.norm(X, axis=1)) * (1.0 + np.linalg.norm(dchi, axis=1))
            g2 = np.einsum("nqmk,nqmk->n", grads, grads)
            ug = np.sqrt(np.einsum("nqm,nqm->n", vals, vals) * g2)
            return (_outer_reference(test, chi, dchi, vals, grads),
                    size * (1.0 + np.linalg.norm(test.A) + np.linalg.norm(test.c)) * (g2 + ug))
        return integral(density)

    def inner_pair(test):
        def density(X, r, vals, grads):
            chi, dchi = BUMP.chi(X), BUMP.grad_chi(X)
            size = (1.0 + np.linalg.norm(X, axis=1)) * (1.0 + np.linalg.norm(dchi, axis=1))
            g2 = np.einsum("nqmk,nqmk->n", grads, grads)
            return (_inner_reference(test, chi, dchi, X, grads),
                    size * (1.0 + np.linalg.norm(test.J) + np.linalg.norm(test.c)) * g2)
        return integral(density)

    pairs = [outer_pair(t) for t in outers] + [inner_pair(t) for t in inners]
    for entry, (expected, scale) in zip(got, pairs):
        assert abs(entry - expected) <= 1e-12 * scale
    for first in (0, 3):
        sum_scale = pairs[first][1] + pairs[first + 1][1]
        assert abs(got[first + 2] - got[first] - got[first + 1]) <= 1e-12 * sum_scale


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3)), st.floats(0.0, 3.0))
def test_angular_sphere_moments_match_the_spectrum(seed, q, k):
    # the seam of the two routes, radius by radius: the sphere moments that
    # the angular rule hands an integrand are the spectrum's circle moments
    f = random_wound_field(seed, q, 4, 1.8)
    region = annulus((0.0, 0.0), 0.15, 0.6)
    seen = []

    def capture(r, mass, dirichlet, defect):
        seen.append((r, mass, dirichlet, defect))
        return mass

    variational.moment_integrals(f, region, variational.REFERENCE_QUAD, capture, k)
    spec = radial.spectrum(f, region.center)
    assert seen
    for r, *moments in seen:
        for got, expected in zip(moments, spec.moments(r, k)):
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3)), st.floats(0.0, 3.0))
def test_moment_density_and_spectrum_integrate_alike(seed, q, k):
    # the moment contract: one integrand of (M, D, S) integrates to the same
    # numbers whether its moments come from the field on the angular rule
    # or from the field's spectrum as circle integrals
    f = random_wound_field(seed, q, 4, 1.8)
    region = annulus((0.0, 0.0), 0.15, 0.6)

    def identity(r, mass, dirichlet, defect):
        return mass, dirichlet, defect

    quadrature = variational.moment_integrals(f, region, variational.REFERENCE_QUAD, identity, k)
    closed = radial.integrals(radial.spectrum(f, region.center), region, (), identity, k)
    assert quadrature == pytest.approx(closed, rel=1e-10)


def test_quadrature_route_hands_the_integrand_radii_only():
    # a deterministic count: at radial 8 x angular 32 the integrand runs once
    # per panel on that panel's radial nodes, with no angular factor; the
    # closed form runs it on its own 64-node panels
    f = parse_field_spec("branch:3/2")
    cutoff = carleman.linear_cutoff(0.1, 0.2, 0.4, 0.8)
    region, bps = cutoff.support(2), cutoff.breakpoints()
    sizes = []

    def counted(r, mass, dirichlet, defect):
        sizes.append(r.size)
        return cutoff.chi_r(r) * defect, mass

    variational._two_routes(f, region, bps, counted, 1.5, COARSE)
    panels = variational._radial_panels(0.1, 0.8, bps)
    assert len(panels) == 3
    assert sizes == [COARSE.radial_order] * 3 + [radial.CLOSED_FORM_ORDER] * 3
    assert sum(sizes[:3]) == 24
    # the graded ball on the branch point: radial order times the grading 2
    sizes.clear()
    variational.moment_integrals(f, ball((0.0, 0.0), 0.8), COARSE, counted, 1.5)
    assert sizes == [16]
    # three dimensions: 32 x 32 directions per radius, still radii only
    sizes.clear()
    g = parse_field_spec("harmonic:n3m1:x1*x2|x3")
    variational.moment_integrals(g, annulus((0.0, 0.0, 0.0), 0.1, 0.8), COARSE, counted, 1.0, bps)
    assert sizes == [8] * 3


@pytest.mark.parametrize("spec,region", [
    ("branch:3/2", ball((0.0, 0.0), 0.5)),
    ("branch:3/2", annulus((0.3, 0.1), 0.02, 0.25)),
    ("harmonic:n3m1:x1*x2|x3", annulus((0.0, 0.0, 0.0), 0.1, 0.8)),
])
def test_density_and_moment_routes_are_one_reduction(spec, region):
    # a branch-centred ball (one graded panel), an off-centre annulus
    # (geometric panels, scattered evaluation) and a 3-D annulus: a density
    # without an integrand is reduced as the moment route reduces it under
    # the identity integrand, sphere sums per radius and then the radial
    # rule, bit for bit
    f = parse_field_spec(spec)
    density = variational.moment_density(region.center, 1.5)
    plain = integrate_region(f, region, COARSE, density)
    moments = variational.moment_integrals(f, region, COARSE, lambda r, M, D, S: (M, D, S), 1.5)
    assert plain == moments


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
    # inner:radial on u = x1^2: with T = diag(4 x1^2, 0), the integrand
    # 2 <T, Dphi> - tr T div phi averages to chi'(r) 2 pi r^3 on circles,
    # so the variation is 2 pi int r^4 chi'(r) dr
    from scipy.integrate import quad as scalar_quad

    f = _non_stationary_field()
    bps = list(BUMP.breakpoints())
    radial = 2.0 * math.pi * scalar_quad(lambda r: r ** 4 * BUMP.dchi_r(r), bps[0], bps[-1],
                                         points=bps[1:-1])[0]
    assert inner_variation(f, inner_battery(BUMP, 2)[0], FAST) == pytest.approx(radial, rel=1e-13)
    report = stationarity_battery(f, FAST)
    assert report.quantities["pair_o1_i1"]["inner"] == pytest.approx(radial, rel=1e-13)
    assert report.verdict == "fail"
    assert report.quantities["max_residual"] > report.quantities["threshold"]


def test_battery_reads_cutoff_once_per_panel(monkeypatch):
    # a 3-sheet field: one chi and one grad chi per panel across all seven
    # deformations, with the coarse and mid refinement sweeps included
    f = make_branch_field(2, 3)
    counts = {"chi": 0, "grad_chi": 0, "panels": 0}

    def counted(name):
        method = getattr(RadialBump, name)

        def call(self, X):
            counts[name] += 1
            return method(self, X)
        return call

    for name in ("chi", "grad_chi"):
        monkeypatch.setattr(RadialBump, name, counted(name))
    integrate = variational.integrate_region

    def counting_panels(f, region, quad, density, **kw):
        def panel(X, r, vals, grads):
            counts["panels"] += 1
            return density(X, r, vals, grads)
        return integrate(f, region, quad, panel, **kw)

    monkeypatch.setattr(variational, "integrate_region", counting_panels)
    report = stationarity_battery(f, COARSE)
    assert report.verdict == "pass"
    assert counts["panels"] > 0
    assert counts["chi"] == counts["grad_chi"] == counts["panels"]


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


def test_caccioppoli_on_carleman_cutoffs_matches_radial_closed_form():
    # branch:3/2 has Q = 2 sheets of degree kappa = 3/2, so the sheet sums
    # are |f|^2 = Q r^(2 kappa) and |Df|^2 = 2 Q kappa^2 r^(2 kappa - 2) at
    # every angle; both sides reduce to radial integrals against the cutoff
    from scipy.integrate import quad as scalar_quad

    kappa, q = 1.5, 2
    f = make_branch_field(3, 2)
    for cutoff in (carleman.linear_cutoff(0.1, 0.2, 0.6, 0.9),
                   carleman.smoothed_cutoff(0.05, 0.1, 0.3, 0.45)):
        rep = caccioppoli_check(f, cutoff, FAST)
        a_in, a_lo, a_hi, a_out = cutoff.radii

        def radial(g):
            return 2.0 * math.pi * scalar_quad(lambda r: g(r) * r, a_in, a_out,
                                               points=(a_lo, a_hi))[0]

        lhs = radial(lambda r: cutoff.chi_r(r) ** 2
                     * 2.0 * q * kappa ** 2 * r ** (2.0 * kappa - 2.0))
        rhs = radial(lambda r: cutoff.dchi_r(r) ** 2 * q * r ** (2.0 * kappa))
        assert rep.quantities["lhs"] == pytest.approx(lhs, rel=1e-10)
        assert rep.quantities["rhs"] == pytest.approx(rhs, rel=1e-10)
        assert rep.verdict == "pass", rep.quantities
        assert rep.params["cutoff_radii"] == cutoff.radii


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

    def chi_r(self, r):
        return np.ones(len(r))

    def dchi_r(self, r):
        return np.zeros(len(r))


def test_caccioppoli_degenerate_rhs_fails():
    # the cutoff's chi_r and dchi_r feed both routes: the closed form of the
    # branch field's pieces, and the refined rerun once they are dropped
    f = make_branch_field(1, 2)
    for field, route in ((f, "closed_form"), (dataclasses.replace(f, pieces=None), "refined")):
        report = caccioppoli_check(field, _FlatCutoff(), FAST)
        assert report.verdict == "fail"
        assert report.quantities["lhs"] > 0.0
        assert report.quantities["rhs"] == report.quantities["rhs_" + route] == 0.0


# ---------------------------------------------------------------------------
# block evaluation of radial panels

COARSE = QuadratureSpec(radial_order=8, angular_nodes=32)


def _panel_by_panel(f, region, quad, density, *, need_values=True, need_gradients=True,
                    breakpoints=()):
    """integrate_region on an annulus with one field call per panel, as a
    bit-exact reference; the field is evaluated as integrate_region does it,
    and each entry of a tuple density is summed on its own by
    _radius_by_radius."""
    from qvlab.variational import _angular_nodes, _evaluate, _leggauss, _radial_panels

    inner, outer = region.radii
    assert inner > 0.0, "the reference covers annuli only"
    dirs, wdir = _angular_nodes(f.n, quad)
    center = region.center_array
    xg, wg = _leggauss(quad.radial_order)
    contributions = []
    for a, b in _radial_panels(inner, outer, breakpoints):
        rr = 0.5 * (b - a) * xg + 0.5 * (a + b)
        wr = 0.5 * (b - a) * wg
        X = (center[None, None, :] + rr[:, None, None] * dirs[None, :, :]).reshape(-1, f.n)
        r = np.repeat(rr, dirs.shape[0])
        vals, grads = _evaluate(f, center, X, rr, dirs, need_values, need_gradients)
        dens = density(X, r, vals, grads)
        single = not isinstance(dens, tuple)
        contributions.append([_radius_by_radius(d, wdir, rr, wr, f.n)
                              for d in ((dens,) if single else dens)])
    totals = tuple(tree_sum(col) for col in zip(*contributions))
    return totals[0] if single else totals


def _radius_by_radius(d, wdir, rr, wr, n):
    """The sum of one panel's per-node entry d in integrate_region's order:
    tree_sum over each radius's directions with the angular weights, then
    tree_sum over the radii with the weights wr r^(n-1)."""
    sphere = np.array([tree_sum(row * wdir) for row in d.reshape(rr.size, -1)])
    return tree_sum(sphere * (wr * rr ** (n - 1)))


def _counted_density(density):
    panels = []

    def counted(X, r, vals, grads):
        panels.append(X.shape[0])
        return density(X, r, vals, grads)

    return counted, panels


def _counted_field(f, weight=lambda X: 1):
    """f with its values and gradients calls tallied, each weighted by
    weight(X): 1 counts calls, X.shape[0] points. A polar call counts as a
    values call, a gradients call or both by its need flags, at its nodes."""
    calls = {"values": 0, "gradients": 0}

    def counted(name, fn):
        def call(X):
            calls[name] += weight(X)
            return fn(X)
        return call

    def polar(rr, dirs, need_values, need_gradients):
        X = (rr[:, None, None] * dirs[None]).reshape(-1, f.n)
        for name, needed in (("values", need_values), ("gradients", need_gradients)):
            if needed:
                calls[name] += weight(X)
        return f.polar(rr, dirs, need_values, need_gradients)

    g = dataclasses.replace(f, values_fn=counted("values", f.values_fn),
                            gradients_fn=counted("gradients", f.gradients_fn),
                            polar=None if f.polar is None else polar)
    return g, calls


def _winding3_wound_field():
    pieces = random_wound_pieces(3, 3, 4, 1.8)
    assert [p[0] for p in pieces] == [3]
    return make_wound_field(pieces, tag="wound:3,3,4,1.8")


def test_block_evaluation_matches_panels_on_capped_wound_ball():
    # a ball on the winding-3 branch point is one graded panel; an annulus
    # reaching 2^-30 of the way to it has 30 geometric panels, evaluated in
    # blocks of 20
    f = _winding3_wound_field()
    region = annulus((0.0, 0.0), 0.5 * 0.5 ** 30, 0.5)
    per_panel = COARSE.radial_order * COARSE.angular_nodes
    for density, kw in ((variational._dirichlet_density, {"need_values": False}),
                        (variational._mass_density, {"need_gradients": False})):
        blocked, blocked_panels = _counted_density(density)
        single, single_panels = _counted_density(density)
        g, calls = _counted_field(f)
        got = integrate_region(g, region, COARSE, blocked, **kw)
        expected = _panel_by_panel(f, region, COARSE, single, **kw)
        assert got == expected
        assert blocked_panels == single_panels == [per_panel] * 30
        assert sum(calls.values()) == 2


def test_block_evaluation_keeps_early_stop():
    # named for the early stop it pinned before balls became one graded
    # panel: now every panel gets its density call, also each panel of a
    # partial last block (25 panels of an off-centre annulus, blocks of 20)
    f = parse_field_spec("harmonic:n2m1:x1")
    region = annulus((0.1, -0.2), 0.8 * 0.5 ** 25, 0.8)
    blocked, blocked_panels = _counted_density(variational._dirichlet_density)
    single, single_panels = _counted_density(variational._dirichlet_density)
    g, calls = _counted_field(f)
    got = integrate_region(g, region, COARSE, blocked, need_values=False)
    expected = _panel_by_panel(f, region, COARSE, single, need_values=False)
    assert got == expected
    assert len(blocked_panels) == len(single_panels) == 25
    assert calls == {"values": 0, "gradients": 2}


def test_block_evaluation_keeps_outer_variation_notes(monkeypatch):
    f = make_branch_field(3, 2)
    test = outer_battery(BUMP, 2)[0]
    got = outer_variation(f, test, COARSE)
    monkeypatch.setattr(variational, "integrate_region", _panel_by_panel)
    assert got == outer_variation(f, test, COARSE)


def test_capped_wound_ball_field_call_counts():
    # a ball on the winding-3 branch point is one graded panel of
    # radial_order x 3 (the grading) by angular nodes: one call of 24 x 32
    # points at radial 8 x angular 32, and the 60 x 256 panel of the
    # reference rule in three slices of one 5120-node reference panel
    for quad, count, points in ((COARSE, 1, 24 * 32), (QUAD, 3, 60 * 256)):
        f, calls = _counted_field(_winding3_wound_field())
        dirichlet_energy(f, ball((0.0, 0.0), 1.0), quad)
        assert calls == {"values": 0, "gradients": count}
        f, seen = _counted_field(_winding3_wound_field(), lambda X: X.shape[0])
        dirichlet_energy(f, ball((0.0, 0.0), 1.0), quad)
        assert seen == {"values": 0, "gradients": points}


def test_centred_regions_take_the_polar_grid():
    # one polar call per block on a region or sphere centred at the origin,
    # within roundoff of the scattered path; off-centre ones keep values_fn
    f = _winding3_wound_field()
    seen = []

    def polar(rr, dirs, need_values, need_gradients):
        seen.append((rr.size, dirs.shape[0], need_values, need_gradients))
        return f.polar(rr, dirs, need_values, need_gradients)

    g, bare = dataclasses.replace(f, polar=polar), dataclasses.replace(f, polar=None)
    for region in (ball((0.0, 0.0), 0.7), annulus((0.0, 0.0), 0.2, 0.7)):
        for integral in (l2_mass, dirichlet_energy):
            assert integral(g, region, COARSE) == pytest.approx(integral(bare, region, COARSE),
                                                                rel=1e-13)
    assert seen[:2] == [(24, 32, True, False), (24, 32, False, True)]
    assert sphere_integral(g, (0.0, 0.0), 0.4, COARSE, variational._mass_density) == \
        pytest.approx(sphere_integral(bare, (0.0, 0.0), 0.4, COARSE, variational._mass_density),
                      rel=1e-14)
    assert seen[-1] == (1, 32, True, False)
    calls = len(seen)
    l2_mass(g, annulus((0.8, 0.0), 0.1, 0.3), COARSE)
    sphere_integral(g, (0.8, 0.0), 0.4, COARSE, variational._mass_density)
    assert len(seen) == calls


def test_sliced_graded_panel_is_one_panel_bit_for_bit():
    # the 60 x 256 graded panel of the reference rule is evaluated in three
    # 5120-node slices, yet summed as one panel: the energy is bit for bit
    # one field call over the whole panel, on the integrator's path (the
    # field's polar grid), summed over each radius's directions, then over
    # the 60 radii by one tree_sum
    f = _winding3_wound_field()
    rr, wr = variational._graded_rule(0.7, 3, QUAD)
    dirs, wdir = variational._angular_nodes(2, QUAD)
    X = (rr[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    grads = variational._evaluate(f, np.zeros(2), X, rr, dirs, False, True)[1]
    expected = _radius_by_radius(variational._dirichlet_density(X, None, None, grads),
                                 wdir, rr, wr, 2)
    g, calls = _counted_field(f)
    density, seen = _counted_density(_stacked(variational._mass_density,
                                              variational._dirichlet_density))
    got = integrate_region(g, ball((0.0, 0.0), 0.7), QUAD, density)
    assert got[1] == expected
    assert got[0] == l2_mass(f, ball((0.0, 0.0), 0.7), QUAD)
    assert calls == {"values": 3, "gradients": 3}
    assert seen == [5120] * 3


# ---------------------------------------------------------------------------
# several densities from one panel sweep


def _stacked(*densities):
    def density(X, r, vals, grads):
        return tuple(d(X, r, vals, grads) for d in densities)
    return density


def test_tuple_density_matches_separate_calls_on_annulus():
    f = make_branch_field(3, 2)
    region = annulus((0.0, 0.0), 0.15, 0.9)
    parts = [variational._dirichlet_density, variational._mass_density]
    got = integrate_region(f, region, QUAD, _stacked(*parts), breakpoints=BUMP.breakpoints())
    assert isinstance(got, tuple) and len(got) == len(parts)
    expected = tuple(integrate_region(f, region, QUAD, d, breakpoints=BUMP.breakpoints())
                     for d in parts)
    assert got == expected
    # the one-cutoff sweep of the battery gives the same entries in the same
    # order, and each variation bit for bit as when it is called alone
    outers, inners = outer_battery(BUMP, 2), inner_battery(BUMP, 2)
    shared = variational._variations(f, BUMP, QUAD, outers, inners, parts)
    assert shared == expected + tuple(outer_variation(f, t, QUAD) for t in outers) + \
        tuple(inner_variation(f, t, QUAD) for t in inners)
    pairs = stationarity_battery(f, QUAD, BUMP, refine=False).quantities
    assert [pairs["pair_o%d_i1" % (a + 1)]["outer"] for a in range(3)] == list(shared[2:5])
    assert [pairs["pair_o1_i%d" % (b + 1)]["inner"] for b in range(4)] == list(shared[5:])
    # a single-array density still returns a plain float
    assert type(integrate_region(f, region, QUAD, parts[0])) is float


def test_tuple_density_rows_are_summed_in_groups_bit_for_bit():
    # eleven entries summed in one block: each entry is still its own
    # tree_sum, bit for bit a separate call
    f = make_branch_field(3, 2)
    region = annulus((0.0, 0.0), 0.15, 0.9)
    parts = [lambda X, r, vals, grads, p=p: variational._mass_density(X, r, vals, grads) * r ** p
             for p in range(11)]
    got = integrate_region(f, region, COARSE, _stacked(*parts), need_gradients=False)
    assert got == tuple(integrate_region(f, region, COARSE, d, need_gradients=False)
                        for d in parts)


def test_tuple_density_entries_stop_early_on_their_own():
    # named for the per-entry early stop, now gone: across the 25 panels
    # (two blocks) of a deep annulus each entry keeps its own panel sums,
    # bit for bit a separate call, from one density call per panel
    f = parse_field_spec("harmonic:n2m1:x1")
    region = annulus((0.0, 0.0), 0.8 * 0.5 ** 25, 0.8)
    mass, mass_panels = _counted_density(variational._mass_density)
    energy, energy_panels = _counted_density(variational._dirichlet_density)
    expected = (integrate_region(f, region, COARSE, mass, need_gradients=False),
                integrate_region(f, region, COARSE, energy, need_values=False))
    both, both_panels = _counted_density(_stacked(variational._mass_density,
                                                  variational._dirichlet_density))
    assert integrate_region(f, region, COARSE, both) == expected
    assert len(both_panels) == len(mass_panels) == len(energy_panels) == 25


def test_tuple_density_stopped_entry_ignores_later_panels():
    f = parse_field_spec("harmonic:n2m1:x1")
    region = ball((0.0, 0.0), 0.8)

    def spike(X, r, vals, grads):
        # huge values in one entry stay out of the sums of the others
        return np.where(r < 0.5, 1e20, 0.0)

    alone = integrate_region(f, region, COARSE, spike)
    assert alone > 1e19
    got = integrate_region(f, region, COARSE, _stacked(spike, variational._dirichlet_density))
    assert got == (alone, dirichlet_energy(f, region, COARSE))


def test_tuple_density_matches_separate_calls_on_capped_wound_ball():
    f = _winding3_wound_field()
    region = ball((0.0, 0.0), 0.5)
    energy, energy_panels = _counted_density(variational._dirichlet_density)
    expected = (integrate_region(f, region, COARSE, variational._mass_density,
                                 need_gradients=False),
                integrate_region(f, region, COARSE, energy, need_values=False))
    # the whole ball is one graded panel of 24 x 32 nodes
    assert energy_panels == [24 * COARSE.angular_nodes]
    g, calls = _counted_field(f)
    got = integrate_region(g, region, COARSE, _stacked(variational._mass_density,
                                                       variational._dirichlet_density))
    assert got == expected
    assert calls == {"values": 1, "gradients": 1}


def test_tuple_density_matches_separate_calls_on_sphere():
    f = _winding3_wound_field()
    parts = (variational._mass_density, variational._dirichlet_density)
    got = sphere_integral(f, (0.0, 0.0), 0.3, QUAD, _stacked(*parts), need_gradients=True)
    expected = tuple(sphere_integral(f, (0.0, 0.0), 0.3, QUAD, d, need_gradients=True)
                     for d in parts)
    assert got == expected
    assert type(sphere_integral(f, (0.0, 0.0), 0.3, QUAD, parts[0])) is float


def test_multi_integral_check_field_call_counts():
    """One field evaluation per block for all the integrals of a check.

    At REFERENCE_QUAD every panel is its own block. The Carleman cutoff
    (0.1, 0.2, 0.6, 0.9) and the battery bump both split into 3-4 panels;
    the refined resolution keeps one panel per block, the battery's coarse
    and mid resolutions fit all panels in one block. branch:3/2 is a piece
    field, so its two-sided checks take the closed form as second route and
    evaluate the field at the reference resolution only; the same field
    with its pieces removed takes the refined rerun.
    """
    from qvlab import frequency

    cut = carleman.linear_cutoff(0.1, 0.2, 0.6, 0.9)
    bent = carleman.build_phi_delta(0.1, 0.05, 0.4)
    cases = [
        # lhs, rhs and the variant lhs: 4 panels, reference plus refined
        (lambda f: carleman.carleman_sides(f, carleman.WeightSpec(tau=1.5, eps=0.3), cut), 8, 4),
        (lambda f: carleman.first_carleman_sides(f, 1.5, cut), 8, 4),
        (lambda f: carleman.pre_carleman_sides(f, 1.5, cut), 8, 4),
        # the bend's knots split the cutoff into 7 panels
        (lambda f: carleman.modified_carleman_sides(f, 1.5, bent, cut), 14, 7),
        # 3 panels at reference, one block each at coarse and mid
        (lambda f: stationarity_battery(f), 5, 5),
        (lambda f: caccioppoli_check(f, BUMP), 6, 3),
        (lambda f: frequency.homogeneity_deficit(f, (0.0, 0.0), 0.25, 0.5, 1.5), 1, 1),
    ]
    pieces = parse_field_spec("branch:3/2")
    assert pieces.pieces is not None
    for check, refined, closed in cases:
        for field, count in ((dataclasses.replace(pieces, pieces=None), refined),
                             (pieces, closed)):
            f, calls = _counted_field(field)
            check(f)
            assert calls == {"values": count, "gradients": count}


# ---------------------------------------------------------------------------
# region panels, blocks and requested field data


def test_regions_keep_each_early_stop():
    # named for the per-job early stop, now gone: annuli reaching 2^-30 of
    # the way to the winding-3 branch point, and 2^-25 on a harmonic field,
    # have one geometric panel per halving, evaluated in blocks of at most 20
    per_panel = COARSE.radial_order * COARSE.angular_nodes
    for f, depth in ((_winding3_wound_field(), 30), (parse_field_spec("harmonic:n2m1:x1"), 25)):
        for j, blocks in ((0, 2), (1, 2), (2, 2), (depth - 20, 1)):
            region = annulus((0.0, 0.0), 0.8 * 0.5 ** depth, 0.8 * 0.5 ** j)
            density, panels = _counted_density(variational._mass_density)
            g, calls = _counted_field(f)
            integrate_region(g, region, COARSE, density, need_gradients=False)
            assert panels == [per_panel] * (depth - j)
            assert calls == {"values": blocks, "gradients": 0}


def test_regions_pass_only_the_requested_field_data():
    f = make_branch_field(3, 2)
    seen = []

    def probe(name):
        def density(X, r, vals, grads):
            seen.append((name, vals is None, grads is None))
            total = np.zeros(X.shape[0])
            if vals is not None:
                total += variational._mass_density(X, r, vals, grads)
            if grads is not None:
                total += variational._dirichlet_density(X, r, vals, grads)
            return total
        return density

    def nodes(region, breakpoints):
        # at the reference rule each plain panel is its own block; the graded
        # panel (0, b) on the branch point of grading 2 has twice the radial
        # nodes of a plain one, in two 5120-node slices
        per_panel = QUAD.radial_order * QUAD.angular_nodes
        return sum(per_panel * (2 if a == 0.0 else 1)
                   for a, _ in variational._region_panels(region, breakpoints, True))

    cases = [("values", ball((0.0, 0.0), 0.6), (0.3,), True, False),
             ("grads", annulus((0.0, 0.0), 0.15, 0.6), (), False, True),
             ("both", annulus((0.0, 0.0), 0.3, 0.9), (0.6,), True, True),
             ("neither", ball((0.0, 0.0), 0.3), (), False, False)]
    for name, region, breakpoints, need_values, need_gradients in cases:
        seen[:] = []
        g, points = _counted_field(f, lambda X: X.shape[0])
        integrate_region(g, region, QUAD, probe(name), breakpoints=breakpoints,
                         need_values=need_values, need_gradients=need_gradients)
        assert set(seen) == {(name, not need_values, not need_gradients)}
        assert points == {"values": nodes(region, breakpoints) if need_values else 0,
                          "gradients": nodes(region, breakpoints) if need_gradients else 0}


@pytest.mark.parametrize("quad", [COARSE, QUAD], ids=["coarse", "reference"])
@pytest.mark.parametrize("spec, x", [("wound", (0.0, 0.0)), ("branch:3/2", (0.5, 0.0))],
                         ids=["centred-wound", "off-centre-branch"])
def test_variant_agreement_matches_lone_balls(spec, x, quad):
    # both energies come from one integral over B_2r split at r; each is bit
    # for bit the lone ball B_r and the lone ramp ball, centred on the
    # winding-3 branch point or off the 3/2 one
    from qvlab import frequency

    f = _winding3_wound_field() if spec == "wound" else parse_field_spec(spec)
    r = 0.1

    def ramp(X, rho, vals, grads):
        phi = np.minimum(1.0, np.maximum(0.0, 2.0 - rho / r))
        return phi * variational._dirichlet_density(X, rho, vals, grads)

    def shell(X, rho, vals, grads):
        return variational._mass_density(X, rho, vals, grads) / rho

    rep = frequency.variant_agreement(f, x, r, quad)
    sharp = r * dirichlet_energy(f, ball(x, r), quad) / frequency.height(f, x, r, quad)
    linear = integrate_region(f, ball(x, 2.0 * r), quad, ramp, need_values=False,
                              breakpoints=(r,)) / (
        integrate_region(f, annulus(x, r, 2.0 * r), quad, shell, need_gradients=False) / r)
    assert (rep.quantities["sharp"], rep.quantities["linear"]) == (sharp, linear)


def test_profile_and_variant_share_panels_on_capped_wound_field():
    from qvlab import frequency

    f = _winding3_wound_field()
    per_panel = COARSE.radial_order * COARSE.angular_nodes
    graded = 3 * per_panel
    g, points = _counted_field(f, lambda X: X.shape[0])
    frequency.frequency_profile(g, (0.0, 0.0), (0.4, 0.2, 0.1), COARSE)
    # one graded panel per ball; the heights are 3 circles
    assert points == {"values": 3 * COARSE.angular_nodes, "gradients": 3 * graded}
    g, points = _counted_field(f, lambda X: X.shape[0])
    frequency.variant_agreement(g, (0.0, 0.0), 0.25, COARSE)
    # B_2r split at r is the shell panel (r, 2r) plus the graded panel of
    # B_r, which B_r shares
    assert points == {"values": per_panel + COARSE.angular_nodes,
                      "gradients": per_panel + graded}


def test_wound_ball_cycle_field_points():
    """Deterministic cost of one cycle shaped like the wound-ball benchmark
    on the winding-3 field: four identity checks of 4 nodes, three variant
    pairs, frequency and Weiss profiles at three dyadic radii and the
    vanishing order, at radial 8 x angular 32."""
    from qvlab import frequency, weiss2d

    g, calls = _counted_field(_winding3_wound_field())
    f, points = _counted_field(g, lambda X: X.shape[0])
    for r_lo, r_hi in ((0.1, 0.3), (0.12, 0.4), (0.15, 0.45), (0.2, 0.6)):
        assert frequency.frequency_identity_check(f, (0.0, 0.0), r_lo, r_hi, COARSE,
                                                  nodes=4).verdict == "pass"
    for r in (0.25, 0.125, 0.0625):
        frequency.variant_agreement(f, (0.0, 0.0), r, COARSE)
    radii = (0.4, 0.2, 0.1)
    frequency.frequency_profile(f, (0.0, 0.0), radii, COARSE)
    weiss2d.weiss_profile(f, (0.0, 0.0), 1.0 / 3.0, radii, COARSE)
    frequency.vanishing_order(f, (0.0, 0.0), quad=COARSE)
    assert calls == {"values": 44, "gradients": 28}
    assert points == {"values": 3872, "gradients": 19968}


# ---------------------------------------------------------------------------
# graded ball panels


def _graded_energy_cases():
    """(label, field, closed-form energy on B_R as a function of R): branch
    fields with gcd(k, Q) 1 and above, the winding-3 wound field, a
    superposition and harmonic sheets, from weiss2d's closed form."""
    from qvlab import weiss2d
    from qvlab.fields import FourierPiece, superpose

    def energy(pieces):
        return lambda R: sum(weiss2d.harmonic_extension_energy(p, R) for p in pieces)

    def branch_piece(k, Q, amp=1.0):
        return FourierPiece(Q, (0.0, 0.0), ((k, (0.0, amp), (amp, 0.0)),))

    # x1 + i x2 as a winding-1 piece, and 2 x1 x2 + i (x1^2 - x2^2)
    linear = FourierPiece(1, (0.0, 0.0), ((1, (0.0, 1.0), (1.0, 0.0)),))
    quadratic = FourierPiece(1, (0.0, 0.0), ((2, (1.0, 0.0), (0.0, 1.0)),))
    cases = [("branch:%d/%d" % kq, make_branch_field(*kq, amp=0.8), energy([branch_piece(*kq, 0.8)]))
             for kq in ((1, 2), (3, 2), (5, 3), (2, 4), (4, 6))]
    pieces = [FourierPiece(*p) for p in random_wound_pieces(3, 3, 4, 1.8)]
    cases.append(("wound:3,3,4,1.8", _winding3_wound_field(), energy(pieces)))
    # the two sheets of branch:3/2 sum to zero, so the shift adds Q times its energy
    shifted = superpose(make_branch_field(3, 2), [parse_polynomial("x1", 2),
                                                  parse_polynomial("x2", 2)])
    cases.append(("superpose", shifted, energy([branch_piece(3, 2), linear, linear])))
    pair = parse_field_spec("harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2")
    cases.append(("harmonic", pair, energy([linear, quadratic])))
    return cases


@pytest.mark.parametrize("quad", [QUAD, COARSE], ids=["reference", "coarse"])
def test_graded_ball_energy_matches_closed_form(quad):
    for label, f, closed in _graded_energy_cases():
        for R in (0.45, 1.0):
            got = dirichlet_energy(f, ball((0.0, 0.0), R), quad)
            assert abs(got - closed(R)) <= 1e-13 * closed(R), (label, R)


def test_graded_ball_energy_matches_refined_rule():
    for label, f, _ in _graded_energy_cases():
        for quad in (QUAD, COARSE):
            region = ball((0.0, 0.0), 0.45)
            a = dirichlet_energy(f, region, quad)
            b = dirichlet_energy(f, region, quad.refined())
            assert abs(a - b) <= 1e-13 * abs(b), (label, quad.radial_order)


def test_graded_panel_takes_a_ramp_from_the_center_exactly():
    # the quintic ramp from r = 0 is degree 5 in r, so 10 in u = r^(1/2) on
    # branch:3/2: radial_order x 2 nodes keep the battery's coarse rule exact
    f = make_branch_field(3, 2)
    bump = RadialBump(0.0, 0.2, 0.5, 0.8)
    coarse = QuadratureSpec(radial_order=6, angular_nodes=24, polar_nodes=8)
    for test in outer_battery(bump, 2):
        assert abs(outer_variation(f, test, coarse)) < 1e-12, test.label


@pytest.mark.parametrize("quad, tol", [(QUAD, 1e-14), (COARSE, 1e-6)],
                         ids=["reference", "coarse"])
def test_off_centre_ball_near_a_branch_point(quad, tol):
    # a ball not centred on the branch point keeps the geometric panel
    # (b/2, b) and ends in a plain panel on (0, b/2); against thrice the
    # radial order (same angular rule) its radial error stays at that of
    # the geometric panels, where one plain panel on (0, b) lost two digits
    assert variational._region_panels(ball((0.5, 0.0), 0.45), (), False) == [
        (0.225, 0.45), (0.0, 0.225)]
    fine = dataclasses.replace(quad, radial_order=3 * quad.radial_order)
    for f in (make_branch_field(3, 2), make_branch_field(1, 2), _winding3_wound_field()):
        for center, R in (((0.5, 0.0), 0.45), ((0.0, 0.3), 0.27), ((-0.2, 0.2), 0.25)):
            for integral in (dirichlet_energy, l2_mass):
                got = integral(f, ball(center, R), quad)
                ref = integral(f, ball(center, R), fine)
                assert abs(got - ref) <= tol * ref, (f.tag, center, integral.__name__)


# ---------------------------------------------------------------------------
# three-dimensional cutoffs


def test_three_dimensional_stationarity_and_caccioppoli():
    f = parse_field_spec("harmonic:n3m1:x1")
    bump = variational.DEFAULT_BATTERY_BUMP
    assert bump.center == (0.0, 0.0)
    X = np.array([[0.0, 0.0, 0.45], [0.1, 0.0, 0.0]])
    assert bump.chi(X).tolist() == [1.0, 0.0]
    assert bump.grad_chi(X).shape == (2, 3)
    rep = stationarity_battery(f, QuadratureSpec(radial_order=4, angular_nodes=8, polar_nodes=4))
    assert rep.verdict == "pass", rep.quantities
    rep = caccioppoli_check(f, bump, QuadratureSpec(radial_order=8, angular_nodes=8,
                                                     polar_nodes=4))
    assert rep.verdict == "pass", rep.notes
    # second route: |Df|^2 = 1 and x1^2 averages to r^2 / 3 on spheres
    from scipy.integrate import quad as scalar_quad

    bps = list(bump.breakpoints())
    lhs = 4.0 * math.pi * scalar_quad(lambda r: bump.chi_r(r) ** 2 * r * r,
                                      bps[0], bps[-1], points=bps[1:-1])[0]
    rhs = 4.0 * math.pi / 3.0 * scalar_quad(lambda r: bump.dchi_r(r) ** 2 * r ** 4,
                                            bps[0], bps[-1], points=bps[1:-1])[0]
    assert rep.quantities["lhs"] == pytest.approx(lhs, rel=1e-10)
    assert rep.quantities["rhs"] == pytest.approx(rhs, rel=1e-10)


def test_wound_ball_cycle_field_calls_are_all_traced(monkeypatch):
    """Every field call of the wound-ball-shaped cycle happens inside
    integrate_region or sphere_integral, rebound in every loaded qvlab
    module the way perfbench/tracer.py rebinds them, so a tracer that wraps
    these two sees all of the cycle's field work."""
    import functools
    import sys
    from qvlab import frequency, weiss2d  # noqa: F401  (rebound only once loaded)

    depth = [0]

    def traced(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    for fn in (variational.integrate_region, variational.sphere_integral):
        wrapper = traced(fn)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "qvlab" or name.startswith("qvlab.")):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapper)
    f, outside = _counted_field(_winding3_wound_field(), lambda X: int(depth[0] == 0))
    monkeypatch.setitem(globals(), "_winding3_wound_field", lambda: f)
    test_wound_ball_cycle_field_points()
    assert outside == {"values": 0, "gradients": 0}
