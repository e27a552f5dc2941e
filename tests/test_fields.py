import math

import numpy as np
import pytest

from qvlab import fields, qcore
from qvlab.fields import (
    HarmonicityError,
    FieldSpecError,
    Polynomial,
    ProbeGrid,
    make_branch_field,
    make_harmonic_sheets,
    make_trivial,
    parse_field_spec,
    parse_polynomial,
    format_polynomial,
)


def poly(text, n=2):
    return parse_polynomial(text, n)


class TestPolynomials:
    def test_value_and_gradient(self):
        p = poly("x1^2-x2^2")
        X = np.array([[1.0, 2.0], [0.5, -0.5]])
        assert np.allclose(p.value(X), [-3.0, 0.0])
        assert np.allclose(p.partial(0).value(X), [2.0, 1.0])
        assert np.allclose(p.partial(1).value(X), [-4.0, 1.0])

    def test_laplacian_of_harmonic_is_zero(self):
        assert poly("x1^2-x2^2").laplacian().is_zero()
        assert poly("2.0*x1*x2").laplacian().is_zero()
        assert poly("x1^3-3.0*x1*x2^2").laplacian().is_zero()

    def test_laplacian_nonzero(self):
        lap = poly("x1^2+x2^2").laplacian()
        assert not lap.is_zero()
        assert lap.terms == (((0, 0), 4.0),)

    def test_format_parse_round_trip(self):
        for text in ["1.0*x1^2-1.0*x2^2", "0.5*x1*x2+2.0", "0.0", "-3.25*x1"]:
            p = parse_polynomial(text, 2)
            again = parse_polynomial(format_polynomial(p), 2)
            assert again == p

    def test_scientific_notation_coefficients(self):
        p = parse_polynomial("1e-05*x1", 2)
        assert p.terms == (((1, 0), 1e-05),)
        assert parse_polynomial(format_polynomial(p), 2) == p

    def test_bad_variable_rejected(self):
        with pytest.raises(FieldSpecError):
            parse_polynomial("x3", 2)


class TestTrivialAndHarmonic:
    def test_trivial_field(self):
        f = make_trivial(2)
        X = np.array([[0.3, 0.4]])
        assert np.all(f.values(X) == 0.0)
        assert np.all(f.gradients(X) == 0.0)
        assert f.q == 2 and f.branch_set == ()

    def test_single_sheet_coordinate(self):
        f = make_harmonic_sheets([[poly("x1")]])
        X = np.array([[0.7, -0.2]])
        assert f.values(X)[0, 0, 0] == pytest.approx(0.7)
        assert np.allclose(f.gradients(X)[0, 0, 0], [1.0, 0.0])

    def test_two_zero_sheets(self):
        f = make_harmonic_sheets([[poly("0.0")], [poly("0.0")]])
        X = np.array([[0.1, 0.2], [0.5, 0.5]])
        assert np.all(f.values(X) == 0.0)

    def test_opposite_sheets_diameter(self):
        f = make_harmonic_sheets([[poly("x1")], [poly("-1.0*x1")]])
        t = 0.37
        d = fields.values_diameter(f.values(np.array([[t, 0.0]])))
        assert d[0] == pytest.approx(2.0 * t, rel=1e-14)

    def test_non_harmonic_rejected_with_coefficient(self):
        with pytest.raises(HarmonicityError) as err:
            make_harmonic_sheets([[poly("x1^2+x2^2")]])
        assert "4.0" in str(err.value)


class TestBranchField:
    def test_single_valued_case(self):
        f = make_branch_field(1, 1, amp=2.0)
        X = np.array([[0.3, 0.4]])
        v = f.values(X)[0, 0]
        # amp * z in polar: amp*r*(cos, sin)
        assert np.allclose(v, [0.6, 0.8])
        g = f.gradients(X)[0, 0]
        # gradient of amp*(x, y): amp * identity, a rotation-free scaling
        assert np.allclose(g, [[2.0, 0.0], [0.0, 2.0]], atol=1e-14)

    def test_three_halves_at_one(self):
        amp = 1.3
        f = make_branch_field(3, 2, amp=amp)
        p = f.eval(np.array([1.0, 0.0]))
        expected = qcore.QPoint(np.array([[amp, 0.0], [-amp, 0.0]]))
        assert qcore.multiset_equal(p, expected)
        sd = qcore.separation_and_diameter(p)
        assert sd.diam == pytest.approx(2.0 * amp, rel=1e-14)

    def test_homogeneity(self):
        f = make_branch_field(3, 2)
        alpha = 1.5
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 1.0, size=(50, 2))
        X = X[np.hypot(X[:, 0], X[:, 1]) > 0.1]
        for lam in (0.5, 2.0):
            a = f.values(lam * X)
            b = lam ** alpha * f.values(X)
            for t in range(a.shape[0]):
                assert qcore.multiset_equal(
                    qcore.QPoint(a[t]), qcore.QPoint(b[t]),
                    tol=1e-12 * (1.0 + np.abs(b[t]).max()),
                )

    def test_gcd_two_copies(self):
        # with k = Q = 2 every sheet duplicates the single-valued cover
        f = make_branch_field(2, 2)
        X = np.array([[0.5, 0.25]])
        v = f.values(X)[0]
        assert np.allclose(v[0], v[1], atol=1e-15)

    def test_parameter_errors(self):
        with pytest.raises(FieldSpecError):
            make_branch_field(0, 2)
        with pytest.raises(FieldSpecError):
            make_branch_field(3, 0)

    def test_dirichlet_density_closed_form(self):
        # |Df|^2 summed over sheets equals 2 Q amp^2 alpha^2 r^(2 alpha - 2)
        k, Q, amp = 3, 2, 0.7
        alpha = k / Q
        f = make_branch_field(k, Q, amp=amp)
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(40, 2))
        r = np.hypot(X[:, 0], X[:, 1])
        keep = r > 0.05
        X, r = X[keep], r[keep]
        g = f.gradients(X)
        density = np.einsum("nqmk,nqmk->n", g, g)
        expected = 2.0 * Q * amp ** 2 * alpha ** 2 * r ** (2 * alpha - 2)
        assert np.allclose(density, expected, rtol=1e-12)


class TestJetConsistency:
    @pytest.mark.parametrize("spec", [
        "branch:3/2",
        "branch:2/3",
        "branch:5/3",
        "harmonic:n2m1:1.0*x1^2-1.0*x2^2|2.0*x1*x2",
        "superpose(branch:3/2,n2m2:0.1*x1*x2;0.05*x1^2-0.05*x2^2)",
    ])
    def test_fd_gradient_order(self, spec):
        f = parse_field_spec(spec)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-0.9, 0.9, size=(1000, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.2][:200]
        errors = []
        for h in (1e-3, 5e-4):
            worst = 0.0
            vals = f.values(pts)
            grads = f.gradients(pts)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                vp = f.values(pts + e)
                vm = f.values(pts - e)
                for t in range(pts.shape[0]):
                    plus = qcore.optimal_matching(
                        qcore.QPoint(vals[t]), qcore.QPoint(vp[t])).permutation
                    minus = qcore.optimal_matching(
                        qcore.QPoint(vals[t]), qcore.QPoint(vm[t])).permutation
                    fd = (vp[t][list(plus)] - vm[t][list(minus)]) / (2 * h)
                    worst = max(worst, np.abs(fd - grads[t][:, :, axis]).max())
            errors.append(worst)
        order = math.log(errors[0] / errors[1]) / math.log(2.0)
        assert order >= 1.9 or errors[0] < 1e-11

    def test_jet_values_match_eval(self):
        f = make_branch_field(3, 2)
        x = np.array([0.3, -0.4])
        jet = f.jet(x)
        assert qcore.multiset_equal(qcore.QPoint(jet.values), f.eval(x))


def _reference_wound_arrays(pieces, m, X):
    """The original sheet-by-sheet wound kernel, kept as a bit-exact reference."""
    q_total = sum(int(p[0]) for p in pieces)
    N = X.shape[0]
    r = np.hypot(X[:, 0], X[:, 1])
    theta = np.arctan2(X[:, 1], X[:, 0])
    values = np.zeros((N, q_total, m))
    grads = np.zeros((N, q_total, m, 2))
    at_zero = r == 0.0
    safe_r = np.where(at_zero, 1.0, r)
    er = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    et = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    col = 0
    for winding, a0, modes in pieces:
        winding = int(winding)
        a0 = np.asarray(a0, dtype=float)
        for i in range(winding):
            values[:, col, :] += 0.5 * a0[None, :]
            for l, a, b in modes:
                s = l / winding
                phase = s * theta + (2.0 * math.pi * l * i) / winding
                sin_p, cos_p = np.sin(phase), np.cos(phase)
                rs = r ** s
                amp = np.outer(sin_p, a) + np.outer(cos_p, b)
                values[:, col, :] += rs[:, None] * amp
                rs1 = np.where(at_zero, 0.0, safe_r ** (s - 1.0))
                radial = s * rs1[:, None] * amp
                angular = s * rs1[:, None] * (np.outer(cos_p, a) - np.outer(sin_p, b))
                grads[:, col, :, :] += (
                    radial[:, :, None] * er[:, None, :]
                    + angular[:, :, None] * et[:, None, :]
                )
            col += 1
    return values, grads


def _bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestWoundKernel:
    """The vectorized wound kernel reproduces the sheet-by-sheet one bit for bit."""

    @staticmethod
    def points():
        rng = np.random.default_rng(5)
        special = np.array([
            [0.0, 0.0], [-0.0, -0.0],             # the puncture
            [-0.5, 0.0], [-0.5, -0.0], [-1e-300, 0.0],  # the arctan2 cut
            [0.7, 0.0], [0.0, -0.3], [1e-300, 0.0],
        ])
        return np.vstack([special, rng.uniform(-1.5, 1.5, size=(600, 2))])

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5])
    def test_matches_sheet_by_sheet_reference(self, Q):
        X = self.points()
        pieces_seen = set()
        for seed in range(6):
            pieces = fields.random_wound_pieces(seed, Q, 4, 1.8)
            pieces_seen.add(len(pieces))
            shifted = tuple((w, np.array([0.3, -1.1]) * (seed + 1), modes)
                            for w, _, modes in pieces)
            for case in (pieces, shifted):
                q_total, values_fn, gradients_fn = fields._wound_closures(case, 2)
                values, grads = _reference_wound_arrays(case, 2, X)
                assert q_total == Q
                assert _bit_equal(values_fn(X), values)
                assert _bit_equal(gradients_fn(X), grads)
        if Q >= 2:
            assert max(pieces_seen) > 1  # multi-piece partitions are covered

    def test_branch_field_matches_reference(self):
        X = self.points()
        f = make_branch_field(5, 3, 0.7)
        piece = (3, np.zeros(2), ((5, np.array([0.0, 0.7]), np.array([0.7, 0.0])),))
        values, grads = _reference_wound_arrays((piece,), 2, X)
        assert _bit_equal(f.values(X), values)
        assert _bit_equal(f.gradients(X), grads)


class TestSuperpose:
    def test_zero_shift_identity(self):
        f = make_branch_field(3, 2)
        g = fields.superpose(f, [poly("0.0"), poly("0.0")])
        X = np.array([[0.2, 0.6], [-0.4, 0.1]])
        assert np.allclose(f.values(X), g.values(X))

    def test_shift_of_trivial(self):
        f = make_trivial(2)
        g = fields.superpose(f, [poly("x1"), poly("x2")])
        X = np.array([[0.25, -0.75]])
        v = g.values(X)
        assert np.allclose(v[0, 0], [0.25, -0.75])
        assert np.allclose(v[0, 1], [0.25, -0.75])

    def test_constant_shift_preserves_diameter(self):
        f = make_branch_field(3, 2)
        g = fields.superpose(f, [poly("0.7"), poly("-0.3")])
        X = np.random.default_rng(3).uniform(-1, 1, size=(30, 2))
        assert np.allclose(fields.values_diameter(f.values(X)),
                           fields.values_diameter(g.values(X)), atol=1e-14)

    def test_dimension_mismatch(self):
        f = make_branch_field(3, 2)
        with pytest.raises(FieldSpecError):
            fields.superpose(f, [poly("x1")])


class TestBlowup:
    def test_homogeneous_fixed_point(self):
        f = make_branch_field(3, 2)
        # mass of r^(2 alpha) over B_rho: 2 pi Q rho^(2a+2)/(2a+2), with Q=2 sheets
        alpha = 1.5

        def mass(rho):
            return 2 * math.pi * 2 * rho ** (2 * alpha + 2) / (2 * alpha + 2)

        X = np.random.default_rng(9).uniform(-0.8, 0.8, size=(25, 2))
        b1 = fields.blowup_rescale(f, np.zeros(2), 0.5, mass(0.5))
        b2 = fields.blowup_rescale(f, np.zeros(2), 0.125, mass(0.125))
        v1, v2 = b1.values(X), b2.values(X)
        for t in range(X.shape[0]):
            assert qcore.multiset_equal(qcore.QPoint(v1[t]), qcore.QPoint(v2[t]),
                                        tol=1e-10 * (1 + np.abs(v1[t]).max()))

    def test_zero_mass_rejected(self):
        f = make_trivial(2)
        with pytest.raises(ValueError):
            fields.blowup_rescale(f, np.zeros(2), 0.5, 0.0)

    def test_perturbation_converges_to_branch_blowup(self):
        base = make_branch_field(3, 2)
        pert = fields.superpose(base, [poly("0.2*x1^2-0.2*x2^2"), poly("0.4*x1*x2")])
        X = np.random.default_rng(21).uniform(-0.7, 0.7, size=(40, 2))
        sup_dist = []
        for rho in (1e-1, 1e-2, 1e-3, 1e-4):
            # use the closed-form leading-order mass of the branch part as the
            # normalizer for both; the blow-up limit is insensitive to the
            # norm constant at matching order
            alpha = 1.5
            mass = 2 * math.pi * 2 * rho ** (2 * alpha + 2) / (2 * alpha + 2)
            bp = fields.blowup_rescale(pert, np.zeros(2), rho, mass)
            bb = fields.blowup_rescale(base, np.zeros(2), rho, mass)
            vp, vb = bp.values(X), bb.values(X)
            worst = max(
                qcore.metric_g(qcore.QPoint(vp[t]), qcore.QPoint(vb[t]))
                for t in range(X.shape[0])
            )
            sup_dist.append(worst)
        assert sup_dist == sorted(sup_dist, reverse=True)
        # the degree gap is 2 - 3/2 = 1/2, so the sup distance decays like
        # rho^(1/2): one decade of rho buys a factor ~3.16
        assert sup_dist[-1] / sup_dist[0] < 0.05
        assert sup_dist[-1] < 5e-3


class TestSingularProbe:
    def test_distinct_sheets_give_empty_probe(self):
        f = make_harmonic_sheets([[poly("x1+2.0")], [poly("x1-2.0")]])
        res = fields.singular_set_probe(f, ProbeGrid(cells_per_side=32, zoom_levels=4), 1e-6)
        assert res.flagged.shape[0] == 0
        assert res.dimension_estimate is None
        assert not res.trivial_field

    def test_branch_probe_flags_only_near_origin(self):
        amp = 1.0
        f = make_branch_field(3, 2, amp=amp)
        grid = ProbeGrid(half_width=1.0, cells_per_side=64, zoom_levels=20)
        res = fields.singular_set_probe(f, grid, tol=1e-6 * amp)
        assert res.flagged.shape[0] > 0
        cell = 2.0 / 64
        assert np.all(np.abs(res.flagged).max(axis=1) <= cell)
        assert res.dimension_estimate is not None
        assert res.dimension_estimate <= 0.2
        assert not res.trivial_field

    def test_trivial_field_flags_everything(self):
        f = make_trivial(3)
        res = fields.singular_set_probe(f, ProbeGrid(cells_per_side=32, zoom_levels=3), 1e-9)
        assert res.trivial_field
        assert res.diagnostic == "trivial field"
        assert res.dimension_estimate == pytest.approx(2.0, abs=0.1)

    def test_lattice_collision_rejected(self):
        # odd cell count puts a lattice point exactly on the origin branch point
        f = make_branch_field(3, 2)
        with pytest.raises(ValueError):
            fields.singular_set_probe(f, ProbeGrid(cells_per_side=63), 1e-6)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec", [
        "trivial:2",
        "trivial:3",
        "branch:3/2",
        "branch:5/3",
        "branch:3/2:0.5",
        "harmonic:n2m1:1.0*x1^2-1.0*x2^2|2.0*x1*x2",
        "harmonic:n3m1:1.0*x1*x2*x3",
        "superpose(branch:3/2,n2m2:0.1*x1;0.2*x2)",
    ])
    def test_round_trip(self, spec):
        f = parse_field_spec(spec)
        again = parse_field_spec(f.tag)
        assert again.tag == f.tag
        X = np.random.default_rng(1).uniform(0.1, 0.8, size=(10, f.n))
        assert np.allclose(f.values(X), again.values(X), atol=1e-14)

    def test_malformed_specs_rejected(self):
        for bad in ["", "nope:1", "branch:3", "branch:a/b", "harmonic:x1",
                    "superpose(branch:3/2)", "trivial:0", "trivial:x"]:
            with pytest.raises(FieldSpecError):
                parse_field_spec(bad)
