import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab import fields, qcore
from qvlab.fields import (
    HarmonicityError,
    FieldSpecError,
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

    @staticmethod
    def seed_value(p, X):
        """The original term-by-term evaluation, kept as a bit-exact reference."""
        out = np.zeros(X.shape[0])
        for expo, coeff in p.terms:
            term = np.full(X.shape[0], coeff)
            for axis, e in enumerate(expo):
                if e:
                    term = term * X[:, axis] ** e
            out += term
        return out

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                        st.floats(-1e3, 1e3, allow_nan=False), max_size=8),
        st.lists(st.tuples(*[st.floats(-10.0, 10.0, allow_nan=False)] * n),
                 min_size=1, max_size=40))))
    def test_value_is_bit_for_bit_the_term_by_term_loop(self, case):
        n, coeffs, points = case
        coeffs[(0,) * n] = coeffs.get((0,) * n, 0.0) or 1.5  # a constant term
        p = fields.Polynomial.from_dict(n, coeffs)
        X = np.array(points, dtype=float)
        assert _bit_equal(p.value(X), self.seed_value(p, X))

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


def _polar_coords(X):
    return np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0])


def _reference_wound_arrays(pieces, m, r, theta, factored=False):
    """The original sheet-by-sheet wound kernel at the nodes (r, theta), kept
    as a reference. Its values are the kernel's bit for bit; its gradients,
    each mode's radial and angular parts rotated per node, agree with the
    kernel's up to the order of rounding. factored=True assembles each mode's
    gradient as the kernel does, s r^(s-1) (g cos - g' sin, g sin + g' cos),
    and must match the kernel bit for bit."""
    q_total = sum(int(p[0]) for p in pieces)
    N = r.shape[0]
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
                if factored:
                    damp = np.outer(cos_p, a) - np.outer(sin_p, b)
                    c, sn = er[:, :1], er[:, 1:]
                    scale = (s * rs1)[:, None]
                    grads[:, col, :, 0] += scale * (amp * c - damp * sn)
                    grads[:, col, :, 1] += scale * (amp * sn + damp * c)
                    continue
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


def _gradients_close(got, reference):
    """Each node's gradient entries within 1e-14 of its largest reference entry."""
    scale = np.abs(reference).reshape(reference.shape[0], -1).max(axis=1)
    err = np.abs(got - reference).reshape(reference.shape[0], -1).max(axis=1)
    return bool(np.all(err <= 1e-14 * scale))


def _check_against_references(pieces, r, theta, values, grads):
    """values bit for bit the original kernel's, gradients within 1e-14 of
    it and bit for bit its factored twin."""
    ref_values, ref_grads = _reference_wound_arrays(pieces, 2, r, theta)
    assert _bit_equal(values, ref_values)
    assert _gradients_close(grads, ref_grads)
    assert _bit_equal(grads, _reference_wound_arrays(pieces, 2, r, theta, factored=True)[1])


def _random_cases(Q):
    """Random wound pieces of total winding Q, as drawn and with nonzero a0."""
    for seed in range(6):
        pieces = fields.random_wound_pieces(seed, Q, 4, 1.8)
        yield pieces
        yield tuple((w, np.array([0.3, -1.1]) * (seed + 1), modes) for w, _, modes in pieces)


class TestWoundKernel:
    """The vectorized wound kernel against the sheet-by-sheet one: values bit
    for bit, gradients within 1e-14 (bit for bit against its factored twin)."""

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
        r, theta = _polar_coords(self.points())
        pieces_seen = set()
        for case in _random_cases(Q):
            pieces_seen.add(len(case))
            q_total, kernel = fields._wound_kernel(case, 2)
            assert q_total == Q
            values, grads = kernel(r, theta, True, True)
            _check_against_references(case, r, theta, values, grads)
            assert _bit_equal(kernel(r, theta, True, False)[0], values)
            assert kernel(r, theta, True, False)[1] is None
            assert _bit_equal(kernel(r, theta, False, True)[1], grads)
        if Q >= 2:
            assert max(pieces_seen) > 1  # multi-piece partitions are covered

    def test_branch_field_matches_reference(self):
        X = self.points()
        f = make_branch_field(5, 3, 0.7)
        piece = (3, np.zeros(2), ((5, np.array([0.0, 0.7]), np.array([0.7, 0.0])),))
        _check_against_references((piece,), *_polar_coords(X), f.values(X), f.gradients(X))

    def test_make_wound_field_checks_pieces_as_fourier_pieces(self):
        good = (2, (0.0, 0.0), ((1, (0.3, 0.1), (0.5, -0.2)),))
        X = self.points()
        f = fields.make_wound_field([good])
        g = fields.make_wound_field([fields.FourierPiece(*good)])
        assert _bit_equal(f.values(X), g.values(X))
        for bad in ((0, good[1], good[2]),                            # winding
                    (2, good[1], good[2] * 2),                        # repeated mode
                    (2, good[1], ((1, (0.3,), (0.5, -0.2)),)),        # mode dimension
                    (2, (0.0, 0.0, 0.0), ()),                         # a0 not in R^2
                    (2, good[1], ((1, (math.nan, 0.1), (0.5, -0.2)),))):  # non-finite
            with pytest.raises(FieldSpecError):
                fields.make_wound_field([bad])


class TestPolarGrid:
    """QField.polar on the product grid rr (x) dirs is the kernel's scattered
    call at the same (r, theta), bit for bit."""

    RR = np.array([0.0, 1e-3, 0.3, 0.77, 1.4])

    @staticmethod
    def dirs():
        M = 24
        theta = 2.0 * math.pi * np.arange(M) / M
        special = np.array([[-1.0, 0.0], [-1.0, -0.0], [0.6, -0.8]])  # the cut at theta = pi
        return np.vstack([np.stack([np.cos(theta), np.sin(theta)], axis=1), special])

    def scattered(self, dirs):
        theta = np.arctan2(dirs[:, 1], dirs[:, 0])
        return np.repeat(self.RR, theta.size), np.tile(theta, self.RR.size)

    @pytest.mark.parametrize("Q", [1, 2, 3, 5])
    def test_wound_polar_is_the_scattered_kernel_call(self, Q):
        dirs = self.dirs()
        r, theta = self.scattered(dirs)
        for case in _random_cases(Q):
            f = fields.make_wound_field(case)
            values, grads = f.polar(self.RR, dirs, True, True)
            expected = fields._wound_kernel(case, 2)[1](r, theta, True, True)
            assert _bit_equal(values, expected[0]) and _bit_equal(grads, expected[1])
            _check_against_references(case, r, theta, values, grads)
            only_values = f.polar(self.RR, dirs, True, False)
            only_grads = f.polar(self.RR, dirs, False, True)
            assert only_values[1] is None and _bit_equal(only_values[0], values)
            assert only_grads[0] is None and _bit_equal(only_grads[1], grads)

    def test_piece_without_modes_is_constant(self):
        f = fields.make_wound_field([(2, (0.4, -0.2), ()),
                                     (1, (0.0, 0.0), ((1, (1.0, 0.0), (0.0, 1.0)),))])
        values, grads = f.polar(self.RR, self.dirs(), True, True)
        assert np.all(values[:, :2] == [0.2, -0.1]) and np.all(grads[:, :2] == 0.0)
        r, theta = self.scattered(self.dirs())
        kernel = fields._wound_kernel([(2, (0.4, -0.2), ())], 2)[1]
        assert np.all(kernel(r, theta, True, True)[0] == [0.2, -0.1])

    def test_polar_nodes_are_the_scattered_nodes(self):
        # up to the rounding of (r, theta) from the node's coordinates
        f = fields.make_wound_field(fields.random_wound_pieces(2, 3, 4, 1.8))
        dirs = self.dirs()
        X = (self.RR[:, None, None] * dirs[None]).reshape(-1, 2)
        values, grads = f.polar(self.RR, dirs, True, True)
        assert np.allclose(values, f.values(X), rtol=0.0, atol=1e-14)
        assert np.allclose(grads, f.gradients(X), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_superpose_polar_adds_the_shift_at_the_nodes(self, k):
        h = [poly("0.3+x1-2.0*x1*x2"), poly("-0.7+x1^2-x2^2")]
        base = make_branch_field(k, 3)
        f = fields.superpose(base, h)
        dirs = self.dirs()
        r, theta = self.scattered(dirs)
        X = (self.RR[:, None, None] * dirs[None]).reshape(-1, 2)
        piece = (3, np.zeros(2), ((k, np.array([0.0, 1.0]), np.array([1.0, 0.0])),))
        base_values, base_grads = fields._wound_kernel((piece,), 2)[1](r, theta, True, True)
        shift = np.stack([c.value(X) for c in h], axis=1)
        dshift = np.stack([np.stack([c.partial(a).value(X) for a in range(2)], axis=1)
                           for c in h], axis=1)
        values, grads = f.polar(self.RR, dirs, True, True)
        assert _bit_equal(values, base_values + shift[:, None, :])
        assert _bit_equal(grads, base_grads + dshift[:, None, :, :])

    def test_polar_only_where_trig_can_be_shared(self):
        assert make_branch_field(3, 2).polar is not None
        assert fields.superpose(make_branch_field(3, 2), [poly("x1"), poly("x2")]).polar is not None
        for spec in ("harmonic:n2m1:x1", "superpose(harmonic:n2m1:x1,n2m1:x2)", "trivial:2"):
            assert parse_field_spec(spec).polar is None
        f = make_branch_field(3, 2)
        assert fields.blowup_rescale(f, np.zeros(2), 0.5, 1.0).polar is None


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


class TestRadialGrading:
    def test_library_gradings(self):
        assert [make_branch_field(k, Q).radial_grading
                for k, Q in ((3, 2), (2, 4), (4, 6), (3, 3), (5, 3))] == [2, 2, 3, 1, 3]
        pieces = [(w, (0.0, 0.0), ((1, (0.0, 1.0), (1.0, 0.0)),)) for w in (2, 3, 1)]
        assert fields.make_wound_field(pieces).radial_grading == 6

    def test_branch_points_need_a_grading(self):
        f = make_branch_field(3, 2)
        with pytest.raises(ValueError, match="radial_grading"):
            dataclasses.replace(f, radial_grading=None)
        # without branch points the grading may stay unknown
        dataclasses.replace(f, branch_set=(), radial_grading=None)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 9), st.integers(1, 9), st.floats(0.2, 0.9),
           st.floats(-0.3, 0.3), st.floats(0.1, 2.0))
    def test_grading_propagates(self, k, Q, amp, shift, rho):
        p = Q // math.gcd(k, Q)
        spec = "branch:%d/%d:%r" % (k, Q, amp)
        f = parse_field_spec(spec)
        assert f.radial_grading == p
        g = parse_field_spec("superpose(%s,n2m2:%r*x1;x2)" % (spec, shift))
        assert g.radial_grading == p
        assert fields.superpose(f, [poly("x1"), poly("x1^2-x2^2")]).radial_grading == p
        for y in ((0.0, 0.0), (shift, 0.5)):
            assert fields.blowup_rescale(g, y, rho, 1.0).radial_grading == p


def _harmonic_component(const, coeffs):
    """const + sum_l (A Re z^l + B Im z^l) for coeffs {l: (A, B)} as a Polynomial."""
    terms = {(0, 0): const}
    for l, (A, B) in coeffs.items():
        for k in range(l + 1):
            # the x1^(l-k) x2^k term of z^l is binom(l, k) i^k
            c = math.comb(l, k) * (A * (-1) ** (k // 2) if k % 2 == 0 else B * (-1) ** (k // 2))
            terms[(l - k, k)] = terms.get((l - k, k), 0.0) + c
    return fields.Polynomial.from_dict(2, terms)


class TestPieces:
    """QField.pieces and the radial spectrum built from them."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_harmonic_pieces_reproduce_the_sheets(self, q, m, degree, seed):
        rng = np.random.default_rng(seed)
        sheets = [[_harmonic_component(float(rng.uniform(-1, 1)),
                                       {l: tuple(rng.uniform(-1, 1, 2)) for l in range(1, degree + 1)
                                        if rng.uniform() < 0.7})
                   for _ in range(m)] for _ in range(q)]
        f = make_harmonic_sheets(sheets)
        assert len(f.pieces) == q and all(p.winding == 1 for p in f.pieces)
        g = fields.make_wound_field(f.pieces, m=m)
        X = rng.uniform(-1.5, 1.5, size=(40, 2))
        scale = 1.0 + np.abs(f.values(X)).max()
        assert np.allclose(g.values(X), f.values(X), rtol=0, atol=1e-12 * scale)
        assert np.allclose(g.gradients(X), f.gradients(X), rtol=0,
                           atol=1e-12 * (1.0 + np.abs(f.gradients(X)).max()))

    @pytest.mark.parametrize("spec", ["branch:3/2", "branch:5/3:0.7", "wound:0,2,4,1.8",
                                      "harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2",
                                      "superpose(branch:1/3,n2m2:x1+0.5*x2;x1^2-x2^2+0.3)"])
    def test_spectrum_matches_the_weiss2d_closed_forms(self, spec):
        from qvlab import radial, variational, weiss2d

        f = parse_field_spec(spec)
        s = radial.spectrum(f, (0.0, 0.0))
        for r in (0.3, 0.7, 1.0):
            mass, _, _ = s.moments(np.array([r]))
            assert mass[0] * r == pytest.approx(
                sum(weiss2d.trace_l2(p, r) for p in f.pieces), rel=1e-13)
            energy, = radial.integrals(s, variational.ball((0.0, 0.0), r), (),
                                       lambda rr, mass, rad, cross: (2.0 * rad,))
            assert energy == pytest.approx(weiss2d.closed_form_dirichlet(f.pieces, r), rel=1e-13)
            assert energy == pytest.approx(
                variational.dirichlet_energy(f, variational.ball((0.0, 0.0), r)), rel=1e-12)

    def test_constructors_that_know_their_pieces(self):
        branch = make_branch_field(3, 2, 0.5)
        assert [(p.winding, p.modes) for p in branch.pieces] == [(2, ((3, (0.0, 0.5), (0.5, 0.0)),))]
        wound = parse_field_spec("wound:1,3,4,1.8")
        assert sum(p.winding for p in wound.pieces) == wound.q == 3
        pair = parse_field_spec("harmonic:n2m2:x1+2;x2|2*x1*x2;x1^2-x2^2")
        assert [(p.a0, p.modes) for p in pair.pieces] == [
            ((4.0, 0.0), ((1, (0.0, 1.0), (1.0, 0.0)),)),
            ((0.0, 0.0), ((2, (1.0, 0.0), (0.0, 1.0)),))]
        shifted = fields.superpose(make_branch_field(1, 3), [poly("x2"), poly("1.5")])
        assert shifted.pieces[:1] == make_branch_field(1, 3).pieces
        assert shifted.pieces[1:] == (fields.FourierPiece(1, (0.0, 3.0), ((1, (1.0, 0.0), (0.0, 0.0)),)),) * 3

    @pytest.mark.parametrize("make", [
        # k divisible by Q: every sheet pair sums to a nonzero mode
        lambda: fields.superpose(make_branch_field(2, 2), [poly("x1"), poly("x2")]),
        # the two winding-1 sheets leave x1 - 2 x1 = -x1 across the pieces
        lambda: fields.superpose(parse_field_spec("harmonic:n2m1:x1|-2*x1"), [poly("x2")]),
        lambda: fields.blowup_rescale(make_branch_field(3, 2), (0.0, 0.0), 0.5, 1.0),
        lambda: parse_field_spec("harmonic:n3m1:x1*x2|x3"),
        lambda: make_trivial(2),
        lambda: dataclasses.replace(make_branch_field(3, 2), pieces=None),
    ], ids=["superpose-nonzero-sum", "superpose-nonzero-across-pieces", "blowup",
            "three-dimensional", "trivial", "hand-built"])
    def test_fields_without_known_pieces(self, make):
        from qvlab import radial

        f = make()
        assert f.pieces is None
        assert radial.spectrum(f, (0.0,) * f.n) is None

    def test_superpose_admits_sheets_cancelling_across_pieces(self):
        # x1 and -x1 are two winding-1 pieces that each leave a nonzero sheet
        # sum, yet together sum to zero, so the shift adds no cross term
        from qvlab import carleman, variational

        f = parse_field_spec("superpose(harmonic:n2m1:x1|-x1,n2m1:x2)")
        assert f.pieces is not None
        bare = dataclasses.replace(f, pieces=None)
        for check in (
            lambda g: carleman.carleman_sides(g, carleman.WeightSpec(tau=1.5, eps=0.3),
                                              carleman.linear_cutoff(0.1, 0.2, 0.4, 0.8)),
            lambda g: variational.caccioppoli_check(g, variational.DEFAULT_BATTERY_BUMP),
        ):
            closed, refined = check(f), check(bare)
            assert closed.params["second_route"] == "closed-form"
            assert refined.params["second_route"] == "refined"
            assert closed.verdict == refined.verdict == "pass"
            for side in ("lhs", "rhs"):
                assert closed.quantities[side] == refined.quantities[side]
                assert closed.quantities[side + "_closed_form"] == pytest.approx(
                    refined.quantities[side + "_refined"], rel=1e-12)

    def test_spectrum_needs_the_origin(self):
        from qvlab import radial

        f = make_branch_field(3, 2)
        assert radial.spectrum(f, (0.0, 0.0)) is not None
        assert radial.spectrum(f, (0.3, 0.0)) is None


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
