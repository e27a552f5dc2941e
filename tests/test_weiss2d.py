"""Disk machinery: trace decomposition, closed-form energies, the disk
solver, Weiss energy, and the epiperimetric gap.

Frozen oracles: pure-mode energies pi l c; the kappa Q = l equality of the
harmonic and homogeneous extensions; W(r) = pi Q (s - kappa) r^(2(s-kappa)) c
for a rewound pure mode; the exact rational equality cases of the per-mode
inequality; and the two-mode traces where the stated delta overshoots the
sharp spectral constant.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import qvlab.weiss2d as w2
from qvlab.fields import (
    FieldSpecError,
    make_branch_field,
    make_harmonic_sheets,
    make_trivial,
    parse_field_spec,
    parse_polynomial,
    random_wound_field,
    random_wound_pieces,
)
from qvlab.variational import QuadratureSpec, ball, dirichlet_energy

FAST = QuadratureSpec(radial_order=12, angular_nodes=64, polar_nodes=16)


def _pure_mode_piece(winding, l, a, b):
    return w2.FourierPiece(winding=winding, a0=(0.0, 0.0), modes=((l, a, b),))


# ---------------------------------------------------------------------------
# FourierPiece


def test_fourier_piece_validation():
    with pytest.raises(FieldSpecError):
        w2.FourierPiece(winding=0, a0=(0.0,), modes=())
    with pytest.raises(FieldSpecError):
        w2.FourierPiece(winding=1, a0=(0.0, 0.0),
                        modes=((2, (1.0, 0.0), (0.0, 0.0)), (1, (1.0, 0.0), (0.0, 0.0))))
    with pytest.raises(FieldSpecError):
        w2.FourierPiece(winding=1, a0=(0.0, 0.0), modes=((1, (math.nan, 0.0), (0.0, 0.0)),))
    with pytest.raises(FieldSpecError):
        w2.FourierPiece(winding=1, a0=(0.0, 0.0), modes=((1, (1.0,), (0.0, 0.0)),))
    p = _pure_mode_piece(2, 3, (0.0, 1.0), (1.0, 0.0))
    assert p.m == 2
    assert p.mode_energies() == [(3, 2.0)]
    assert p.max_mode() == 3


def test_fourier_piece_dict_round_trip():
    p = w2.FourierPiece(winding=2, a0=(0.5, -0.25),
                        modes=((1, (0.1, 0.2), (0.3, 0.4)), (4, (0.0, 1.0), (2.0, 0.0))))
    assert w2.FourierPiece.from_dict(p.to_dict()) == p


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_identical_sheets_gives_winding_one_pieces():
    trace = w2.BoundaryTrace.sample(make_trivial(3), 64)
    curves = w2.irreducible_decompose(trace)
    assert sorted(c.winding for c in curves) == [1, 1, 1]


@pytest.mark.parametrize("k,Q,expected", [
    (3, 2, [2]), (1, 2, [2]), (5, 3, [3]), (2, 3, [3]),
    (2, 2, [1, 1]), (2, 4, [2, 2]),
])
def test_decompose_branch_monodromy(k, Q, expected):
    trace = w2.BoundaryTrace.sample(make_branch_field(k, Q), 256)
    curves = w2.irreducible_decompose(trace)
    assert sorted(c.winding for c in curves) == expected


def test_decompose_separated_sheets():
    f = make_harmonic_sheets([
        [parse_polynomial("1.0*x1", 2), parse_polynomial("1.0*x2", 2)],
        [parse_polynomial("3.0+1.0*x1", 2), parse_polynomial("-1.0+1.0*x2", 2)],
    ])
    curves = w2.irreducible_decompose(w2.BoundaryTrace.sample(f, 256))
    assert [c.winding for c in curves] == [1, 1]
    pieces = [w2.fourier_decompose(c)[0] for c in curves]
    a0s = sorted(p.a0 for p in pieces)
    assert a0s[0] == pytest.approx((0.0, 0.0), abs=1e-12)
    assert a0s[1] == pytest.approx((6.0, -2.0), abs=1e-12)


def test_decompose_ambiguous_trace_requests_refinement():
    f = make_harmonic_sheets([
        [parse_polynomial("1.0*x1", 2), parse_polynomial("0.0", 2)],
        [parse_polynomial("1.0*x1", 2), parse_polynomial("0.001", 2)],
    ])
    with pytest.raises(w2.TraceContinuationError, match="refine"):
        w2.irreducible_decompose(w2.BoundaryTrace.sample(f, 64))
    # well-separated sheets at the same resolution continue cleanly
    g = make_harmonic_sheets([
        [parse_polynomial("1.0*x1", 2), parse_polynomial("0.0", 2)],
        [parse_polynomial("1.0*x1", 2), parse_polynomial("0.1", 2)],
    ])
    curves = w2.irreducible_decompose(w2.BoundaryTrace.sample(g, 256))
    assert [c.winding for c in curves] == [1, 1]


# ---------------------------------------------------------------------------
# Fourier analysis


def test_fourier_pure_mode():
    theta = 2.0 * math.pi * np.arange(64) / 64
    samples = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    piece, err = w2.fourier_decompose(samples)
    assert err <= 1e-13
    assert piece.a0 == pytest.approx((0.0, 0.0), abs=1e-14)
    assert len(piece.modes) == 1
    l, a, b = piece.modes[0]
    assert l == 1
    assert a == pytest.approx((0.0, 1.0), abs=1e-14)
    assert b == pytest.approx((1.0, 0.0), abs=1e-14)
    assert piece.mode_energies()[0][1] == pytest.approx(2.0)


def test_fourier_constant_curve():
    samples = np.full((32, 2), 0.7)
    piece, err = w2.fourier_decompose(samples)
    assert piece.modes == ()
    assert piece.a0 == pytest.approx((1.4, 1.4))
    assert err <= 1e-14


def test_fourier_round_trip_degree_five():
    rng = np.random.Generator(np.random.Philox(key=20240817))
    coeffs = [(l, rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
              for l in range(1, 6)]
    theta = 2.0 * math.pi * np.arange(64) / 64
    samples = np.zeros((64, 2))
    for l, a, b in coeffs:
        samples += np.sin(l * theta)[:, None] * a + np.cos(l * theta)[:, None] * b
    piece, err = w2.fourier_decompose(samples, max_mode=5)
    assert err <= 1e-12
    assert len(piece.modes) == 5
    for (l, a, b), (l0, a0, b0) in zip(piece.modes, coeffs):
        assert l == l0
        np.testing.assert_allclose(a, a0, atol=1e-12)
        np.testing.assert_allclose(b, b0, atol=1e-12)


def test_fourier_undersampled():
    samples = np.zeros((16, 2))
    with pytest.raises(w2.UnderSampledError):
        w2.fourier_decompose(samples, max_mode=5)


# ---------------------------------------------------------------------------
# closed-form energies


def test_single_mode_energies():
    p = _pure_mode_piece(1, 2, (1.0, 0.0), (0.0, 0.0))
    assert w2.harmonic_extension_energy(p) == pytest.approx(2.0 * math.pi)
    assert w2.homogeneous_extension_energy(p, 1.0) == pytest.approx(2.5 * math.pi)
    # matching homogeneity: the two extensions are the same function
    assert w2.homogeneous_extension_energy(p, 2.0) == pytest.approx(2.0 * math.pi)
    ell = _pure_mode_piece(1, 5, (0.0, 1.0), (0.0, 0.0))
    assert w2.harmonic_extension_energy(ell) == pytest.approx(5.0 * math.pi)
    with pytest.raises(ValueError):
        w2.homogeneous_extension_energy(p, 0.0)


def test_wound_energy_radial_exponent():
    # winding carries into the radial exponent s = l/Q, not a prefactor
    p = _pure_mode_piece(2, 3, (0.0, 0.8), (0.8, 0.0))
    c = 2 * 0.8 ** 2
    assert w2.harmonic_extension_energy(p, 0.5) == pytest.approx(
        math.pi * 3 * 0.5 ** 3.0 * c, rel=1e-14)
    f = make_branch_field(3, 2, amp=0.8)
    quadr = dirichlet_energy(f, ball((0.0, 0.0), 0.5), FAST)
    assert quadr == pytest.approx(w2.harmonic_extension_energy(p, 0.5), rel=1e-9)


def test_trace_l2_winding_factor():
    p = _pure_mode_piece(2, 3, (0.0, 0.8), (0.8, 0.0))
    c = 2 * 0.8 ** 2
    assert w2.trace_l2(p, 1.0) == pytest.approx(math.pi * 2 * c)
    assert w2.trace_l2(p, 0.5) == pytest.approx(math.pi * 2 * 0.5 * 0.5 ** 3 * c)
    const = w2.FourierPiece(winding=1, a0=(1.0, 1.0), modes=())
    assert w2.trace_l2(const, 1.0) == pytest.approx(math.pi)


def test_harmonic_extension_is_minimal():
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(20):
        winding = int(rng.integers(1, 4))
        modes = tuple((l, tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-1, 1, 2)))
                      for l in sorted(rng.choice(np.arange(1, 9), size=3, replace=False)))
        p = w2.FourierPiece(winding=winding, a0=(0.0, 0.0), modes=modes)
        for kappa in (0.3, 0.9, 1.7, 3.2):
            assert (w2.harmonic_extension_energy(p)
                    <= w2.homogeneous_extension_energy(p, kappa) + 1e-12)
    # equality holds exactly when the single active mode matches kappa Q
    p = _pure_mode_piece(3, 2, (0.4, 0.0), (0.0, 0.4))
    assert w2.homogeneous_extension_energy(p, 2.0 / 3.0) == pytest.approx(
        w2.harmonic_extension_energy(p), rel=1e-14)


# ---------------------------------------------------------------------------
# disk solver


def test_solve_disk_reconstructs_branch_field():
    piece = _pure_mode_piece(2, 3, (0.0, 0.8), (0.8, 0.0))
    f = w2.solve_disk([piece], tag="probe", quad=FAST)
    g = make_branch_field(3, 2, amp=0.8)
    rng = np.random.Generator(np.random.Philox(key=11))
    X = rng.uniform(-0.6, 0.6, size=(40, 2))
    gap = np.abs(np.sort(f.values(X), axis=1) - np.sort(g.values(X), axis=1))
    assert float(gap.max()) <= 1e-8
    cert = f.construction_cert
    assert cert["energy_cross_check"] == "pass"
    assert cert["stationarity"] == "pass"
    assert cert["energy_closed_form"] == pytest.approx(6 * math.pi * 0.8 ** 2)


def test_solve_disk_constant_pieces():
    const = w2.FourierPiece(winding=1, a0=(1.0, -2.0), modes=())
    f = w2.solve_disk([const, const], quad=FAST)
    assert f.q == 2
    vals = f.values(np.array([[0.2, 0.1], [-0.4, 0.3]]))
    np.testing.assert_allclose(vals, np.broadcast_to([0.5, -1.0], vals.shape), atol=1e-14)
    assert f.construction_cert["energy_closed_form"] == 0.0
    assert f.construction_cert["energy_cross_check"] == "pass"


def test_solve_disk_classical_harmonic_extension():
    piece = w2.FourierPiece(winding=1, a0=(0.0, 0.0),
                            modes=((4, (0.3, 0.0), (0.0, -0.2)),))
    f = w2.solve_disk([piece], quad=FAST)
    c = 0.3 ** 2 + 0.2 ** 2
    assert f.construction_cert["energy_quadrature"] == pytest.approx(
        4 * math.pi * c, rel=1e-9)


def test_solve_disk_validation():
    with pytest.raises(FieldSpecError):
        w2.solve_disk([])
    three = w2.FourierPiece(winding=1, a0=(0.0, 0.0, 0.0), modes=())
    two = w2.FourierPiece(winding=1, a0=(0.0, 0.0), modes=())
    with pytest.raises(FieldSpecError):
        w2.solve_disk([three, two])


def _count_certificate_work(monkeypatch):
    """Count the battery runs and quadrature energies of solve_disk's certificate."""
    calls = {"battery": 0, "energy": 0}

    def counted(name, key):
        inner = getattr(w2, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(w2, name, wrapper)

    counted("stationarity_battery", "battery")
    counted("dirichlet_energy", "energy")
    return calls


def test_wound_parse_defers_certificate_to_first_read(monkeypatch):
    calls = _count_certificate_work(monkeypatch)
    f = parse_field_spec("wound:1,3,1,1.8")
    assert calls == {"battery": 0, "energy": 0}
    cert = f.construction_cert
    assert calls == {"battery": 1, "energy": 1}
    assert cert["energy_cross_check"] == "pass"
    assert cert["stationarity"] == "pass"
    assert f.construction_cert is cert
    assert calls == {"battery": 1, "energy": 1}


def test_uncertified_solve_never_runs_battery(monkeypatch):
    # a solve whose certificate is never read pays for none of it, even
    # when the field is evaluated and integrated
    calls = _count_certificate_work(monkeypatch)
    piece = _pure_mode_piece(2, 3, (0.0, 0.8), (0.8, 0.0))
    f = w2.solve_disk([piece], quad=FAST)
    f.values(np.array([[0.3, 0.4]]))
    assert dirichlet_energy(f, ball((0.0, 0.0), 1.0), FAST) > 0.0
    assert calls == {"battery": 0, "energy": 0}


def test_fields_without_construction_have_no_certificate():
    assert make_branch_field(3, 2).construction_cert is None


def test_solve_disk_target_dimension_three():
    piece = w2.FourierPiece(winding=2, a0=(0.0, 0.0, 0.0),
                            modes=((3, (0.0, 0.5, 0.1), (0.5, 0.0, -0.2)),))
    f = w2.solve_disk([piece])
    assert f.m == 3 and f.q == 2
    quadr = dirichlet_energy(f, ball((0.0, 0.0), 1.0), FAST)
    assert quadr == pytest.approx(w2.harmonic_extension_energy(piece), rel=1e-9)


def test_round_trip_recovers_pieces():
    pieces = [
        w2.FourierPiece(winding=2, a0=(0.2, -0.1),
                        modes=((1, (0.3, 0.1), (-0.2, 0.4)), (3, (0.0, 0.5), (0.5, 0.0)))),
        w2.FourierPiece(winding=1, a0=(4.0, 4.0),
                        modes=((2, (0.1, -0.3), (0.2, 0.2)),)),
    ]
    f = w2.solve_disk(pieces, quad=FAST)
    recovered = w2.analyze_trace(f, n_nodes=512)
    assert sorted(p.winding for p in recovered) == [1, 2]
    by_winding = {p.winding: p for p in recovered}
    for original in pieces:
        got = by_winding[original.winding]
        np.testing.assert_allclose(got.a0, original.a0, atol=1e-10)
        assert [l for l, _, _ in got.modes] == [l for l, _, _ in original.modes]
        for (l, a, b), (_, a0, b0) in zip(got.modes, original.modes):
            np.testing.assert_allclose(a, a0, atol=1e-10)
            np.testing.assert_allclose(b, b0, atol=1e-10)


def test_random_wound_field_deterministic():
    p1 = random_wound_pieces(5, 4, 6, 1.5)
    p2 = random_wound_pieces(5, 4, 6, 1.5)
    assert len(p1) == len(p2)
    for (w1, a1, m1), (w2_, a2, m2) in zip(p1, p2):
        assert w1 == w2_
        np.testing.assert_array_equal(a1, a2)
        for (l1, aa1, bb1), (l2, aa2, bb2) in zip(m1, m2):
            assert l1 == l2
            np.testing.assert_array_equal(aa1, aa2)
            np.testing.assert_array_equal(bb1, bb2)
    f1 = random_wound_field(5, 4, 6, 1.5)
    f2 = random_wound_field(5, 4, 6, 1.5)
    X = np.array([[0.3, 0.4], [-0.2, 0.6], [0.0, -0.5]])
    np.testing.assert_array_equal(f1.values(X), f2.values(X))
    assert f1.construction_cert == f2.construction_cert
    assert f1.construction_cert["energy_cross_check"] == "pass"
    g = random_wound_field(6, 4, 6, 1.5)
    assert g.tag != f1.tag


# ---------------------------------------------------------------------------
# Weiss energy


def test_weiss_energy_kappa_tuned_branch_vanishes():
    f = make_branch_field(3, 2, amp=0.8)
    for r in (0.3, 0.6, 0.9):
        assert abs(w2.weiss_energy(f, (0.0, 0.0), 1.5, r, FAST)) <= 1e-12


def test_weiss_energy_detuned_closed_form():
    # rewound pure mode with homogeneity s, measured at kappa != s:
    # W(r) = pi Q (s - kappa) r^(2(s - kappa)) c
    f = make_branch_field(3, 2, amp=0.8)
    c = 2 * 0.8 ** 2
    for kappa, r in ((1.0, 0.5), (1.0, 0.8), (2.0, 0.5)):
        expected = math.pi * 2 * (1.5 - kappa) * r ** (2 * (1.5 - kappa)) * c
        assert w2.weiss_energy(f, (0.0, 0.0), kappa, r, FAST) == pytest.approx(
            expected, rel=1e-9, abs=1e-12)


def test_weiss_exponent_dim_flag():
    f = make_branch_field(3, 2)
    r = 0.5
    w_n = w2.weiss_energy(f, (0.0, 0.0), 1.0, r, FAST)
    w_m = w2.weiss_energy(f, (0.0, 0.0), 1.0, r, FAST, exponent_dim=3)
    assert w_m == pytest.approx(w_n / r, rel=1e-12)


def test_weiss_domain_guard():
    pieces = [w2.FourierPiece(winding=2, a0=(0.0, 0.0),
                              modes=((1, (0.2, 0.0), (0.0, 0.2)),))]
    f = w2.solve_disk(pieces, domain_radius=1.0)
    with pytest.raises(ValueError):
        w2.weiss_energy(f, (0.0, 0.0), 0.5, 1.2, FAST)
    with pytest.raises(ValueError):
        w2.weiss_energy(f, (0.0, 0.0), 0.0, 0.5, FAST)


def test_weiss_profile_monotone_for_minimizer():
    f = random_wound_field(7, 2, 4, 1.6)
    prof = w2.weiss_profile(f, (0.0, 0.0), 0.5, (0.2, 0.4, 0.6, 0.8), FAST)
    vals = list(prof.values)
    assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))


def test_weiss_derivative_identity_branch():
    f = make_branch_field(3, 2, amp=0.8)
    rep = w2.weiss_derivative_check(f, (0.0, 0.0), 1.5, 0.5, quad=FAST)
    assert rep.verdict == "pass"
    assert abs(rep.quantities["identity_rhs"]) <= 1e-10
    assert abs(rep.quantities["finite_difference"]) <= 1e-8


def test_weiss_derivative_identity_generic():
    f = random_wound_field(7, 2, 4, 1.6)
    for r in (0.3, 0.5, 0.7):
        rep = w2.weiss_derivative_check(f, (0.0, 0.0), 0.5, r, quad=FAST)
        assert rep.verdict == "pass", rep.quantities
        assert rep.quantities["square_term"] >= -1e-12


def test_weiss_derivative_step_errors():
    f = make_branch_field(3, 2)
    with pytest.raises(w2.StepSizeError):
        w2.weiss_derivative_check(f, (0.0, 0.0), 1.5, 0.5, h=0.6, quad=FAST)


# ---------------------------------------------------------------------------
# epiperimetric inequality


def test_mode_inequality_equalities():
    out = w2.mode_inequality(1, 1)
    assert out["delta"] == Fraction(1, 2)
    assert out["lhs"] == out["rhs"] == 0
    assert out["holds"] and out["equality"]
    out = w2.mode_inequality(2, Fraction(3, 2))
    assert out["delta"] == Fraction(1, 6)
    assert out["lhs"] == Fraction(1, 12)
    assert out["rhs"] == Fraction(1, 12)
    assert out["equality"]
    # float kappa converts exactly: 1.5 is dyadic
    assert w2.mode_inequality(2, 1.5) == out


def test_mode_inequality_small_grid():
    for tenths in range(1, 41):
        kappa = Fraction(tenths, 10)
        for l in range(1, 41):
            out = w2.mode_inequality(l, kappa)
            assert out["holds"], (l, kappa)
            if kappa.denominator == 1 and l in (kappa, kappa + 1):
                assert out["equality"], (l, kappa)


def test_mode_inequality_validation():
    with pytest.raises(ValueError):
        w2.mode_inequality(0, 1)
    with pytest.raises(ValueError):
        w2.mode_inequality(1, 0)
    with pytest.raises(ValueError):
        w2.mode_inequality(1, Fraction(-1, 2))


def test_epiperimetric_control_case_passes():
    p = w2.FourierPiece(winding=2, a0=(0.0, 0.0),
                        modes=((1, (0.5, 0.0), (0.0, 0.5)), (3, (0.5, 0.0), (0.0, 0.5))))
    rep = w2.epiperimetric_check([p], 0.5)
    assert rep.verdict == "pass"
    assert rep.quantities["margin"] == pytest.approx(math.pi / 2)


def test_epiperimetric_stated_delta_overshoots_on_fractional_mode():
    # winding 3 with modes {1, 2} at kappa = 1/3: the active unwound
    # homogeneity 2/3 sits strictly between kappa and floor(kappa) + 1,
    # where the gap-to-W ratio is (s - kappa) / (2 kappa) = 1/2, below the
    # stated delta = 1
    p = w2.FourierPiece(winding=3, a0=(0.0, 0.0),
                        modes=((1, (0.25, 0.0), (0.25, 0.0)), (2, (0.25, 0.0), (0.25, 0.0))))
    rep = w2.epiperimetric_check([p], 1.0 / 3.0)
    q = rep.quantities
    assert rep.verdict == "fail"
    assert q["gap"] == pytest.approx(math.pi / 16)
    assert q["weiss_w1"] == pytest.approx(math.pi / 8)
    assert q["margin"] == pytest.approx(-math.pi / 16)
    assert q["effective_delta"] == pytest.approx(0.5)
    assert q["margin_effective"] == pytest.approx(0.0, abs=1e-14)
    assert rep.notes


def test_epiperimetric_two_mode_winding_two():
    # trace of a two-term power map, unwound modes {2, 3} on winding 2 at
    # kappa = 1: gap = pi/2 while delta W = pi
    p = w2.FourierPiece(winding=2, a0=(0.0, 0.0),
                        modes=((2, (0.0, 1.0), (1.0, 0.0)), (3, (0.0, 1.0), (1.0, 0.0))))
    rep = w2.epiperimetric_check([p], 1.0)
    assert rep.quantities["gap"] == pytest.approx(math.pi / 2)
    assert rep.quantities["margin"] == pytest.approx(-math.pi / 2)
    assert rep.quantities["margin_effective"] == pytest.approx(0.0, abs=1e-12)


def test_epiperimetric_field_input_and_validation():
    rep = w2.epiperimetric_check(make_branch_field(3, 2), 1.5)
    assert rep.verdict == "pass"
    assert rep.quantities["gap"] == pytest.approx(0.0, abs=1e-10)
    assert rep.quantities["weiss_w1"] == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        w2.epiperimetric_check(make_branch_field(3, 2), 0.0)


def test_effective_delta_none_when_no_mode_above_kappa():
    p = _pure_mode_piece(2, 1, (0.3, 0.0), (0.0, 0.3))
    assert w2.effective_delta([p], 2.0) is None
    rep = w2.epiperimetric_check([p], 2.0)
    assert rep.verdict == "pass"


# ---------------------------------------------------------------------------
# external interfaces


def test_boundary_data_round_trip(tmp_path):
    pieces = [
        w2.FourierPiece(winding=2, a0=(0.25, -0.5),
                        modes=((1, (0.1, 0.2), (0.3, 0.4)),)),
        w2.FourierPiece(winding=1, a0=(0.0, 0.0), modes=()),
    ]
    path = str(tmp_path / "boundary.json")
    w2.save_boundary_data(path, pieces)
    loaded = w2.load_boundary_data(path)
    assert loaded == pieces
    with open(path) as fh:
        text = fh.read()
    assert '"format": "qvlab-boundary/1"' in text
    assert '"Q": 3' in text


def test_boundary_data_rejects_bad_payload(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"format": "something-else/9", "Q": 1, "pieces": []}')
    with pytest.raises(FieldSpecError):
        w2.load_boundary_data(path)
    with open(path, "w") as fh:
        fh.write('{"format": "qvlab-boundary/1", "Q": 5, "pieces": '
                 '[{"winding": 1, "a0": [0.0, 0.0], "modes": []}]}')
    with pytest.raises(FieldSpecError):
        w2.load_boundary_data(path)


def test_polar_export_format(tmp_path):
    f = make_branch_field(1, 2)
    path = str(tmp_path / "grid.csv")
    w2.export_polar_grid(f, path, radii=(0.25, 0.5), n_theta=8)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# format: qvlab-polar-grid/1"
    assert lines[1] == "r,theta,sheet,u1,u2"
    assert len(lines) == 2 + 2 * 8 * 2
    first = lines[2].split(",")
    assert float(first[0]) == 0.25 and int(first[2]) == 0
    w2.export_polar_grid(f, str(tmp_path / "grid2.csv"), radii=(0.25, 0.5), n_theta=8)
    with open(str(tmp_path / "grid2.csv")) as fh:
        assert fh.read().splitlines() == lines
