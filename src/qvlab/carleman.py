"""Weighted annular inequalities: Carleman-type bounds, three-sphere and
doubling estimates, and the bent-weight variant.

Every checker computes both sides of its inequality by quadrature and
reports the empirical constant; no constant is ever assumed. The four
Carleman variants and three-sphere compare every integral with a second
route under the one rule of variational._two_resolution (1e-4 relative,
roundoff-level integrals exempt): the closed form of radial on a field with
known pieces about the origin, else a rerun at quad.refined(). Each Carleman
variant states its density once, as an integrand of the radial moments
(M, D, S) at its own exponent (eta, or 0 for the pre-square estimate) that
both routes read (variational._two_routes). Weights are
powers of |x| (or exp(-2 tau phi(log|x|)) for the bent variant) against an
annular cutoff chi supported away from the origin, where the power weights
are smooth.

Exponent convention: with tau > 0 and eta = (2 tau - n + 2) / 2, the
squared-mass term on the weighted left side carries exponent
E = 2 tau + 2 - 2 eps by default ("proof" variant); the alternative
E = 2 tau + 2 - eps ("statement" variant) is available behind a flag and
both values are logged whenever eps > 0 makes them differ.

The bent weight phi_delta is documented to satisfy a bound on
|phi' - 1| + |phi''| (the weight is a small bend of phi(t) = t, so the
bound must be on the deviation of phi' from 1, not on |phi'| itself);
build_phi_delta certifies both sups numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .fields import QField
from .report import CheckReport
from .variational import (
    CutoffConstructionError,
    QuadratureSpec,
    REFERENCE_QUAD,
    RadialBump,
    _ratio_verdict,
    _two_resolution,
    _two_routes,
    annulus,
    ball,
    l2_mass,
)


class BentWeightError(ValueError):
    pass


def _annular_cutoff(kind, a_in, a_lo, a_hi, a_out) -> RadialBump:
    """A RadialBump that vanishes near the origin, where the power weights
    of the estimates are singular."""
    if not (0.0 < a_in < a_lo <= a_hi < a_out):
        raise CutoffConstructionError(
            "cutoff radii must satisfy 0 < a_in < a_lo <= a_hi < a_out, got %r"
            % ((a_in, a_lo, a_hi, a_out),))
    return RadialBump(a_in, a_lo, a_hi, a_out, kind=kind)


def linear_cutoff(a_in, a_lo, a_hi, a_out) -> RadialBump:
    """Annular cutoff with linear ramps (the default of the estimates)."""
    return _annular_cutoff("piecewise-linear-annular", a_in, a_lo, a_hi, a_out)


def smoothed_cutoff(a_in, a_lo, a_hi, a_out) -> RadialBump:
    """Annular cutoff with quintic ramps, to confirm that verdicts do not
    depend on cutoff regularity."""
    return _annular_cutoff("smoothed", a_in, a_lo, a_hi, a_out)


def eps_recipe(r_lo: float, r_hi: float) -> float:
    """The three-sphere eps for the radius ratio r_hi / r_lo:
    1 / sqrt(1 + log(r_hi / r_lo)^2)."""
    return 1.0 / math.sqrt(1.0 + math.log(r_hi / r_lo) ** 2)


@dataclass(frozen=True)
class WeightSpec:
    """Power weight parameters: finite tau > 0 and eps >= 0, and the left-side
    mass-term exponent variant. eta is always recomputed from tau and the
    domain dimension, never stored."""

    tau: float
    eps: float = 0.0
    exponent_variant: str = "proof"

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not self.eps >= 0.0:
            raise ValueError("eps must be nonnegative")
        if math.isinf(self.tau + self.eps):
            raise ValueError("tau and eps must be finite, got %r and %r" % (self.tau, self.eps))
        if self.exponent_variant not in ("proof", "statement"):
            raise ValueError("exponent_variant must be proof or statement")

    def eta(self, n: int) -> float:
        return (2.0 * self.tau - n + 2.0) / 2.0

    def mass_exponent(self, variant: str | None = None) -> float:
        v = variant or self.exponent_variant
        if v == "proof":
            return 2.0 * self.tau + 2.0 - 2.0 * self.eps
        return 2.0 * self.tau + 2.0 - self.eps


def eta_tuned_tau(kappa: float, n: int) -> float:
    """The tau for which eta = kappa, i.e. tau = (2 kappa + n - 2) / 2."""
    return (2.0 * kappa + n - 2.0) / 2.0


# ---------------------------------------------------------------------------
# shared machinery for the weighted two-sided checks


def _two_sided_report(name, f, params, cutoff, integrand, k, quad, extra=None,
                      signed_lhs=False, more=(), knots=(), sides=None):
    """The ratio report of the integrals of integrand(r, M, D, S) at exponent
    k over the cutoff's support, split at its radii and knots (_two_routes);
    the cutoff must be centred at the origin with a_in > 0, since the power
    weights are singular there. The integrals are (lhs, rhs, *rest): the
    report carries both routes' sides and rest under the names in more,
    unless sides(*integrals) gives (lhs, rhs, quantities). extra joins the
    quantities, and the cutoff's kind and radii the params."""
    if any(c != 0.0 for c in cutoff.center):
        raise ValueError("weighted checks require a cutoff centered at the origin")
    if not cutoff.a_in > 0.0:
        raise ValueError("weighted checks require a cutoff with a_in > 0: the power "
                         "weights are singular at the origin")
    ref, second, route, disagreement = _two_routes(
        f, cutoff.support(f.n), cutoff.breakpoints() + tuple(knots), integrand, k, quad)
    if sides is None:
        lhs, rhs, *rest = ref
        label = route.replace("-", "_")
        quantities = {"lhs_" + label: second[0], "rhs_" + label: second[1],
                      **dict(zip(more, rest))}
    else:
        lhs, rhs, quantities = sides(*ref)
    ratio, verdict, notes = _ratio_verdict(lhs, rhs, disagreement, signed_lhs)
    return CheckReport(
        name=name,
        field_spec=f.tag,
        params={**params, "cutoff": {"kind": cutoff.kind, "radii": cutoff.radii},
                "second_route": route},
        quantities={"lhs": lhs, "rhs": rhs, "ratio": ratio, **quantities, **(extra or {})},
        resolutions=quad.meta(),
        verdict=verdict,
        notes=tuple(notes),
    )


def _carleman_rhs(cutoff: RadialBump, tau: float, r, dirichlet, mass):
    """The common right side |Dchi| (|Df|^2 / |x|^{2 tau - 1}
    + |f|^2 / |x|^{2 tau + 1}), from the moments D and M."""
    dchi = np.abs(cutoff.dchi_r(r))
    return dchi * (dirichlet / r ** (2.0 * tau - 1.0) + mass / r ** (2.0 * tau + 1.0))


def _carleman_integrand(cutoff: RadialBump, tau: float, eps: float, exponents):
    """The integrand (lhs, rhs, lhs under each further exponent) of the
    moments at k = eta: lhs = chi (eps^2 M / |x|^E + S / |x|^{2 tau + 2}) for
    each E in exponents, rhs that of _carleman_rhs."""
    def integrand(r, mass, dirichlet, defect):
        chi = cutoff.chi_r(r)
        main = defect / r ** (2.0 * tau + 2.0)
        lhs = [chi * (eps ** 2 * mass / r ** e + main) if eps else chi * main
               for e in exponents]
        return (lhs[0], _carleman_rhs(cutoff, tau, r, dirichlet, mass), *lhs[1:])
    return integrand


def carleman_sides(f: QField, w: WeightSpec, cutoff: RadialBump,
                   quad: QuadratureSpec = REFERENCE_QUAD) -> CheckReport:
    """Both sides of the full weighted estimate.

    lhs = int chi sum_i ( eps^2 |f_i|^2 / |x|^E
                          + |Df_i . x - eta f_i|^2 / |x|^{2 tau + 2} ),
    rhs = int |Dchi| sum_i ( |Df_i|^2 / |x|^{2 tau - 1}
                             + |f_i|^2 / |x|^{2 tau + 1} ).
    When eps > 0 the left side under the other exponent variant is a third
    integral of the same integrand, judged by the second route with the
    two sides.
    """
    eta = w.eta(f.n)
    extra = {"eta": eta, "mass_exponent": w.mass_exponent()}
    exponents, more = (w.mass_exponent(),), ()
    if w.eps > 0.0:
        other = "statement" if w.exponent_variant == "proof" else "proof"
        extra["mass_exponent_" + other] = w.mass_exponent(other)
        exponents += (w.mass_exponent(other),)
        more = ("lhs_" + other + "_variant",)
    return _two_sided_report(
        "carleman", f, {"tau": w.tau, "eps": w.eps, "exponent_variant": w.exponent_variant},
        cutoff, _carleman_integrand(cutoff, w.tau, w.eps, exponents), eta, quad,
        extra=extra, more=more)


def first_carleman_sides(f: QField, tau: float, cutoff: RadialBump,
                         quad: QuadratureSpec = REFERENCE_QUAD) -> CheckReport:
    """The completed-square estimate: the integrand of carleman_sides at
    eps = 0, so no mass term on the left."""
    w = WeightSpec(tau=tau)
    eta = w.eta(f.n)
    return _two_sided_report("first-carleman", f, {"tau": tau}, cutoff,
                             _carleman_integrand(cutoff, tau, 0.0, (w.mass_exponent(),)),
                             eta, quad, extra={"eta": eta})


def pre_carleman_sides(f: QField, tau: float, cutoff: RadialBump,
                       quad: QuadratureSpec = REFERENCE_QUAD) -> CheckReport:
    """The pre-square estimate with signed left side.

    lhs = int chi sum_i ( |d_r f_i|^2 / |x|^{2 tau}
                          - eta^2 |f_i|^2 / |x|^{2 tau + 2} ),
    rhs = (eta / tau) int |Dchi| sum_i ( |Df_i|^2 / |x|^{2 tau - 1}
                                         + |f_i|^2 / |x|^{2 tau + 1} ).
    The left side may be negative, in which case the bound holds trivially.
    With k = 0, S = |x|^2 |d_r f|^2, so the left integrand is
    chi (S - eta^2 M) / |x|^{2 tau + 2}.
    """
    eta = WeightSpec(tau=tau).eta(f.n)

    def integrand(r, mass, dirichlet, defect):
        lhs = cutoff.chi_r(r) * (defect - eta ** 2 * mass) / r ** (2.0 * tau + 2.0)
        return lhs, (eta / tau) * _carleman_rhs(cutoff, tau, r, dirichlet, mass)

    return _two_sided_report("pre-carleman", f, {"tau": tau}, cutoff, integrand, 0.0, quad,
                             extra={"eta": eta}, signed_lhs=True)


# ---------------------------------------------------------------------------
# three-sphere and doubling


class RadiusHypothesisError(ValueError):
    """A three-sphere radius precondition failed; the message names it."""


def shell_mass(f: QField, x, r: float, quad: QuadratureSpec = REFERENCE_QUAD) -> float:
    """Squared mass of the dyadic shell B_2r minus B_r about x."""
    return l2_mass(f, annulus(x, r, 2.0 * r), quad)


def three_sphere_check(f: QField, x, r1: float, r2: float, r3: float, tau: float,
                       quad: QuadratureSpec = REFERENCE_QUAD) -> CheckReport:
    """Empirical constant of the three-annulus inequality.

    lhs = [1/(1+log(r3/r2)^2) + 1/(1+log(r2/r1)^2)] M(r2) / r2^{2 tau},
    rhs = M(r1) / r1^{2 tau} + M(r3) / r3^{2 tau},
    with M(r) the squared mass of B_2r minus B_r(x). The case split of the
    underlying argument (rescale to the end the middle radius is closer to)
    and the matching eps recipe are recorded. tau must be finite.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not math.isfinite(tau):
        raise ValueError("tau must be finite, got %r" % tau)
    if not r1 > 0.0:
        raise RadiusHypothesisError("need r1 > 0, got %g" % r1)
    if not (r1 < r2 < r3):
        raise RadiusHypothesisError("need r1 < r2 < r3, got %g, %g, %g" % (r1, r2, r3))
    if r3 / r2 <= 2.0:
        raise RadiusHypothesisError("ratio r3/r2 = %g must exceed 2" % (r3 / r2))
    if r2 / r1 <= 2.0:
        raise RadiusHypothesisError("ratio r2/r1 = %g must exceed 2" % (r2 / r1))
    if math.isfinite(f.domain_radius):
        bound = (f.domain_radius - float(np.linalg.norm(x_arr))) / 2.0
        if not r3 < bound:
            raise RadiusHypothesisError(
                "outer radius r3 = %g must stay below (R - |x|)/2 = %g" % (r3, bound))

    def masses(q):
        return (shell_mass(f, x_arr, r1, q), shell_mass(f, x_arr, r2, q),
                shell_mass(f, x_arr, r3, q))

    spec = radial.spectrum(f, x_arr)

    def masses_closed_form():
        return tuple(radial.integrals(spec, annulus(x_arr, r, 2.0 * r), (),
                                      lambda rr, mass, dirichlet, defect: (mass,))[0]
                     for r in (r1, r2, r3))

    (m1, m2, m3), _, route, disagreement = _two_resolution(
        masses, quad, exact=None if spec is None else masses_closed_form)
    log32 = math.log(r3 / r2)
    log21 = math.log(r2 / r1)
    weight = 1.0 / (1.0 + log32 ** 2) + 1.0 / (1.0 + log21 ** 2)
    lhs = weight * m2 / r2 ** (2.0 * tau)
    rhs = m1 / r1 ** (2.0 * tau) + m3 / r3 ** (2.0 * tau)
    if log32 > log21:
        case = "rescale-to-r1"
        eps = eps_recipe(r1, r2)
    else:
        case = "rescale-to-r3"
        eps = eps_recipe(r2, r3)
    c_est, verdict, notes = _ratio_verdict(lhs, rhs, disagreement)
    return CheckReport(
        name="three-sphere",
        field_spec=f.tag,
        params={"center": tuple(x_arr.tolist()), "r1": r1, "r2": r2, "r3": r3, "tau": tau,
                "second_route": route},
        quantities={"lhs": lhs, "rhs": rhs, "c_est": c_est,
                    "shell_mass_r1": m1, "shell_mass_r2": m2, "shell_mass_r3": m3,
                    "eps_recipe": eps},
        resolutions=quad.meta(),
        verdict=verdict,
        notes=tuple(notes),
        provenance={"case": case},
    )


UNDERFLOW_MASS = 1e-280
ABSORPTION_HALVINGS = 200
DOUBLING_DRIFT_TOL = 0.25


def doubling_check(f: QField, x, r: float, kappa_x: float,
                   quad: QuadratureSpec = REFERENCE_QUAD, eta_abs: float = 0.1,
                   levels: int = 3) -> CheckReport:
    """Doubling constant of the squared mass at self-selected small scales.

    Starting from r the op scans dyadically downward until the absorption
    criterion eps^{2 eta_abs} < 1/2 holds (the scale at which the
    higher-radius term of the underlying argument can be reabsorbed), then
    reports C_est(eps) = mass(B_2eps) / mass(B_eps) over `levels` dyadic
    scales from there. Pass requires every C_est finite with relative drift
    at most DOUBLING_DRIFT_TOL; a vanishing denominator yields a diagnostic
    verdict. r and eta_abs must be positive, eta_abs finite, and levels at
    least 1. When the criterion still fails after ABSORPTION_HALVINGS
    halvings of r, the report says so and cannot pass.
    """
    if not 0.0 < eta_abs < math.inf:
        raise ValueError("eta_abs must be positive and finite, got %g" % eta_abs)
    if not r > 0.0:
        raise ValueError("r must be positive, got %g" % r)
    if levels < 1:
        raise ValueError("levels must be at least 1, got %d" % levels)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    eps = float(r)
    guard = 0
    while eps ** (2.0 * eta_abs) >= 0.5 and guard < ABSORPTION_HALVINGS:
        eps *= 0.5
        guard += 1
    r_x = eps
    absorbed = r_x ** (2.0 * eta_abs) < 0.5
    scales, ratios = [], []
    trivial = False
    for j in range(levels):
        scale = r_x * 0.5 ** j
        denom = l2_mass(f, ball(x_arr, scale), quad)
        numer = l2_mass(f, ball(x_arr, 2.0 * scale), quad)
        scales.append(scale)
        if denom <= UNDERFLOW_MASS:
            trivial = True
            ratios.append(math.inf if numer > denom else 1.0)
            break
        ratios.append(numer / denom)
    tau_abs = (2.0 * kappa_x + f.n + 4.0 * eta_abs) / 2.0
    expected = 2.0 ** (2.0 * kappa_x + f.n)
    notes = []
    if trivial:
        verdict = "diagnostic"
        notes.append("squared mass below underflow threshold: trivial near x")
        drift = 0.0
    else:
        finite = all(math.isfinite(c) for c in ratios)
        drift = 0.0
        if len(ratios) >= 2:
            drift = max(abs(a - b) / max(abs(b), 1e-300)
                        for a, b in zip(ratios[:-1], ratios[1:]))
        verdict = "pass" if (finite and drift <= DOUBLING_DRIFT_TOL) else "fail"
    if not absorbed:
        notes.append("absorption criterion eps^(2 eta_abs) < 1/2 not met after %d halvings "
                     "(value %r); the scales are not in the absorbed regime"
                     % (ABSORPTION_HALVINGS, r_x ** (2.0 * eta_abs)))
        if verdict == "pass":
            verdict = "fail"
    return CheckReport(
        name="doubling",
        field_spec=f.tag,
        params={"center": tuple(x_arr.tolist()), "r": r, "kappa_x": kappa_x,
                "eta_abs": eta_abs, "levels": levels, "drift_tol": DOUBLING_DRIFT_TOL},
        quantities={"absorption_scale": r_x,
                    "absorption_value": r_x ** (2.0 * eta_abs),
                    "tau_abs": tau_abs,
                    "scales": scales, "c_est": ratios,
                    "c_est_final": ratios[-1] if ratios else math.nan,
                    "expected_homogeneous": expected, "drift": drift},
        resolutions=quad.meta(),
        verdict=verdict,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# bent weight


def _hermite(t, a, b, p0, m0, p1, m1, order):
    """Cubic Hermite interpolant on [a, b] with endpoint values p0, p1 and
    endpoint slopes m0, m1; order 0/1/2 selects value/derivative/second."""
    length = b - a
    s = (t - a) / length
    if order == 0:
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        return h00 * p0 + h10 * length * m0 + h01 * p1 + h11 * length * m1
    if order == 1:
        h00 = 6 * s ** 2 - 6 * s
        h10 = 3 * s ** 2 - 4 * s + 1
        h01 = -6 * s ** 2 + 6 * s
        h11 = 3 * s ** 2 - 2 * s
        return (h00 * p0 + h10 * length * m0 + h01 * p1 + h11 * length * m1) / length
    h00 = 12 * s - 6
    h10 = 6 * s - 4
    h01 = -12 * s + 6
    h11 = 6 * s - 2
    return (h00 * p0 + h10 * length * m0 + h01 * p1 + h11 * length * m1) / length ** 2


@dataclass(frozen=True)
class BentWeight:
    """phi(t) = t + delta psi(t), a bend of the straight weight exponent.

    psi is the delta-independent shape with psi(t) = -t outside
    [log 2 r1, log r2] and psi(t) = 2 t on the middle window
    [log sqrt(r1 r2), log 2 sqrt(r1 r2)], joined by C^1 cubic connectors.
    On the two ramp windows phi equals the shallow line (1 - delta) t and
    on the middle window it equals the steep line (1 + 2 delta) t, so the
    weight exp(-2 tau phi) is amplified on the middle annulus and eased at
    the two ends. The certified sups bound |phi' - 1| and |phi''|; both
    are exactly linear in delta."""

    delta: float
    r1: float
    r2: float
    sup_dphi_minus_1: float
    sup_d2phi: float
    _knots: tuple

    def phi(self, t):
        return np.asarray(t, dtype=float) + self.delta * self.psi(t)

    def dphi(self, t):
        return 1.0 + self.delta * self.psi(t, order=1)

    def d2phi(self, t):
        return self.delta * self.psi(t, order=2)

    def knot_radii(self) -> tuple:
        """Radii where the weight exponent switches analytic pieces."""
        return tuple(math.exp(t) for t in self._knots)

    def psi(self, t, order: int = 0):
        t = np.asarray(t, dtype=float)
        ta, tm, tm2, tb = self._knots
        if order == 0:
            flat = -t
            mid = 2.0 * t
        elif order == 1:
            flat = np.full(t.shape, -1.0)
            mid = np.full(t.shape, 2.0)
        else:
            flat = np.zeros(t.shape)
            mid = np.zeros(t.shape)
        out = np.where((t >= tm) & (t <= tm2), mid, flat)
        # each cubic connector only on its own open window
        rise = (t > ta) & (t < tm)
        fall = (t > tm2) & (t < tb)
        out[rise] = _hermite(t[rise], ta, tm, -ta, -1.0, 2.0 * tm, 2.0, order)
        out[fall] = _hermite(t[fall], tm2, tb, 2.0 * tm2, 2.0, -tb, -1.0, order)
        return out


def build_phi_delta(delta: float, r1: float, r2: float) -> BentWeight:
    """Construct the bent weight exponent and certify its interval properties.

    Requires r2 > 4 r1 (so the middle window clears both ramp windows) and
    r2 <= 1/2 (the bend is meant for radii below scale one). The interval
    comparisons hold with equality by construction; they are still checked
    numerically on dense grids as a defense against geometry mistakes."""
    if delta < 0.0:
        raise BentWeightError("delta must be nonnegative")
    if not (0.0 < r1 < r2):
        raise BentWeightError("need 0 < r1 < r2")
    if r2 <= 4.0 * r1:
        raise BentWeightError("need r2 > 4 r1 so the bend windows are ordered")
    if r2 > 0.5:
        raise BentWeightError("need r2 <= 1/2 so the bend sits at radii below scale one")
    ta = math.log(2.0 * r1)
    tm = math.log(math.sqrt(r1 * r2))
    tm2 = math.log(2.0 * math.sqrt(r1 * r2))
    tb = math.log(r2)
    knots = (ta, tm, tm2, tb)

    bent = BentWeight(delta=float(delta), r1=float(r1), r2=float(r2),
                      sup_dphi_minus_1=0.0, sup_d2phi=0.0, _knots=knots)
    grid = np.linspace(math.log(r1) - 0.5, math.log(2.0 * r2) + 0.5, 20001)
    sup1 = float(np.max(np.abs(bent.dphi(grid) - 1.0)))
    sup2 = float(np.max(np.abs(bent.d2phi(grid))))
    bent = BentWeight(delta=float(delta), r1=float(r1), r2=float(r2),
                      sup_dphi_minus_1=sup1, sup_d2phi=sup2, _knots=knots)

    # certify the three documented interval properties
    low = np.concatenate([np.linspace(math.log(r1), math.log(2.0 * r1), 101),
                          np.linspace(math.log(r2), math.log(2.0 * r2), 101)])
    tol = 1e-12 * (1.0 + np.abs(low))
    if np.any(bent.phi(low) < (1.0 - delta) * low - tol):
        raise BentWeightError("lower comparison phi(t) >= (1 - delta) t violated "
                              "on the outer ramp windows")
    midw = np.linspace(tm, tm2, 101)
    tol = 1e-12 * (1.0 + np.abs(midw))
    if np.any(bent.phi(midw) > (1.0 + 2.0 * delta) * midw + tol):
        raise BentWeightError("upper comparison phi(t) <= (1 + 2 delta) t violated "
                              "on the middle window")
    return bent


def modified_carleman_sides(f: QField, tau: float, bent: BentWeight,
                            cutoff: RadialBump,
                            quad: QuadratureSpec = REFERENCE_QUAD) -> CheckReport:
    """Both sides of the bent-weight estimate, three integrals reported.

    lhs = int chi sum_i |d_r f_i - eta f_i / |x||^2 e^{-2 tau phi(log|x|)};
    rhs boundary term = int |Dchi| sum_i (|x| |Df_i|^2 + |f_i|^2/|x|) w;
    rhs bulk term = (sup|phi'-1| + sup|phi''|)
                    int chi sum_i (|Df_i|^2 + |f_i|^2/|x|^2) w.
    At delta = 0 the weight is |x|^{-2 tau} and the check reduces exactly
    to the completed-square estimate.
    """
    eta = WeightSpec(tau=tau).eta(f.n)
    bulge = bent.sup_dphi_minus_1 + bent.sup_d2phi

    def integrand(r, mass, dirichlet, defect):
        """(lhs, rhs boundary term, rhs bulk integral) at k = eta, weight
        taken once: |d_r f - eta f / |x||^2 = S / |x|^2."""
        weight = np.exp(-2.0 * tau * bent.phi(np.log(r)))
        chi = cutoff.chi_r(r)
        return (chi * defect / (r * r) * weight,
                np.abs(cutoff.dchi_r(r)) * (r * dirichlet + mass / r) * weight,
                chi * (dirichlet + mass / r ** 2) * weight)

    def sides(lhs, boundary, bulk_int):
        return lhs, boundary + bulge * bulk_int, {
            "rhs_boundary": boundary, "rhs_bulk_integral": bulk_int, "bulk_coefficient": bulge,
            "sup_dphi_minus_1": bent.sup_dphi_minus_1, "sup_d2phi": bent.sup_d2phi}

    return _two_sided_report(
        "modified-carleman", f, {"tau": tau, "delta": bent.delta, "r1": bent.r1, "r2": bent.r2},
        cutoff, integrand, eta, quad, knots=bent.knot_radii(), sides=sides)


# ---------------------------------------------------------------------------
# sweep helper


def carleman_row(f: QField, tau: float, eps: float, cutoff: RadialBump,
                 quad: QuadratureSpec = REFERENCE_QUAD):
    """One row of the weighted-estimate sweep: carleman_sides at (tau, eps)."""
    w = WeightSpec(tau=float(tau), eps=float(eps))
    rep = carleman_sides(f, w, cutoff, quad)
    return {
        "field": f.tag,
        "tau": float(tau),
        "eps": float(eps),
        "cutoff_kind": cutoff.kind,
        "cutoff_radii": cutoff.radii,
        "lhs": rep.quantities["lhs"],
        "rhs": rep.quantities["rhs"],
        "ratio": rep.quantities["ratio"],
        "verdict": rep.verdict,
    }


def carleman_tau_sweep(f: QField, taus, cutoffs, quad: QuadratureSpec = REFERENCE_QUAD):
    """Rows of the (tau x cutoff) sweep for one field, each cutoff at the
    three-sphere eps recipe eps_recipe(a_lo, a_hi) of its plateau."""
    rows = []
    for cutoff in cutoffs:
        eps = eps_recipe(cutoff.a_lo, cutoff.a_hi)
        rows.extend(carleman_row(f, tau, eps, cutoff, quad) for tau in taus)
    return rows


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each group of tied values at its mean rank."""
    order = np.argsort(x, kind="mergesort")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[:-1] != y[1:])))
    counts = np.diff(starts, append=y.size)
    ranks = np.empty(y.size)
    ranks[order] = np.repeat((starts + 1.0) + (counts - 1.0) / 2.0, counts)
    return ranks


def tau_trend_statistic(rows):
    """Spearman rank correlation of ratio against tau over sweep rows.

    Nonpositive correlation is the no-upward-trend criterion; the value is
    reported either way. It is nan when the ratios are constant or hold a
    nan. The ranking and correlation follow scipy.stats.spearmanr step for
    step, so the value is the same double.
    """
    taus = [row["tau"] for row in rows]
    ratios = [row["ratio"] for row in rows]
    if len(set(taus)) < 2:
        raise ValueError("need at least two distinct tau values for a trend")
    data = np.column_stack((np.asarray(taus, dtype=float), np.asarray(ratios, dtype=float)))
    if (data[:, 1] == data[0, 1]).all() or np.isnan(data).any():
        return math.nan
    ranked = np.column_stack([_average_ranks(col) for col in data.T])
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])
