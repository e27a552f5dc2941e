"""Frequency functions, vanishing order, and homogeneity diagnostics.

Two frequency normalizations are provided. The sharp one is
I(x, r) = r D(x, r) / H(x, r) with D the Dirichlet energy of the ball and
H the squared boundary trace. The smoothed one replaces the ball indicator
by the linear ramp phi(t) = min(1, max(0, 2 - t)) in t = |y - x| / r and
the boundary trace by the distance-weighted shell mass
(1/r) int_{B_2r \\ B_r} |f|^2 / |y - x|. For a homogeneous field both
normalizations return the homogeneity degree, which makes their agreement
a cheap consistency check on the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import QField
from .report import CheckReport
from .variational import (
    QuadratureSpec,
    REFERENCE_QUAD,
    _dirichlet_density,
    _guard_branch,
    _mass_density,
    annulus,
    ball,
    dirichlet_energy,
    integrate_region,
    l2_mass,
    moment_integrals,
    sphere_integral,
    tree_sum,
)

MASS_FLOOR = 1e-280
SLOPE_CEILING = 50.0
FIT_WINDOW = 4
EPS_USC = 0.05
USC_STENCIL = 8
USC_N_RADII = 6
VARIANT_TOL = 1e-6
IDENTITY_TOL = 1e-6
IDENTITY_NODES = 24


class ZeroHeightError(ValueError):
    """The boundary trace vanishes, so the frequency ratio is undefined."""


def height(f: QField, x, r: float, quad: QuadratureSpec = REFERENCE_QUAD) -> float:
    """Squared boundary trace H(x, r) = int_{bd B_r(x)} sum_i |f_i|^2."""
    return sphere_integral(f, x, r, quad, _mass_density)


def _shell_density(X, rho, vals, grads):
    return _mass_density(X, rho, vals, grads) / rho


def _ramp(rho, r: float):
    """The linear ramp cutoff phi(|y - x| / r) = min(1, max(0, 2 - |y - x| / r))."""
    return np.minimum(1.0, np.maximum(0.0, 2.0 - rho / r))


_HEIGHT_NAMES = {"sharp": "boundary trace", "linear": "shell mass"}


def _height(f: QField, x, r: float, quad: QuadratureSpec, variant: str) -> float:
    """The height of variant at r: a sphere integral for sharp, the
    distance-weighted shell mass (1/r) int_{B_2r \\ B_r} |f|^2 / |y - x| for
    linear. A vanishing height raises ZeroHeightError."""
    if variant == "sharp":
        h = height(f, x, r, quad)
    elif variant == "linear":
        h = integrate_region(f, annulus(x, r, 2.0 * r), quad, _shell_density,
                             need_gradients=False) / r
    else:
        raise ValueError("variant must be sharp or linear, got %r" % (variant,))
    if h <= 0.0:
        raise ZeroHeightError("%s vanishes at r=%g" % (_HEIGHT_NAMES[variant], r))
    return h


def frequency(f: QField, x, r: float, quad: QuadratureSpec = REFERENCE_QUAD,
              variant: str = "sharp") -> float:
    """Frequency at center x and scale r under the chosen normalization.

    The height comes first, so a vanishing height raises ZeroHeightError
    before the ball that carries the energy, B_r for sharp or the ramp ball
    B_2r split at r for linear, is checked against the field's branch
    points and domain.
    """
    h = _height(f, x, r, quad, variant)
    if variant == "sharp":
        return r * dirichlet_energy(f, ball(x, r), quad) / h

    def density(X, rho, vals, grads):
        return _ramp(rho, r) * _dirichlet_density(X, rho, vals, grads)

    return integrate_region(f, ball(x, 2.0 * r), quad, density, need_values=False,
                            breakpoints=(r,)) / h


def variant_agreement(f: QField, x, r: float,
                      quad: QuadratureSpec = REFERENCE_QUAD) -> CheckReport:
    """Compare the two frequency normalizations at one scale.

    They agree exactly on homogeneous fields; the report is a quadrature
    consistency check there and a diagnostic elsewhere, with tolerance
    VARIANT_TOL. Both energies come from one integral over B_2r split at r,
    which holds the panels of B_r (at most two): the sharp entry is the
    energy times the indicator of B_r, which adds exact zeros on the shell
    panel, so each energy is bit for bit that of its own ball. The shell
    B_2r \\ B_r adds values on its one panel.
    """
    h_sharp = _height(f, x, r, quad, "sharp")
    _guard_branch(f, ball(x, r))
    h_linear = _height(f, x, r, quad, "linear")

    def density(X, rho, vals, grads):
        energy = _dirichlet_density(X, rho, vals, grads)
        return (rho < r) * energy, _ramp(rho, r) * energy

    d_sharp, d_linear = integrate_region(f, ball(x, 2.0 * r), quad, density,
                                         need_values=False, breakpoints=(r,))
    sharp, linear = r * d_sharp / h_sharp, d_linear / h_linear
    gap = abs(sharp - linear)
    return CheckReport(
        name="frequency-variants",
        field_spec=f.tag,
        params={"center": tuple(np.atleast_1d(x).tolist()), "r": r, "tol": VARIANT_TOL},
        quantities={"sharp": sharp, "linear": linear, "gap": gap},
        resolutions=quad.meta(),
        verdict="pass" if gap <= VARIANT_TOL else "fail",
    )


# ---------------------------------------------------------------------------
# radial profiles


@dataclass(frozen=True)
class RadialProfile:
    """A named quantity sampled along a decreasing sequence of radii."""

    quantity: str
    center: tuple
    radii: tuple
    values: tuple
    resolutions: dict

    def rows(self):
        return [(r, v) for r, v in zip(self.radii, self.values)]


def frequency_profile(f: QField, x, radii, quad: QuadratureSpec = REFERENCE_QUAD,
                      variant: str = "sharp") -> RadialProfile:
    """The frequency at every radius, one radius at a time."""
    radii = tuple(float(r) for r in radii)
    values = tuple(frequency(f, x, r, quad, variant) for r in radii)
    return RadialProfile(quantity="frequency-" + variant,
                         center=tuple(np.atleast_1d(x).tolist()),
                         radii=radii, values=values,
                         resolutions=quad.meta())


# ---------------------------------------------------------------------------
# vanishing order


@dataclass(frozen=True)
class KappaEstimate:
    """Least-squares vanishing order from annular mean masses.

    kappa is the innermost-window slope estimate (inf when the infinite
    order flag is set); window_slopes are the per-window estimates used for
    the stability drift; residual is the rms misfit of the innermost fit.
    """

    kappa: float
    infinite_order: bool
    radii: tuple
    means: tuple
    window_slopes: tuple
    drift: float
    residual: float
    note: str = ""


def _annular_mean(f: QField, x, r: float, quad: QuadratureSpec) -> float:
    mass = l2_mass(f, annulus(x, r, 2.0 * r), quad)
    if f.n == 2:
        vol = 3.0 * math.pi * r * r
    else:
        vol = 28.0 * math.pi / 3.0 * r ** 3
    return mass / vol


def vanishing_order(f: QField, x, r_max: float = 0.5, n_radii: int = 8,
                    quad: QuadratureSpec = REFERENCE_QUAD) -> KappaEstimate:
    """Fit the growth exponent of annular mean masses at dyadic scales.

    The mean of |f|^2 over the annulus B_2r \\ B_r(x) scales like r^{2 kappa}
    at a point of vanishing order kappa (and tends to |f(x)|^2 > 0, slope 0,
    where the field does not vanish). The estimate is the slope of
    log(mean) against 2 log(r) over sliding windows of FIT_WINDOW dyadic
    radii; the innermost window wins and the drift between windows is
    reported. The
    infinite-order flag is raised, with a note naming the rule that fired,
    when every mean falls below MASS_FLOOR, when a trailing run of the
    innermost means does, or when the two innermost windows both exceed
    SLOPE_CEILING.
    """
    if n_radii < 4:
        raise ValueError("need at least 4 dyadic radii, got %d" % n_radii)
    radii = tuple(r_max * 0.5 ** j for j in range(n_radii))
    means = tuple(_annular_mean(f, x, r, quad) for r in radii)

    floor_hit = [m < MASS_FLOOR for m in means]
    if all(floor_hit):
        return KappaEstimate(kappa=math.inf, infinite_order=True, radii=radii,
                             means=means, window_slopes=(), drift=0.0, residual=0.0,
                             note="all annular means below mass floor")

    # fit only radii whose mean is usable; a trailing run under the floor
    # is itself evidence of infinite order
    usable = [j for j, hit in enumerate(floor_hit) if not hit]
    slopes = []
    for start in range(len(usable) - FIT_WINDOW + 1):
        idx = usable[start:start + FIT_WINDOW]
        t = np.array([2.0 * math.log(radii[j]) for j in idx])
        y = np.array([math.log(means[j]) for j in idx])
        coef = np.polyfit(t, y, 1)
        slopes.append(float(coef[0]))
    if not slopes:
        return KappaEstimate(kappa=math.inf, infinite_order=True, radii=radii,
                             means=means, window_slopes=(), drift=0.0, residual=0.0,
                             note="too few usable annular means")

    fired = []
    if floor_hit[-1]:
        fired.append("innermost %d annular means below mass floor"
                     % (len(floor_hit) - 1 - usable[-1]))
    if len(slopes) >= 2 and slopes[-1] > SLOPE_CEILING and slopes[-2] > SLOPE_CEILING:
        fired.append("two innermost window slopes %.6g, %.6g above slope ceiling %g"
                     % (slopes[-2], slopes[-1], SLOPE_CEILING))
    if fired:
        return KappaEstimate(kappa=math.inf, infinite_order=True, radii=radii,
                             means=means, window_slopes=tuple(slopes), drift=0.0,
                             residual=0.0, note="; ".join(fired))

    # t, y and coef still hold the innermost window's fit
    fit = np.polyval(coef, t)
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    drift = 0.0
    if len(slopes) >= 2:
        drift = max(abs(a - b) for a, b in zip(slopes[:-1], slopes[1:]))
    return KappaEstimate(kappa=float(coef[0]), infinite_order=False, radii=radii,
                         means=means, window_slopes=tuple(slopes), drift=drift,
                         residual=residual)


# ---------------------------------------------------------------------------
# the derivative identity for the height


def frequency_identity_check(f: QField, x, r_lo: float, r_hi: float,
                             quad: QuadratureSpec = REFERENCE_QUAD,
                             nodes: int = IDENTITY_NODES) -> CheckReport:
    """Integrated height identity between two scales.

    Checks log(H(r)/r^{n-1}) - log(H(s)/s^{n-1}) = int_s^r 2 I(t) dt / t by
    Gauss-Legendre quadrature in log t against direct evaluation of both
    heights, to IDENTITY_TOL relative. Holds for energy-stationary fields;
    fails when H vanishes.
    """
    if not (0.0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    h_lo = height(f, x, r_lo, quad)
    h_hi = height(f, x, r_hi, quad)
    if min(h_lo, h_hi) <= 0.0:
        raise ZeroHeightError("height vanishes at one of the compared scales")
    lhs = math.log(h_hi / r_hi ** (f.n - 1)) - math.log(h_lo / r_lo ** (f.n - 1))
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (math.log(r_hi) + math.log(r_lo))
    half = 0.5 * (math.log(r_hi) - math.log(r_lo))
    radii = tuple(math.exp(mid + half * u) for u in xg)
    freqs = [frequency(f, x, r, quad) for r in radii]
    rhs = tree_sum([2.0 * fr * half * w for fr, w in zip(freqs, wg)])
    gap = abs(lhs - rhs)
    scale = max(1.0, abs(lhs))
    return CheckReport(
        name="frequency-identity",
        field_spec=f.tag,
        params={"center": tuple(np.atleast_1d(x).tolist()), "r_lo": r_lo,
                "r_hi": r_hi, "nodes": nodes, "tol": IDENTITY_TOL},
        quantities={"lhs": lhs, "rhs": rhs, "gap": gap, "height_lo": h_lo,
                    "height_hi": h_hi},
        resolutions=quad.meta(),
        verdict="pass" if gap <= IDENTITY_TOL * scale else "fail",
    )


# ---------------------------------------------------------------------------
# homogeneity deficit and semicontinuity


def _deficit_integrand(r, mass, dirichlet, defect):
    """(S, M) at k = kappa: the deficit's numerator and denominator."""
    return defect, mass


def homogeneity_deficit(f: QField, x, inner: float, outer: float, kappa: float,
                        quad: QuadratureSpec = REFERENCE_QUAD) -> float:
    """Normalized defect of kappa-homogeneity about x on an annulus.

    int sum_i |Df_i . (y - x) - kappa f_i|^2 divided by int sum_i |f_i|^2.
    Zero exactly for kappa-homogeneous fields; (kappa' - kappa)^2 for a
    kappa'-homogeneous field, so the window profile separates degrees.
    """
    num, den = moment_integrals(f, annulus(x, inner, outer), quad, _deficit_integrand, kappa)
    if den <= 0.0:
        raise ZeroHeightError("squared mass vanishes on the deficit window")
    return num / den


def deficit_profile(f: QField, x, kappa: float, r_max: float = 0.5, n_windows: int = 5,
                    quad: QuadratureSpec = REFERENCE_QUAD):
    """Deficit on shrinking dyadic annuli [r/2, r], outermost first."""
    out = []
    for j in range(n_windows):
        r = r_max * 0.5 ** j
        out.append((r, homogeneity_deficit(f, x, 0.5 * r, r, kappa, quad)))
    return out


def semicontinuity_probe(f: QField, x, d: float, quad: QuadratureSpec = REFERENCE_QUAD,
                         r_max: float | None = None) -> CheckReport:
    """Compare the vanishing order at x with USC_STENCIL points at distance d,
    each fitted on USC_N_RADII dyadic radii below r_max.

    Upper semicontinuity predicts every neighbor order is at most the
    center order plus EPS_USC. Neighbor annuli reach radius 2 r_max, which
    must stay below the stencil distance so they never wrap the center.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if r_max is None:
        r_max = 0.4 * d
    if 2.0 * r_max >= d:
        raise ValueError("neighbor windows reach 2 r_max, which must stay below "
                         "the stencil distance d")
    center_est = vanishing_order(f, x, quad=quad)
    neighbor_kappas = []
    for j in range(USC_STENCIL):
        theta = 2.0 * math.pi * j / USC_STENCIL
        step = np.zeros_like(x)
        step[0] = d * math.cos(theta)
        step[1] = d * math.sin(theta)
        est = vanishing_order(f, x + step, r_max=r_max, n_radii=USC_N_RADII, quad=quad)
        neighbor_kappas.append(est.kappa)
    finite_neighbors = [k for k in neighbor_kappas if math.isfinite(k)]
    worst = max(finite_neighbors) if finite_neighbors else -math.inf
    ok = (not math.isfinite(center_est.kappa)) or worst <= center_est.kappa + EPS_USC
    return CheckReport(
        name="order-semicontinuity",
        field_spec=f.tag,
        params={"center": tuple(x.tolist()), "distance": d, "eps_usc": EPS_USC,
                "stencil": USC_STENCIL, "r_max": r_max},
        quantities={"kappa_center": center_est.kappa,
                    "kappa_neighbors": list(neighbor_kappas),
                    "max_finite_neighbor": worst},
        resolutions=quad.meta(),
        verdict="pass" if ok else "fail",
    )
