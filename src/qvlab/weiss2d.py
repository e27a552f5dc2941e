"""Disk machinery for planar multivalued fields.

Circle traces decompose into irreducible pieces: cycles of the monodromy
permutation obtained by continuing sheets around the circle. Each cycle of
length Q_j unwinds to a closed curve in R^m, reparametrized to [0, 2pi],
whose Fourier coefficients drive everything else: closed-form Dirichlet
energies for the harmonic (rewound) and kappa-homogeneous extensions, the
disk solver that rebuilds the minimizing field from boundary data, the
boundary-adjusted Weiss energy with its derivative identity, and the
explicit spectral gap behind the epiperimetric inequality.

Winding-factor conventions (validated against direct quadrature, which is
authoritative for every closed form here):

- rewinding is conformal in the plane, so the rewound harmonic extension of
  a piece with winding Q has Dirichlet energy pi sum_l l r^(2l/Q) c_l with
  c_l = |a_l|^2 + |b_l|^2 -- no winding prefactor, but the radial exponent
  carries s = l/Q;
- the circle integral of the squared trace is pi Q r (sum_l r^(2s) c_l
  + |a0|^2 / 2): the winding multiplies the trace mass;
- the kappa-homogeneous extension of the same trace has energy
  r^(2 kappa) (pi sum_l [kappa Q / 2 + l^2 / (2 kappa Q)] c_l
  + pi kappa Q |a0|^2 / 4).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qcore
from .fields import FieldSpecError, FourierPiece, QField, make_wound_field
from .frequency import RadialProfile
from .report import CheckReport, atomic_write_text, canonical_json
from .variational import (
    REFERENCE_QUAD,
    QuadratureSpec,
    _mass_density,
    ball,
    dirichlet_energy,
    sphere_integral,
    stationarity_battery,
)

BOUNDARY_FORMAT = "qvlab-boundary/1"
POLAR_FORMAT = "qvlab-polar-grid/1"
CONSTRUCTION_FORMAT = "qvlab-construction-cert/1"

ENERGY_CROSS_CHECK_REL_TOL = 1e-6
EPIPERIMETRIC_SLACK = 1e-8
COEFF_DROP_REL = 1e-13


class TraceContinuationError(RuntimeError):
    """Sheet continuation around the circle was ambiguous; the caller
    should refine the angular sampling."""


class UnderSampledError(ValueError):
    """Fourier analysis was asked for more modes than the sampling rate
    supports."""


class StepSizeError(RuntimeError):
    """The finite-difference step is too large for stable differencing."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BoundaryTrace:
    """Uniform angular samples of a Q-valued map on a circle.

    theta has shape (N,) with theta_i = 2 pi i / N; values has shape
    (N, Q, m). The sheet axis may be labeled arbitrarily per node: the
    continuation machinery only uses the multisets.
    """

    theta: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or theta.ndim != 1 or values.shape[0] != theta.shape[0]:
            raise FieldSpecError("trace needs theta (N,) and values (N, Q, m)")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", values)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @classmethod
    def sample(cls, f: QField, n_nodes: int, radius: float = 1.0,
               center=(0.0, 0.0)) -> "BoundaryTrace":
        if f.n != 2:
            raise FieldSpecError("circle traces require a planar domain")
        theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
        center = np.asarray(center, dtype=float)
        X = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return cls(theta=theta, values=f.values(X))


@dataclass(frozen=True)
class UnwoundCurve:
    """A monodromy cycle's closed curve, reparametrized to [0, 2 pi].

    samples holds N * winding uniform nodes; sheets records which sheet
    labels at node 0 the cycle visits, in traversal order.
    """

    winding: int
    samples: np.ndarray
    sheets: tuple


# ---------------------------------------------------------------------------
# continuation and decomposition


def _continuation_permutations(values: np.ndarray):
    """Per-node permutations matching each node's sheets to the next node's.

    Raises TraceContinuationError when the assignment at some node is
    ambiguous in a way that matters: a sheet has an alternative target
    almost as close as its matched one, and the two targets genuinely
    differ. Coincident targets (true double points of the sheet set) are
    benign: any choice produces the same curves.
    """
    n_nodes, q, _ = values.shape
    succ = np.roll(values, -1, axis=0)
    diff = values[:, :, None, :] - succ[:, None, :, :]
    costs = np.einsum("nstk,nstk->nst", diff, diff)
    if q <= qcore.EXHAUSTIVE_Q_MAX:
        perms = qcore.batch_match_permutations(costs)
    else:
        perms = np.empty((n_nodes, q), dtype=int)
        for i in range(n_nodes):
            rows, cols = qcore.linear_sum_assignment(costs[i])
            perms[i, rows] = cols

    scale = 1.0 + float(np.max(np.abs(values)))
    abs_tol = 1e-12 * scale
    benign_tol = 1e-9 * scale
    dists = np.sqrt(costs)
    if q > 1:
        for i in range(n_nodes):
            perm = perms[i]
            for s in range(q):
                matched = dists[i, s, perm[s]]
                row = dists[i, s].copy()
                row[perm[s]] = np.inf
                rival = int(np.argmin(row))
                if row[rival] >= 2.0 * matched + abs_tol:
                    continue
                gap = float(np.linalg.norm(succ[i, rival] - succ[i, perm[s]]))
                if gap > benign_tol:
                    raise TraceContinuationError(
                        "continuation ambiguity at node %d: sheet %d has two "
                        "targets %.3e apart at comparable distance; refine the "
                        "angular sampling" % (i, s, gap))
    return perms


def irreducible_decompose(trace: BoundaryTrace):
    """Split a circle trace into monodromy cycles and unwind each one.

    Returns UnwoundCurve objects in ascending order of their smallest sheet
    label at node 0. The winding numbers sum to Q. Each cycle of length Q_j
    yields the closed curve gamma_j on [0, 2 pi Q_j], reparametrized to
    [0, 2 pi], so its samples are again uniform.

    When sheets coincide the monodromy pairing among the copies is
    arbitrary, so a cycle can come out longer than it should be; its
    unwound curve is then periodic. Each such cycle is split into copies of
    the shortest period, which is what makes the output pieces irreducible.
    """
    values = trace.values
    n_nodes, q, _ = values.shape
    perms = _continuation_permutations(values)

    # chain[i, s] = label at node i of the sheet that starts as label s
    chain = np.empty((n_nodes, q), dtype=int)
    chain[0] = np.arange(q)
    for i in range(n_nodes - 1):
        chain[i + 1] = perms[i][chain[i]]
    monodromy = perms[n_nodes - 1][chain[n_nodes - 1]]

    period_tol = 1e-9 * (1.0 + float(np.max(np.abs(values))))
    curves = []
    seen = np.zeros(q, dtype=bool)
    rows = np.arange(n_nodes)
    for s0 in range(q):
        if seen[s0]:
            continue
        cycle = []
        s = s0
        while not seen[s]:
            seen[s] = True
            cycle.append(s)
            s = int(monodromy[s])
        samples = np.concatenate([values[rows, chain[:, sk], :] for sk in cycle])
        q_j = len(cycle)
        winding = q_j
        for w in range(1, q_j):
            if q_j % w:
                continue
            shift = np.roll(samples, -n_nodes * w, axis=0)
            if float(np.max(np.abs(samples - shift))) <= period_tol:
                winding = w
                break
        for t in range(q_j // winding):
            curves.append(UnwoundCurve(winding=winding,
                                       samples=samples[:n_nodes * winding],
                                       sheets=tuple(cycle[t * winding:(t + 1) * winding])))
    return curves


def fourier_decompose(curve, max_mode: int | None = None):
    """Fourier coefficients of an unwound curve: (FourierPiece, rec_error).

    Accepts an UnwoundCurve or a raw (N, m) sample array, which is taken to
    have winding 1.
    Requires at least 4 * max_mode nodes. Coefficients below
    COEFF_DROP_REL relative to the sample scale are dropped; the returned
    error is the max-norm distance between the kept-mode reconstruction and
    the samples, relative to the sample scale.
    """
    if isinstance(curve, UnwoundCurve):
        samples = curve.samples
        winding = curve.winding
    else:
        samples = np.asarray(curve, dtype=float)
        winding = 1
    if samples.ndim != 2:
        raise FieldSpecError("curve samples must have shape (N, m)")
    n_nodes = samples.shape[0]
    if max_mode is None:
        max_mode = n_nodes // 4
    if n_nodes < 4 * max_mode:
        raise UnderSampledError(
            "need at least 4 max_mode = %d nodes, got %d" % (4 * max_mode, n_nodes))

    spectrum = np.fft.rfft(samples, axis=0)
    a0 = 2.0 * spectrum[0].real / n_nodes
    scale = max(1.0, float(np.max(np.abs(samples))))
    modes = []
    for l in range(1, max_mode + 1):
        b = 2.0 * spectrum[l].real / n_nodes
        a = -2.0 * spectrum[l].imag / n_nodes
        if max(np.max(np.abs(a)), np.max(np.abs(b))) > COEFF_DROP_REL * scale:
            modes.append((l, tuple(a), tuple(b)))
    piece = FourierPiece(winding=winding, a0=tuple(a0), modes=tuple(modes))

    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    rec = np.tile(0.5 * np.asarray(piece.a0), (n_nodes, 1))
    for l, a, b in piece.modes:
        rec += np.sin(l * theta)[:, None] * np.asarray(a)
        rec += np.cos(l * theta)[:, None] * np.asarray(b)
    rec_error = float(np.max(np.abs(rec - samples))) / scale
    return piece, rec_error


def analyze_trace(f: QField, n_nodes: int = 512):
    """Sample a field's trace on the unit circle and return its FourierPiece list."""
    trace = BoundaryTrace.sample(f, n_nodes)
    return [fourier_decompose(curve)[0] for curve in irreducible_decompose(trace)]


# ---------------------------------------------------------------------------
# closed-form energies


def harmonic_extension_energy(piece: FourierPiece, r: float = 1.0) -> float:
    """Dirichlet energy on B_r of the rewound harmonic extension.

    pi sum_l l r^(2 l / Q) c_l: rewinding is conformal, so the winding
    enters only through the radial exponent s = l / Q.
    """
    q = piece.winding
    return math.pi * sum(l * r ** (2.0 * l / q) * c for l, c in piece.mode_energies())


def homogeneous_extension_energy(piece: FourierPiece, kappa: float,
                                 r: float = 1.0) -> float:
    """Dirichlet energy on B_r of the kappa-homogeneous extension of the
    piece's wound trace."""
    if kappa <= 0:
        raise ValueError("homogeneity degree kappa must be positive")
    q = piece.winding
    total = sum((kappa * q / 2.0 + l * l / (2.0 * kappa * q)) * c
                for l, c in piece.mode_energies())
    a0_sq = sum(v * v for v in piece.a0)
    return r ** (2.0 * kappa) * (math.pi * total + math.pi * kappa * q * a0_sq / 4.0)


def trace_l2(piece: FourierPiece, r: float = 1.0) -> float:
    """Integral of the squared wound trace over the circle of radius r."""
    q = piece.winding
    a0_sq = sum(v * v for v in piece.a0)
    total = sum(r ** (2.0 * l / q) * c for l, c in piece.mode_energies())
    return math.pi * q * r * (total + a0_sq / 2.0)


def closed_form_dirichlet(pieces, r: float = 1.0) -> float:
    return sum(harmonic_extension_energy(p, r) for p in pieces)


# ---------------------------------------------------------------------------
# disk solver


def solve_disk(pieces, tag: str | None = None, quad: QuadratureSpec = REFERENCE_QUAD,
               domain_radius: float = math.inf) -> QField:
    """Rebuild the minimizing field from boundary pieces.

    Unwinds each piece, extends harmonically, rewinds. The certificate, a
    cross-check of the quadrature Dirichlet energy against the closed-form
    sum plus the stationarity gate, is computed on first read of
    construction_cert. A failed cross-check is flagged in the certificate
    rather than raised, so the discrepancy and both values stay inspectable.
    """
    pieces = list(pieces)
    if not pieces:
        raise FieldSpecError("need at least one boundary piece")
    m = pieces[0].m
    if any(p.m != m for p in pieces):
        raise FieldSpecError("boundary pieces disagree on target dimension")
    total_q = sum(p.winding for p in pieces)
    tag = tag or "disk:%d-pieces-q%d" % (len(pieces), total_q)
    field = make_wound_field(pieces, m=m, tag=tag, domain_radius=domain_radius)

    def certificate() -> dict:
        closed = closed_form_dirichlet(pieces)
        quadr = dirichlet_energy(field, ball((0.0, 0.0), 1.0), quad)
        rel = abs(closed - quadr) / max(abs(closed), abs(quadr), 1e-15)
        return {"format": CONSTRUCTION_FORMAT,
                "energy_closed_form": closed,
                "energy_quadrature": quadr,
                "energy_rel_gap": rel,
                "energy_cross_check": "pass" if rel <= ENERGY_CROSS_CHECK_REL_TOL else "fail",
                "stationarity": stationarity_battery(field, quad=quad).verdict}

    return dataclasses.replace(field, certificate_fn=certificate)


# ---------------------------------------------------------------------------
# Weiss energy


def weiss_energy(f: QField, x, kappa: float, r: float,
                 quad: QuadratureSpec = REFERENCE_QUAD,
                 exponent_dim: int | None = None) -> float:
    """Boundary-adjusted energy
    r^-(d + 2 kappa - 2) Dir(f, B_r(x)) - kappa r^-(d + 2 kappa - 1)
    int_{bd B_r(x)} |f|^2, with d the domain dimension by default.

    exponent_dim overrides d to reproduce conventions that write the
    exponents with the target dimension; scaling of homogeneous fields
    singles out the domain dimension, so that is the default.
    """
    if kappa <= 0:
        raise ValueError("homogeneity degree kappa must be positive")
    d = f.n if exponent_dim is None else int(exponent_dim)
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x)) + r > f.domain_radius:
        raise ValueError("ball of radius %g at %s leaves the field's domain" % (r, x.tolist()))
    return (r ** -(d + 2.0 * kappa - 2.0) * dirichlet_energy(f, ball(x, r), quad)
            - kappa * r ** -(d + 2.0 * kappa - 1.0)
            * sphere_integral(f, x, r, quad, _mass_density))


def weiss_profile(f: QField, x, kappa: float, radii,
                  quad: QuadratureSpec = REFERENCE_QUAD,
                  exponent_dim: int | None = None) -> RadialProfile:
    """weiss_energy at every radius, one radius at a time."""
    radii = tuple(float(r) for r in radii)
    vals = tuple(weiss_energy(f, x, kappa, r, quad, exponent_dim) for r in radii)
    return RadialProfile(quantity="weiss", center=tuple(np.asarray(x, dtype=float)),
                         radii=radii, values=vals, resolutions=quad.meta())


def _rescaled_boundary_terms(f: QField, x, kappa: float, r: float,
                             quad: QuadratureSpec):
    """Circle integrals of the rescaled field f_{x,r}(y) = f(x + r y) / r^kappa:

    returns (H1, T1, S1) = (int_{S^1} |f_{x,r}|^2,
    int_{S^1} |tangential derivative|^2,
    int_{S^1} sum_i |Df_{x,r,i} . y - kappa f_{x,r,i}|^2).
    """

    def density(X, rr, vals, grads):
        rel = (X - np.asarray(x, dtype=float)[None, :]) / rr[:, None]
        tang = np.stack([-rel[:, 1], rel[:, 0]], axis=1)
        tangential = np.einsum("nqmk,nk->nqm", grads, tang)
        radial = np.einsum("nqmk,nk->nqm", grads, rel)
        sq = rr[:, None, None] * radial - kappa * vals
        return (_mass_density(X, rr, vals, grads),
                np.einsum("nqm,nqm->n", tangential, tangential),
                np.einsum("nqm,nqm->n", sq, sq))

    mass, t_sq, s_sq = sphere_integral(f, x, r, quad, density, need_gradients=True)
    # the integrals above are over the circle of radius r with arclength
    # measure; rescale to the unit circle and divide by r^(2 kappa)
    h1 = mass / r ** (1.0 + 2.0 * kappa)
    t1 = t_sq * r / r ** (2.0 * kappa)
    s1 = s_sq / r ** (1.0 + 2.0 * kappa)
    return h1, t1, s1


def weiss_derivative_check(f: QField, x, kappa: float, r: float,
                           h: float | None = None,
                           quad: QuadratureSpec = REFERENCE_QUAD,
                           exponent_dim: int | None = None) -> CheckReport:
    """Centered finite difference of the Weiss energy against the identity

    dW/dr = ((d + 2 kappa - 2) / r) (W(f^kappa_{x,r}) - W(f_{x,r}))
            + (1/r) int_{S^1} sum_i |Df_{x,r,i} . y - kappa f_{x,r,i}|^2,

    where f_{x,r} is the kappa-rescaling and f^kappa_{x,r} the homogeneous
    extension of its trace. The two rescaled fields share the trace, so the
    W difference reduces to a Dirichlet gap; the homogeneous extension's
    energy is (kappa^2 H1 + T1) / (2 kappa) from the circle integrals of
    the squared trace and its tangential derivative.
    """
    if f.n != 2:
        raise FieldSpecError("the derivative identity is implemented on planar domains")
    if h is None:
        h = 0.02 * r
    if not 0.0 < h < r:
        raise StepSizeError("need 0 < h < r for centered differencing")
    d = f.n if exponent_dim is None else int(exponent_dim)

    def w_at(rr):
        return weiss_energy(f, x, kappa, rr, quad, exponent_dim)

    fd_wide = (w_at(r + h) - w_at(r - h)) / (2.0 * h)
    fd = (w_at(r + h / 2.0) - w_at(r - h / 2.0)) / h

    h1, t1, s1 = _rescaled_boundary_terms(f, x, kappa, r, quad)
    dir_rescaled = dirichlet_energy(f, ball(x, r), quad) / r ** (d + 2.0 * kappa - 2.0)
    dir_homog = (kappa * kappa * h1 + t1) / (2.0 * kappa)
    gap = dir_homog - dir_rescaled
    rhs = (d + 2.0 * kappa - 2.0) / r * gap + s1 / r

    scale = 1.0 + abs(rhs)
    disagreement = abs(fd_wide - fd) / max(abs(fd), 1e-10 * scale)
    if disagreement > 10.0:
        raise StepSizeError(
            "finite differences at h and h/2 disagree by a factor %.2g; "
            "shrink h below %g" % (disagreement, h))

    tol = max(1e-5, 1e-2 * abs(rhs))
    verdict = "pass" if abs(fd - rhs) <= tol else "fail"
    return CheckReport(
        name="weiss-derivative",
        field_spec=f.tag,
        params={"x": tuple(np.asarray(x, dtype=float)), "kappa": kappa, "r": r,
                "h": h, "exponent_dim": d},
        quantities={"finite_difference": fd, "finite_difference_wide": fd_wide,
                    "identity_rhs": rhs, "gap_term": (d + 2.0 * kappa - 2.0) / r * gap,
                    "square_term": s1 / r, "mismatch": abs(fd - rhs),
                    "tolerance": tol},
        resolutions=quad.meta(),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# epiperimetric inequality


def epiperimetric_delta(kappa) -> Fraction:
    """delta = (floor(kappa) + 1 - kappa) / (2 kappa), exactly."""
    kappa = _as_fraction(kappa)
    if kappa <= 0:
        raise ValueError("homogeneity degree kappa must be positive")
    return (math.floor(kappa) + 1 - kappa) / (2 * kappa)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError("expected an int, float, or Fraction, got %r" % (value,))


def mode_inequality(l: int, kappa) -> dict:
    """Both sides of the per-mode inequality
    l^2/(2 kappa) + kappa/2 - l >= delta (l - kappa), exactly in rationals.

    Floats convert exactly (every float is a dyadic rational), so equality
    cases are decided without floating-point doubt.
    """
    l = int(l)
    if l < 1:
        raise ValueError("mode index must be a positive integer")
    kappa = _as_fraction(kappa)
    if kappa <= 0:
        raise ValueError("homogeneity degree kappa must be positive")
    delta = epiperimetric_delta(kappa)
    lhs = Fraction(l * l, 1) / (2 * kappa) + kappa / 2 - l
    rhs = delta * (l - kappa)
    return {"lhs": lhs, "rhs": rhs, "delta": delta,
            "holds": lhs >= rhs, "equality": lhs == rhs}


def effective_delta(pieces, kappa: float):
    """min (s - kappa) / (2 kappa) over active unwound homogeneities
    s = l / Q_j above kappa; None when no active mode sits above kappa."""
    best = None
    for piece in pieces:
        for l, c in piece.mode_energies():
            if c <= 0.0:
                continue
            s = l / piece.winding
            if s > kappa:
                ratio = (s - kappa) / (2.0 * kappa)
                best = ratio if best is None else min(best, ratio)
    return best


def epiperimetric_check(data, kappa: float, n_nodes: int = 512) -> CheckReport:
    """Gap between the homogeneous and minimizing extensions against
    delta W(1).

    data is a FourierPiece list or a QField (whose unit-circle trace is
    analyzed). Quantities: the two extension energies, W(1) of the
    minimizing competitor, the stated delta, the margin gap - delta W, and
    the sharper effective delta read off the active modes. The verdict
    applies the stated delta with an absolute slack of 1e-8.
    """
    if kappa <= 0:
        raise ValueError("homogeneity degree kappa must be positive")
    if isinstance(data, QField):
        pieces = analyze_trace(data, n_nodes=n_nodes)
    else:
        pieces = list(data)
    e_hom = sum(homogeneous_extension_energy(p, kappa, 1.0) for p in pieces)
    e_min = closed_form_dirichlet(pieces, 1.0)
    boundary = sum(trace_l2(p, 1.0) for p in pieces)
    w1 = e_min - kappa * boundary
    gap = e_hom - e_min
    delta = float(epiperimetric_delta(kappa))
    margin = gap - delta * w1
    d_eff = effective_delta(pieces, kappa)
    margin_eff = gap - d_eff * w1 if d_eff is not None else gap
    verdict = "pass" if margin >= -EPIPERIMETRIC_SLACK else "fail"
    notes = []
    if verdict == "fail" and d_eff is not None and d_eff < delta:
        notes.append(
            "an active mode has unwound homogeneity in (kappa, floor(kappa)+1), "
            "so the stated delta exceeds the best constant (s - kappa)/(2 kappa) "
            "for this trace")
    return CheckReport(
        name="epiperimetric",
        field_spec=";".join("w%d" % p.winding for p in pieces),
        params={"kappa": kappa, "delta": delta},
        quantities={"homogeneous_energy": e_hom, "minimizing_energy": e_min,
                    "weiss_w1": w1, "gap": gap, "margin": margin,
                    "effective_delta": d_eff if d_eff is not None else delta,
                    "margin_effective": margin_eff},
        resolutions={"closed_form": True},
        verdict=verdict,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# external interfaces


def save_boundary_data(path: str, pieces) -> None:
    pieces = list(pieces)
    payload = {"format": BOUNDARY_FORMAT,
               "Q": sum(p.winding for p in pieces),
               "pieces": [p.to_dict() for p in pieces]}
    atomic_write_text(path, canonical_json(payload))


def load_boundary_data(path: str):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != BOUNDARY_FORMAT:
        raise FieldSpecError("unrecognized boundary-data format %r" % payload.get("format"))
    pieces = [FourierPiece.from_dict(d) for d in payload["pieces"]]
    if sum(p.winding for p in pieces) != payload["Q"]:
        raise FieldSpecError("piece windings do not add up to the declared Q")
    return pieces


def export_polar_grid(f: QField, path: str, radii, n_theta: int = 64) -> None:
    """Sampled polar grid CSV: r, theta, sheet, then the m components.

    Sheet rows at each node are sorted lexicographically by value so the
    file does not depend on internal sheet labeling.
    """
    if f.n != 2:
        raise FieldSpecError("polar export requires a planar domain")
    lines = ["# format: %s" % POLAR_FORMAT,
             "r,theta,sheet," + ",".join("u%d" % (j + 1) for j in range(f.m))]
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    for r in radii:
        X = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        vals = f.values(X)
        for i in range(n_theta):
            rows = sorted(tuple(row) for row in vals[i])
            for sheet, row in enumerate(rows):
                lines.append("%s,%s,%d,%s" % (repr(float(r)), repr(float(theta[i])),
                                              sheet, ",".join(repr(v) for v in row)))
    atomic_write_text(path, "\n".join(lines) + "\n")
