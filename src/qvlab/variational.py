"""Dirichlet-type quadrature and the first variation functionals.

The integration engine uses polar product rules: Gauss-Legendre panels in
radius times a periodic trapezoid rule in angle, which is spectrally
accurate for the smooth angular integrands that arise here. Annuli are cut
into geometrically refined subannuli; a ball ends in one panel graded as
r = b u^p, which turns the r^(j/p) powers of a field about its branch
point into polynomials in u, so power-law radial weights are exact. In three
dimensions the angular factor becomes a Gauss-Legendre rule in the polar
cosine times a trapezoid in azimuth. Summation is a fixed-order pairwise
tree so results are bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fields import QField
from .report import CheckReport

BRANCH_CLEARANCE = 1e-4


class RegionBranchError(ValueError):
    """Integration region passes through an off-center declared branch point."""


def tree_sum(values) -> float:
    """Fixed-order pairwise reduction; deterministic for a fixed input order."""
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n == 0:
        return 0.0
    p = 1 << (n - 1).bit_length()
    if p != n:
        v = np.concatenate([v, np.zeros(p - n)])
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return float(v[0])


# ---------------------------------------------------------------------------
# regions and quadrature specs


@dataclass(frozen=True)
class Region:
    kind: str
    center: tuple
    radii: tuple

    def __post_init__(self):
        if self.kind not in ("ball", "annulus"):
            raise ValueError("region kind must be ball or annulus")
        inner, outer = self.radii
        if not (0.0 <= inner < outer < math.inf):
            raise ValueError("radii must satisfy 0 <= inner < outer < inf, got %r"
                             % (self.radii,))
        if self.kind == "ball" and inner != 0.0:
            raise ValueError("ball regions have inner radius 0")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radii", (float(inner), float(outer)))

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


def ball(center, r: float) -> Region:
    return Region(kind="ball", center=tuple(np.atleast_1d(center)), radii=(0.0, float(r)))


def annulus(center, inner: float, outer: float) -> Region:
    return Region(kind="annulus", center=tuple(np.atleast_1d(center)), radii=(float(inner), float(outer)))


MAX_SUBDIVISIONS = 64
REFINEMENT_RATIO = 0.5


@dataclass(frozen=True)
class QuadratureSpec:
    """Polar product rule parameters.

    radial_order Gauss-Legendre nodes per panel; annuli are refined
    geometrically by REFINEMENT_RATIO toward their inner radius, at most
    MAX_SUBDIVISIONS levels between breakpoints, and a region that reaches
    its center ends in one graded panel (see _graded_rule). angular_nodes
    periodic-trapezoid nodes; polar_nodes is the Gauss-Legendre order of the
    polar factor for three-dimensional domains. integrate_region evaluates
    the field in blocks of at most one REFERENCE_QUAD panel's nodes (5120 in
    the plane); results do not depend on the block size.
    """

    radial_order: int = 20
    angular_nodes: int = 256
    polar_nodes: int = 32

    def __post_init__(self):
        if min(self.radial_order, self.angular_nodes, self.polar_nodes) <= 0:
            raise ValueError("all quadrature counts must be positive")

    def refined(self) -> "QuadratureSpec":
        """The rule with every node count doubled."""
        return replace(self, radial_order=self.radial_order * 2,
                       angular_nodes=self.angular_nodes * 2,
                       polar_nodes=self.polar_nodes * 2)

    def meta(self) -> dict:
        return {
            "radial_order": self.radial_order,
            "angular_nodes": self.angular_nodes,
            "polar_nodes": self.polar_nodes,
            "max_subdivisions": MAX_SUBDIVISIONS,
            "refinement_ratio": REFINEMENT_RATIO,
        }


REFERENCE_QUAD = QuadratureSpec()

_GL_CACHE: dict = {}


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and P_order'(x) by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for k in range(2, order + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return p, order * (x * p - prev) / (x * x - 1.0)


def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1]: numpy's nodes after three
    Newton steps on the recurrence, weights 2 / ((1 - x^2) P'(x)^2) at the
    polished nodes. numpy's rule misses the u^9 moment on [0, 1] by 2.3e-14
    relative at 60 nodes; the polished one by 1e-15."""
    if order not in _GL_CACHE:
        x = np.polynomial.legendre.leggauss(order)[0]
        for _ in range(3):
            p, dp = _legendre(order, x)
            x = x - p / dp
        dp = _legendre(order, x)[1]
        _GL_CACHE[order] = (x, 2.0 / ((1.0 - x * x) * dp * dp))
    return _GL_CACHE[order]


def _radial_panels(inner: float, outer: float, breakpoints=()):
    """Panels covering [inner, outer] (inner > 0), outermost first, split at
    breakpoints and refined geometrically toward the inner end of each piece."""
    bps = sorted({float(b) for b in breakpoints if inner < b < outer}, reverse=True)
    edges = [outer] + bps + [inner]
    panels = []
    for hi, lo in zip(edges[:-1], edges[1:]):
        b = hi
        for level in range(MAX_SUBDIVISIONS):
            a = max(lo, b * REFINEMENT_RATIO)
            if a <= lo * (1.0 + 1e-12) or level == MAX_SUBDIVISIONS - 1:
                panels.append((lo, b))
                break
            panels.append((a, b))
            b = a
    return panels


def _region_panels(region: Region, breakpoints, centred: bool):
    """The panels of a region, outermost first. A region that reaches its
    center ends in the panel (0, b) of _graded_rule, b its innermost
    breakpoint or its outer radius, and geometric panels cover the rest.
    Unless centred on a branch point, the region keeps the geometric panel
    (REFINEMENT_RATIO b, b), which a branch point just outside it slows
    most, and ends in (0, REFINEMENT_RATIO b)."""
    inner, outer = region.radii
    if inner > 0.0:
        return _radial_panels(inner, outer, breakpoints)
    b = min([float(x) for x in breakpoints if 0.0 < x < outer] + [outer])
    if not centred:
        b *= REFINEMENT_RATIO
    return (_radial_panels(b, outer, breakpoints) if b < outer else []) + [(0.0, b)]


def _graded_rule(b: float, p: int, quad: QuadratureSpec):
    """Radii and weights of the graded panel on [0, b]: r = b u^p with
    radial_order * p Gauss-Legendre nodes in u on [0, 1]. It is exact when
    the integrand times r^(n-1) is a polynomial in r^(1/p) of degree below
    2 radial_order p, such as a density of a field of that radial_grading
    about its branch point under a quintic cutoff ramp."""
    x, w = _leggauss(quad.radial_order * p)
    u = 0.5 * (x + 1.0)
    return b * u ** p, 0.5 * w * p * b * u ** (p - 1)


def _guard_branch(f: QField, region: Region) -> None:
    inner, outer = region.radii
    c = region.center_array
    for b in f.branch_set:
        d = float(np.linalg.norm(np.asarray(b, dtype=float) - c))
        if d <= 1e-12 * (1.0 + outer):
            continue  # centered branch point: handled by the graded panel
        if inner + 1e-12 < d < outer - 1e-12:
            raise RegionBranchError(
                "region %s/%r passes through branch point at distance %g from its "
                "center; exclude it (clearance %g) or center the region on it"
                % (region.kind, region.radii, d, BRANCH_CLEARANCE)
            )
    if math.isfinite(f.domain_radius):
        reach = float(np.linalg.norm(c)) + outer
        if reach > f.domain_radius + 1e-12:
            raise ValueError("region reaches radius %g outside the field domain %g"
                             % (reach, f.domain_radius))


_ANGULAR_CACHE: dict = {}


def _angular_nodes(n: int, quad: QuadratureSpec):
    """Unit directions and weights for the sphere factor in R^n, built once
    per (n, angular_nodes, polar_nodes) and returned read-only."""
    key = (n, quad.angular_nodes, quad.polar_nodes)
    if key in _ANGULAR_CACHE:
        return _ANGULAR_CACHE[key]
    M = quad.angular_nodes
    if n == 2:
        theta = 2.0 * math.pi * np.arange(M) / M
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(M, 2.0 * math.pi / M)
    elif n == 3:
        u, wu = _leggauss(quad.polar_nodes)
        phi = 2.0 * math.pi * np.arange(M) / M
        su = np.sqrt(1.0 - u ** 2)
        dirs = np.stack([
            np.repeat(su, M) * np.tile(np.cos(phi), u.size),
            np.repeat(su, M) * np.tile(np.sin(phi), u.size),
            np.repeat(u, M),
        ], axis=1)
        w = np.repeat(wu, M) * (2.0 * math.pi / M)
    else:
        raise ValueError("quadrature supports domain dimension 2 or 3, got %d" % n)
    dirs.setflags(write=False)
    w.setflags(write=False)
    _ANGULAR_CACHE[key] = (dirs, w)
    return dirs, w


def _panel_nodes(n: int, quad: QuadratureSpec) -> int:
    """Quadrature nodes in one radial panel: radial order times the sphere factor."""
    return quad.radial_order * quad.angular_nodes * (quad.polar_nodes if n == 3 else 1)


def _entries(dens):
    """A density result as a tuple of per-node arrays, and whether it was one array."""
    if isinstance(dens, tuple):
        return dens, False
    return (dens,), True


def _evaluate(f: QField, center, X, rr, dirs, need_values: bool, need_gradients: bool):
    """(values | None, gradients | None) at the nodes X = center + rr (x)
    dirs: one f.polar call when f has polar and center is the origin, else
    values_fn and gradients_fn on X."""
    if f.polar is not None and not center.any():
        return f.polar(rr, dirs, need_values, need_gradients)
    return (f.values_fn(X) if need_values else None,
            f.gradients_fn(X) if need_gradients else None)


def integrate_region(f: QField, region: Region, quad: QuadratureSpec, density: Callable,
                     *, need_values: bool = True, need_gradients: bool = True,
                     breakpoints=()) -> float | tuple:
    """Integrate density(X, r, values, gradients) over a ball or annulus.

    density receives the sample points (K, n), their radii about the region
    center, sheet values (K, q, m) and gradients (K, q, m, n) (None when not
    requested) and returns a per-node scalar array, or a tuple of such
    arrays. A single array gives a float. A tuple gives a tuple of floats,
    one per entry, from one sweep over the panels: each entry keeps its own
    panel sums, so each result is bit for bit the one a separate call with
    that entry alone would return.

    The region is checked against the field's branch points and domain
    before the field is evaluated. Its panels are those of _region_panels,
    split at breakpoints; a region that reaches its center ends in the
    graded panel, graded by the field's radial_grading when the center is a
    branch point and by 1 otherwise. The field is evaluated in blocks of at
    most max(one REFERENCE_QUAD panel, one panel of quad) nodes: consecutive
    geometric panels, or a graded panel in slices of whole radial nodes.
    density runs per panel or slice, the summation per panel, so the
    results do not depend on the block size.

    On a region centred exactly at the origin, a field with polar is
    evaluated by one polar call per block on its radii and the rule's
    directions, values and gradients together; other regions and fields
    take values_fn and gradients_fn on the block's nodes X. X and r reach
    density either way.
    """
    _guard_branch(f, region)
    center = region.center_array
    tol = 1e-12 * (1.0 + region.radii[1])
    centred = any(np.linalg.norm(np.asarray(b, dtype=float) - center) <= tol for b in f.branch_set)
    panels = _region_panels(region, breakpoints, centred)

    dirs, wdir = _angular_nodes(f.n, quad)
    xg, wg = _leggauss(quad.radial_order)
    per_panel = xg.size * dirs.shape[0]
    budget = max(_panel_nodes(f.n, REFERENCE_QUAD), per_panel)
    # a block is a list of (radii, weights, closes its panel)
    plain = [(a, b) for a, b in panels if a > 0.0]
    blocks = [[(0.5 * (b - a) * xg + 0.5 * (a + b), 0.5 * (b - a) * wg, True)
               for a, b in plain[k:k + budget // per_panel]]
              for k in range(0, len(plain), budget // per_panel)]
    step = budget // dirs.shape[0]
    for b in [b for a, b in panels if a == 0.0]:
        rr, wr = _graded_rule(b, f.radial_grading if centred else 1, quad)
        blocks += [[(rr[k:k + step], wr[k:k + step], k + step >= rr.size)]
                   for k in range(0, rr.size, step)]

    sums, parts, single = [], [], True
    for block in blocks:
        rr, wr = (np.concatenate(col) for col in list(zip(*block))[:2])
        ends = np.cumsum([0] + [piece[0].size * dirs.shape[0] for piece in block])
        X = (center[None, None, :] + rr[:, None, None] * dirs[None, :, :]).reshape(-1, f.n)
        r = np.repeat(rr, dirs.shape[0])
        w = (wr[:, None] * rr[:, None] ** (f.n - 1) * wdir[None, :]).ravel()
        vals, grads = _evaluate(f, center, X, rr, dirs, need_values, need_gradients)
        for k, (_, _, closes) in enumerate(block):
            s = slice(ends[k], ends[k + 1])
            dens, single = _entries(density(X[s], r[s], None if vals is None else vals[s],
                                            None if grads is None else grads[s]))
            parts.append([d * w[s] for d in dens])
            del dens  # else it stays alive through the next block's field evaluation
            if closes:
                sums.append([tree_sum(np.concatenate(col)) for col in zip(*parts)])
                parts = []
    totals = tuple(tree_sum(col) for col in zip(*sums))
    return totals[0] if single else totals


def sphere_integral(f: QField, center, r: float, quad: QuadratureSpec, density: Callable,
                    *, need_gradients: bool = False) -> float | tuple:
    """Integrate density over the sphere of radius r about center.

    density always receives the field values; gradients only on request.
    As in integrate_region, a density that returns a tuple of per-node
    arrays gives a tuple of integrals, each bit for bit a separate call, and
    a sphere about the origin is evaluated by the field's polar when it has
    one. r must satisfy 0 <= r < inf (ValueError otherwise).
    """
    r = float(r)
    if not 0.0 <= r < math.inf:
        raise ValueError("sphere radius must satisfy 0 <= r < inf, got %r" % r)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dirs, wdir = _angular_nodes(f.n, quad)
    X = center[None, :] + r * dirs
    vals, grads = _evaluate(f, center, X, np.array([r]), dirs, True, need_gradients)
    dens, single = _entries(density(X, np.full(X.shape[0], r), vals, grads))
    totals = tuple(tree_sum(d * wdir * r ** (f.n - 1)) for d in dens)
    return totals[0] if single else totals


def _dirichlet_density(X, r, vals, grads):
    return np.einsum("nqmk,nqmk->n", grads, grads)


def _mass_density(X, r, vals, grads):
    return np.einsum("nqm,nqm->n", vals, vals)


def dirichlet_energy(f: QField, region: Region, quad: QuadratureSpec = REFERENCE_QUAD,
                     breakpoints=()) -> float:
    """Sum over sheets of the squared-gradient integral on the region."""
    return integrate_region(f, region, quad, _dirichlet_density, need_values=False,
                            breakpoints=breakpoints)


def l2_mass(f: QField, region: Region, quad: QuadratureSpec = REFERENCE_QUAD,
            breakpoints=()) -> float:
    """Sum over sheets of the squared-value integral on the region."""
    return integrate_region(f, region, quad, _mass_density, need_gradients=False,
                            breakpoints=breakpoints)


def moment_density(integrand: Callable, center, k: float | None = None) -> Callable:
    """The density of integrate_region that hands integrand(r, M, D, S) the
    per-node sheet sums M = sum_i |f_i|^2, D = sum_i |Df_i|^2 and S = sum_i
    |Df_i . (x - center) - k f_i|^2 (None when k is None): the moments that
    radial.Spectrum.moments gives as circle integrals."""
    center = np.asarray(center, dtype=float)

    def density(X, r, vals, grads):
        defect = None
        if k is not None:
            rel = X - center if center.any() else X  # about the origin X is rel: no copy
            sq = np.einsum("nqmk,nk->nqm", grads, rel) - k * vals
            defect = np.einsum("nqm,nqm->n", sq, sq)
        return integrand(r, _mass_density(X, r, vals, grads),
                         _dirichlet_density(X, r, vals, grads), defect)
    return density


# ---------------------------------------------------------------------------
# the second route of a two-sided check

CONVERGENCE_REL_TOL = 1e-4


def _two_resolution(run, quad: QuadratureSpec, rel_tol: float = CONVERGENCE_REL_TOL,
                    exact: Callable | None = None):
    """(ref, second, route, disagreement): run(quad) as a tuple, the second
    route's tuple and its name, and None when each pair agrees within rel_tol
    relative, else the note that says it did not. run gets this very quad
    object.

    The second route is exact() ("closed-form"), the check's closed form on
    a piece field (see radial), when the caller has one; otherwise it is
    run(quad.refined()) ("refined"), the same quadrature with every node
    count doubled. A pair at roundoff level of the largest magnitude among
    all pairs carries no information, so it passes."""
    ref = tuple(run(quad))
    if exact is None:
        route, second, label = "refined", tuple(run(quad.refined())), "two-resolution"
    else:
        route, second, label = "closed-form", tuple(exact()), "closed-form"
    scale = max(abs(v) for v in ref + second)
    agree = all(max(abs(a), abs(b)) <= 1e-12 * scale
                or abs(a - b) <= rel_tol * max(abs(a), abs(b), 1e-30)
                for a, b in zip(ref, second))
    return ref, second, route, None if agree else (
        "%s disagreement above %g relative" % (label, rel_tol))


def _two_routes(f: QField, region: Region, breakpoints, integrand: Callable, k: float | None,
                quad: QuadratureSpec, rel_tol: float = CONVERGENCE_REL_TOL):
    """_two_resolution of the integrals of integrand(r, M, D, S) over region,
    split at breakpoints: by quadrature of its moment_density about the
    region's center, and by radial.integrals over the spectrum when f has
    one there."""
    from . import radial

    density = moment_density(integrand, region.center, k)
    spec = radial.spectrum(f, region.center)
    return _two_resolution(
        lambda q: integrate_region(f, region, q, density, breakpoints=breakpoints), quad,
        rel_tol, None if spec is None else lambda: radial.integrals(
            spec, region, breakpoints, integrand, k))


def _ratio_verdict(lhs, rhs, disagreement, signed_lhs=False):
    """Ratio, verdict and notes of a left side against its right side: pass
    when the second route agreed (disagreement None; else it is the first
    note) and the ratio is finite, or the left side is signed and not
    positive (the bound then holds trivially). A vanishing right side
    passes unless the left side is positive."""
    notes = [] if disagreement is None else [disagreement]
    if rhs == 0.0:
        if lhs > 0.0:
            notes.append("right side vanished while left side is positive")
            return math.inf, "fail", notes
        return 0.0, "pass", notes
    ratio = lhs / rhs
    ok = disagreement is None and (math.isfinite(ratio) or (signed_lhs and lhs <= 0.0))
    return ratio, "pass" if ok else "fail", notes


# ---------------------------------------------------------------------------
# radial cutoff


class CutoffConstructionError(ValueError):
    """Cutoff radii out of order or not finite, or an unknown ramp kind."""


# peak slope of each ramp shape on [0, 1]
_RAMP_SLOPE = {"smoothed": 15.0 / 8.0, "piecewise-linear-annular": 1.0}


def _quintic(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _quintic_d(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t * t * (1.0 - t) ** 2, 0.0)


@dataclass(frozen=True)
class RadialBump:
    """Radial plateau cutoff: zero outside [a_in, a_out], one on [a_lo, a_hi].

    kind "smoothed" uses quintic ramps, which are C^2 (first and second
    derivatives vanish at both ends); "piecewise-linear-annular" ramps
    linearly. With a_in = 0 the support is a ball. |Dchi| <= slope_bound,
    the ramp's peak slope (15/8 quintic, 1 linear) over the narrower ramp.
    """

    a_in: float
    a_lo: float
    a_hi: float
    a_out: float
    center: tuple = (0.0, 0.0)
    kind: str = "smoothed"

    def __post_init__(self):
        if self.kind not in _RAMP_SLOPE:
            raise CutoffConstructionError("unknown cutoff kind %r" % (self.kind,))
        if not all(math.isfinite(a) for a in self.radii):
            raise CutoffConstructionError("cutoff radii must be finite, got %r" % (self.radii,))
        if not (0.0 <= self.a_in < self.a_lo <= self.a_hi < self.a_out):
            raise CutoffConstructionError(
                "cutoff radii must satisfy 0 <= a_in < a_lo <= a_hi < a_out, got %r"
                % (self.radii,))
        for name, value in zip(("a_in", "a_lo", "a_hi", "a_out"), self.radii):
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def radii(self) -> tuple:
        return (self.a_in, self.a_lo, self.a_hi, self.a_out)

    def breakpoints(self):
        return self.radii

    @property
    def slope_bound(self) -> float:
        return _RAMP_SLOPE[self.kind] / min(self.a_lo - self.a_in, self.a_out - self.a_hi)

    def _origin(self, n: int) -> tuple:
        """The center in R^n: the given one when it has n coordinates, else 0."""
        return tuple(self.center) if len(self.center) == n else (0.0,) * n

    def support(self, n: int) -> Region:
        center = self._origin(n)
        if self.a_in == 0.0:
            return Region(kind="ball", center=center, radii=(0.0, self.a_out))
        return Region(kind="annulus", center=center, radii=(self.a_in, self.a_out))

    def chi_r(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        up = (r - self.a_in) / (self.a_lo - self.a_in)
        down = (self.a_out - r) / (self.a_out - self.a_hi)
        if self.kind == "smoothed":
            up, down = _quintic(up), _quintic(down)
        else:
            up, down = np.clip(up, 0.0, 1.0), np.clip(down, 0.0, 1.0)
        return np.where(r < self.a_lo, up, np.where(r > self.a_hi, down, 1.0))

    def dchi_r(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        rise, fall = self.a_lo - self.a_in, self.a_out - self.a_hi
        if self.kind == "smoothed":
            up = _quintic_d((r - self.a_in) / rise) / rise
            down = -_quintic_d((self.a_out - r) / fall) / fall
        else:
            up = np.where((r > self.a_in) & (r < self.a_lo), 1.0 / rise, 0.0)
            down = np.where((r > self.a_hi) & (r < self.a_out), -1.0 / fall, 0.0)
        return np.where(r < self.a_lo, up, np.where(r > self.a_hi, down, 0.0))

    def _offsets(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X - np.asarray(self._origin(X.shape[1]), dtype=float)[None, :]

    def chi(self, X) -> np.ndarray:
        return self.chi_r(np.linalg.norm(self._offsets(X), axis=1))

    def grad_chi(self, X) -> np.ndarray:
        rel = self._offsets(X)
        r = np.linalg.norm(rel, axis=1)
        safe = np.where(r == 0.0, 1.0, r)
        return (self.dchi_r(r) / safe)[:, None] * rel


# ---------------------------------------------------------------------------
# variation functionals


@dataclass(frozen=True)
class OuterTestField:
    """Value deformation psi(x, u) = chi(x) (A u + c) under the cutoff bump,
    so D_x psi = (A u + c) (x) grad chi and D_u psi = chi A.

    The growth certificate |D_u psi| <= growth_du and |psi| + |D_x psi| <=
    growth_linear (1 + |u|) is proved when the test is built: 0 <= chi <= 1
    and |grad chi| <= bump.slope_bound give |D_u psi| <= |A|_F and
    |psi| + |D_x psi| <= (1 + slope_bound) max(|A|_2, |c|) (1 + |u|), and
    declared constants below these bounds raise ValueError."""

    bump: RadialBump
    A: np.ndarray
    c: np.ndarray
    growth_du: float
    growth_linear: float
    label: str

    def __post_init__(self):
        du = float(np.linalg.norm(self.A))
        linear = (1.0 + self.bump.slope_bound) * max(float(np.linalg.norm(self.A, 2)),
                                                     float(np.linalg.norm(self.c)))
        if self.growth_du < du or self.growth_linear < linear:
            raise ValueError("%s: growth certificate (growth_du %g, growth_linear %g) below "
                             "its proved bounds (%g, %g)" % (self.label, self.growth_du,
                                                            self.growth_linear, du, linear))


@dataclass(frozen=True)
class InnerVectorField:
    """Domain deformation phi(x) = chi(x) (J x + c) under the cutoff bump,
    so Dphi = chi J + (J x + c) (x) grad chi."""

    bump: RadialBump
    J: np.ndarray
    c: np.ndarray
    label: str


def _cutoff_density(bump: RadialBump, outers=(), inners=(), extra=()):
    """One density for deformations under one cutoff.

    Per panel it evaluates bump.chi and bump.grad_chi once on the nodes X
    and forms four per-node sheet sums, so no entry loops over sheets:
    T = sum_i Df_i^T Df_i (n x n) for the inner tests, and P = sum_i
    Df_i Df_i^T (m x m), S = sum_i Df_i (m x n) and W_bak = sum_i u_ib
    d_k f_ia for the outer ones. The outer entry of chi (A u + c) is
    <grad chi, A:W + c S> + chi <A, P>, with (A:W)_k = sum_ab A_ab W_bak
    and (c S)_k = sum_a c_a S_ak; the inner entry of chi (J x + c) is
    2 <T, Dphi> - tr T tr Dphi. Entries run extra (plain densities), then
    outers, then inners; one entry comes back as a plain array, several as
    a tuple."""

    def density(X, r, vals, grads):
        chi, dchi = bump.chi(X), bump.grad_chi(X)
        entries = [d(X, r, vals, grads) for d in extra]
        if outers:
            P = np.einsum("nqak,nqbk->nab", grads, grads, optimize=True)
            S = np.einsum("nqak->nak", grads)
            W = np.einsum("nqb,nqak->nbak", vals, grads, optimize=True)
            for t in outers:
                paired = np.einsum("ab,nbak->nk", t.A, W, optimize=True) + \
                    np.einsum("a,nak->nk", t.c, S)
                entries.append(np.einsum("nk,nk->n", dchi, paired) +
                               chi * np.einsum("ab,nab->n", t.A, P))
        if inners:
            T = np.einsum("nqmk,nqml->nkl", grads, grads, optimize=True)
            trace = np.einsum("nkk->n", T)
            for t in inners:
                shifted = X @ t.J.T + t.c
                entries.append(chi * (2.0 * np.einsum("kl,nkl->n", t.J, T) - trace * np.trace(t.J))
                               + 2.0 * np.einsum("nk,nkl,nl->n", shifted, T, dchi, optimize=True)
                               - trace * np.einsum("nk,nk->n", shifted, dchi))
        return entries[0] if len(entries) == 1 else tuple(entries)

    return density


def outer_variation(f: QField, test: OuterTestField,
                    quad: QuadratureSpec = REFERENCE_QUAD) -> float:
    """First variation of the energy under f_i -> f_i + t psi(x, f_i).

    Returns the integral of sum_i [ <D_x psi(x, f_i) : Df_i>
    + <D_u psi(x, f_i) Df_i : Df_i> ] over the support of the cutoff.
    """
    return integrate_region(f, test.bump.support(f.n), quad, _cutoff_density(test.bump, [test]),
                            breakpoints=test.bump.breakpoints())


def inner_variation(f: QField, test: InnerVectorField,
                    quad: QuadratureSpec = REFERENCE_QUAD) -> float:
    """First variation of the energy under x -> x + t phi(x).

    Returns 2 int sum_i <Df_i : Df_i Dphi> - int |Df|^2 div phi.
    """
    return integrate_region(f, test.bump.support(f.n), quad,
                            _cutoff_density(test.bump, inners=[test]), need_values=False,
                            breakpoints=test.bump.breakpoints())


# ---------------------------------------------------------------------------
# deformation battery


def _rotation_matrix(m: int) -> np.ndarray:
    R = np.eye(m)
    if m >= 2:
        R[0, 0] = 0.0
        R[0, 1] = -1.0
        R[1, 0] = 1.0
        R[1, 1] = 0.0
    else:
        R[0, 0] = -1.0
    return R


def outer_battery(bump: RadialBump, m: int):
    """Three value deformations chi (A u + c): chi u, chi e_1 and chi R u,
    R the quarter turn of _rotation_matrix.

    growth_du is |A| (Frobenius). For A an isometry or 0 and |c| <= 1,
    |psi| + |D_x psi| <= (1 + |Dchi|) (1 + |u|) needs only 1 + slope_bound;
    growth_linear takes twice the peak slope as headroom, so the declared
    constant is never tight for either ramp kind.
    """
    zero = np.zeros(m)
    return [OuterTestField(bump, A, c, float(np.linalg.norm(A)), 1.0 + 2.0 * bump.slope_bound,
                           label) for label, A, c in (
        ("outer:chi*u", np.eye(m), zero),
        ("outer:chi*const", np.zeros((m, m)), np.eye(m)[0]),
        ("outer:chi*Ru", _rotation_matrix(m), zero),
    )]


def inner_battery(bump: RadialBump, n: int):
    """Four domain deformations chi (J x + c): radial bump, rotation,
    constant direction, shear."""
    shear = np.zeros((n, n))
    shear[0, 1] = 1.0
    generator = shear.T - shear  # the infinitesimal quarter turn, not R
    zero = np.zeros(n)
    return [InnerVectorField(bump, J, c, label) for label, J, c in (
        ("inner:radial", np.eye(n), zero),
        ("inner:rotation", generator, zero),
        ("inner:constant", np.zeros((n, n)), np.eye(n)[0]),
        ("inner:shear", shear, zero),
    )]


DEFAULT_BATTERY_BUMP = RadialBump(0.15, 0.3, 0.6, 0.9)

STATIONARITY_REL_TOL = 1e-6


def stationarity_battery(f: QField, quad: QuadratureSpec = REFERENCE_QUAD,
                         bump: RadialBump | None = None, refine: bool = True) -> CheckReport:
    """Residuals of the outer and inner variation across 12 deformation pairs.

    Three outer shapes cross four inner shapes; each (i, j) cell reports
    max(|O_i|, |I_j|). The verdict is pass when every cell sits below
    1e-6 times the Dirichlet energy on the cutoff support, with quadrature
    refinement decay checked at two sub-reference resolutions.
    """
    if bump is None:
        bump = DEFAULT_BATTERY_BUMP
        if math.isfinite(f.domain_radius) and f.domain_radius < 1.0:
            s = 0.9 * f.domain_radius
            bump = RadialBump(0.15 * s, 0.3 * s, 0.6 * s, 0.9 * s)
    outers = outer_battery(bump, f.m)
    inners = inner_battery(bump, f.n)
    support = bump.support(f.n)

    def run(q: QuadratureSpec, *extra):
        """The extra integrals, then the outer and the inner variations, all
        from one sweep over the shared support."""
        return integrate_region(f, support, q, _cutoff_density(bump, outers, inners, extra),
                                breakpoints=bump.breakpoints())

    dir_support, *variations = run(quad, _dirichlet_density)
    o_ref, i_ref = variations[:len(outers)], variations[len(outers):]
    threshold = max(STATIONARITY_REL_TOL * dir_support, 1e-15)
    pairs = {}
    worst = 0.0
    for a, oval in enumerate(o_ref):
        for b, ival in enumerate(i_ref):
            res = max(abs(oval), abs(ival))
            worst = max(worst, res)
            pairs["pair_o%d_i%d" % (a + 1, b + 1)] = {
                "outer": oval, "inner": ival, "residual": res,
            }
    decay_ok = True
    decay = {}
    if refine:
        coarse = QuadratureSpec(radial_order=6, angular_nodes=24, polar_nodes=8)
        mid = QuadratureSpec(radial_order=10, angular_nodes=48, polar_nodes=12)
        res_c = max(abs(v) for v in run(coarse))
        res_m = max(abs(v) for v in run(mid))
        floor = 1e-10 * (1.0 + dir_support)
        decay_ok = res_m <= max(0.25 * res_c, floor)
        decay = {"residual_coarse": res_c, "residual_mid": res_m, "floor": floor}
    verdict = "pass" if (worst <= threshold and decay_ok) else "fail"
    return CheckReport(
        name="stationarity",
        field_spec=f.tag,
        params={"bump_radii": bump.breakpoints(), "relative_threshold": STATIONARITY_REL_TOL},
        quantities={"dirichlet_support": dir_support, "threshold": threshold,
                    "max_residual": worst, **pairs, **decay},
        resolutions=quad.meta(),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Caccioppoli inequality

CACCIOPPOLI_C_MAX = 4.0
CACCIOPPOLI_REL_TOL = 1e-6


def caccioppoli_check(f: QField, cutoff, quad: QuadratureSpec = REFERENCE_QUAD,
                      c_max: float = CACCIOPPOLI_C_MAX) -> CheckReport:
    """Interior energy bound: int chi^2 |Df|^2 against int |grad chi|^2 |f|^2.

    cutoff is any radial profile exposing chi_r/dchi_r/support/breakpoints
    (RadialBump or a compatible object). The reported constant is the plain
    ratio; the default acceptance constant 4 is what the stationarity
    identity plus Cauchy-Schwarz yields, so stationary fields must sit at or
    below it, and c_max must be finite (ValueError otherwise). Both
    integrals must also agree with their second route within
    CACCIOPPOLI_REL_TOL (see _two_routes): the closed form on a piece field
    centred at the origin, the refined rerun otherwise.
    """
    if not math.isfinite(c_max):
        raise ValueError("c_max must be finite, got %r" % c_max)
    bps = cutoff.breakpoints()

    def integrand(r, mass, dirichlet, defect):
        return cutoff.chi_r(r) ** 2 * dirichlet, cutoff.dchi_r(r) ** 2 * mass

    (lhs, rhs), (lhs2, rhs2), route, disagreement = _two_routes(
        f, cutoff.support(f.n), bps, integrand, None, quad, CACCIOPPOLI_REL_TOL)
    c_est, verdict, notes = _ratio_verdict(lhs, rhs, disagreement)
    if c_est > c_max:
        verdict = "fail"
    second = route.replace("-", "_")
    return CheckReport(
        name="caccioppoli",
        field_spec=f.tag,
        params={"cutoff_radii": bps, "c_max": c_max, "second_route": route},
        quantities={"lhs": lhs, "rhs": rhs, "c_est": c_est,
                    "lhs_" + second: lhs2, "rhs_" + second: rhs2},
        resolutions=quad.meta(),
        verdict=verdict,
        notes=tuple(notes),
    )
