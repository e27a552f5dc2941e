"""Dirichlet-type quadrature and the first variation functionals.

The integration engine uses polar product rules: Gauss-Legendre panels in
radius on geometrically refined subannuli (so power-law radial weights are
tamed) times a periodic trapezoid rule in angle, which is spectrally
accurate for the smooth angular integrands that arise here. In three
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
        if not (0.0 <= inner < outer):
            raise ValueError("radii must satisfy 0 <= inner < outer, got %r" % (self.radii,))
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Polar product rule parameters.

    radial_order Gauss-Legendre nodes per panel; panels refined geometrically
    by refinement_ratio toward the inner radius (down to max_subdivisions
    levels when integrating through 0, with an early stop once a level
    contributes below tail_rel_tol of the running total). angular_nodes
    periodic-trapezoid nodes; polar_nodes is the Gauss-Legendre order of the
    polar factor for three-dimensional domains.

    integrate_region evaluates the field on blocks of consecutive panels, as
    many as fit in the node count of one REFERENCE_QUAD panel (5120 nodes in
    the plane), so at reference resolution and finer each panel is its own
    block. Results do not depend on the block size: density and summation
    still run panel by panel.
    """

    radial_order: int = 20
    angular_nodes: int = 256
    polar_nodes: int = 32
    max_subdivisions: int = 64
    refinement_ratio: float = 0.5
    tail_rel_tol: float = 1e-16

    def __post_init__(self):
        if min(self.radial_order, self.angular_nodes, self.polar_nodes, self.max_subdivisions) <= 0:
            raise ValueError("all quadrature counts must be positive")
        if not (0.0 < self.refinement_ratio < 1.0):
            raise ValueError("refinement ratio must lie in (0, 1)")

    def refined(self, factor: int = 2) -> "QuadratureSpec":
        return replace(self, radial_order=self.radial_order * factor,
                       angular_nodes=self.angular_nodes * factor,
                       polar_nodes=self.polar_nodes * factor)

    def meta(self) -> dict:
        return {
            "radial_order": self.radial_order,
            "angular_nodes": self.angular_nodes,
            "polar_nodes": self.polar_nodes,
            "max_subdivisions": self.max_subdivisions,
            "refinement_ratio": self.refinement_ratio,
        }


REFERENCE_QUAD = QuadratureSpec()

_GL_CACHE: dict = {}


def _leggauss(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _radial_panels(inner: float, outer: float, quad: QuadratureSpec, breakpoints=()):
    """Panels covering [inner, outer], outermost first, split at breakpoints
    and refined geometrically toward the inner end."""
    bps = sorted({float(b) for b in breakpoints if inner < b < outer}, reverse=True)
    edges = [outer] + bps + [inner]
    panels = []
    for hi, lo in zip(edges[:-1], edges[1:]):
        b = hi
        level = 0
        while True:
            a = max(lo, b * quad.refinement_ratio)
            terminal = (lo > 0.0 and a <= lo * (1.0 + 1e-12)) or \
                level >= quad.max_subdivisions - 1
            if terminal:
                panels.append((lo, b))
                break
            panels.append((a, b))
            b = a
            level += 1
    return panels


def _guard_branch(f: QField, region: Region) -> None:
    inner, outer = region.radii
    c = region.center_array
    for b in f.branch_set:
        d = float(np.linalg.norm(np.asarray(b, dtype=float) - c))
        if d <= 1e-12 * (1.0 + outer):
            continue  # centered branch point: handled by deep radial refinement
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


def _angular_nodes(n: int, quad: QuadratureSpec):
    """Unit directions and weights for the sphere factor in R^n."""
    if n == 2:
        M = quad.angular_nodes
        theta = 2.0 * math.pi * np.arange(M) / M
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(M, 2.0 * math.pi / M)
        return dirs, w
    if n == 3:
        u, wu = _leggauss(quad.polar_nodes)
        M = quad.angular_nodes
        phi = 2.0 * math.pi * np.arange(M) / M
        su = np.sqrt(1.0 - u ** 2)
        dirs = np.stack([
            np.repeat(su, M) * np.tile(np.cos(phi), u.size),
            np.repeat(su, M) * np.tile(np.sin(phi), u.size),
            np.repeat(u, M),
        ], axis=1)
        w = np.repeat(wu, M) * (2.0 * math.pi / M)
        return dirs, w
    raise ValueError("quadrature supports domain dimension 2 or 3, got %d" % n)


def _panel_nodes(n: int, quad: QuadratureSpec) -> int:
    """Quadrature nodes in one radial panel: radial order times the sphere factor."""
    return quad.radial_order * quad.angular_nodes * (quad.polar_nodes if n == 3 else 1)


def integrate_region(f: QField, region: Region, quad: QuadratureSpec, density: Callable,
                     *, need_values: bool = True, need_gradients: bool = True,
                     breakpoints=(), early_stop: bool = True) -> float:
    """Integrate density(X, r, values, gradients) over a ball or annulus.

    density receives the sample points (K, n), their radii about the region
    center, sheet values (K, q, m) and gradients (K, q, m, n) (None when not
    requested) and returns a per-node scalar array. Panels are processed
    outermost first; when the region reaches the center, refinement stops
    once two consecutive levels contribute below tail_rel_tol of the running
    total.

    The field is evaluated once per block of consecutive panels: as many
    panels as fit in the node count of one REFERENCE_QUAD panel in the
    field's dimension, and at least one. density and the summation still run
    panel by panel, so the result does not depend on the block size.
    """
    _guard_branch(f, region)
    inner, outer = region.radii
    dirs, wdir = _angular_nodes(f.n, quad)
    center = region.center_array
    xg, wg = _leggauss(quad.radial_order)
    panels = _radial_panels(inner, outer, quad, breakpoints)
    per_panel = xg.size * dirs.shape[0]
    block = max(1, _panel_nodes(f.n, REFERENCE_QUAD) // per_panel)

    def evaluated_panels():
        for start in range(0, len(panels), block):
            chunk = panels[start:start + block]
            rr = np.concatenate([0.5 * (b - a) * xg + 0.5 * (a + b) for a, b in chunk])
            wr = np.concatenate([0.5 * (b - a) * wg for a, b in chunk])
            X = center[None, None, :] + rr[:, None, None] * dirs[None, :, :]
            X = X.reshape(-1, f.n)
            r = np.repeat(rr, dirs.shape[0])
            w = (wr[:, None] * rr[:, None] ** (f.n - 1) * wdir[None, :]).ravel()
            vals = f.values_fn(X) if need_values else None
            grads = f.gradients_fn(X) if need_gradients else None
            for lo in range(0, X.shape[0], per_panel):
                hi = lo + per_panel
                yield (X[lo:hi], r[lo:hi], w[lo:hi],
                       None if vals is None else vals[lo:hi],
                       None if grads is None else grads[lo:hi])

    contributions = []
    running = 0.0
    lull = 0
    for X, r, w, vals, grads in evaluated_panels():
        dens = density(X, r, vals, grads)
        contrib = tree_sum(dens * w)
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


def sphere_integral(f: QField, center, r: float, quad: QuadratureSpec, density: Callable,
                    *, need_values: bool = True, need_gradients: bool = False) -> float:
    """Integrate density over the sphere of radius r about center."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dirs, wdir = _angular_nodes(f.n, quad)
    X = center[None, :] + r * dirs
    vals = f.values_fn(X) if need_values else None
    grads = f.gradients_fn(X) if need_gradients else None
    dens = density(X, np.full(X.shape[0], float(r)), vals, grads)
    return tree_sum(dens * wdir * r ** (f.n - 1))


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


# ---------------------------------------------------------------------------
# radial plateau bump


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_d(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t * t * (1.0 - t) ** 2, 0.0)


@dataclass(frozen=True)
class RadialBump:
    """C^2 radial plateau bump: zero outside [a_in, a_out], one on [a_lo, a_hi],
    quintic ramps between."""

    a_in: float
    a_lo: float
    a_hi: float
    a_out: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (0.0 <= self.a_in < self.a_lo <= self.a_hi < self.a_out):
            raise ValueError("bump radii must satisfy a_in < a_lo <= a_hi < a_out")

    def breakpoints(self):
        return (self.a_in, self.a_lo, self.a_hi, self.a_out)

    def support(self, n: int) -> Region:
        center = tuple(self.center) if len(self.center) == n else tuple([0.0] * n)
        if self.a_in == 0.0:
            return Region(kind="ball", center=center, radii=(0.0, self.a_out))
        return Region(kind="annulus", center=center, radii=(self.a_in, self.a_out))

    def chi_r(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        up = _smoothstep((r - self.a_in) / (self.a_lo - self.a_in))
        down = _smoothstep((self.a_out - r) / (self.a_out - self.a_hi))
        return np.where(r < self.a_lo, up, np.where(r > self.a_hi, down, 1.0))

    def dchi_r(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        up = _smoothstep_d((r - self.a_in) / (self.a_lo - self.a_in)) / (self.a_lo - self.a_in)
        down = -_smoothstep_d((self.a_out - r) / (self.a_out - self.a_hi)) / (self.a_out - self.a_hi)
        return np.where(r < self.a_lo, up, np.where(r > self.a_hi, down, 0.0))

    def chi(self, X, center=None) -> np.ndarray:
        c = np.asarray(center if center is not None else self.center, dtype=float)
        r = np.linalg.norm(np.asarray(X, dtype=float) - c[None, :], axis=1)
        return self.chi_r(r)

    def grad_chi(self, X, center=None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        c = np.asarray(center if center is not None else self.center, dtype=float)
        rel = X - c[None, :]
        r = np.linalg.norm(rel, axis=1)
        safe = np.where(r == 0.0, 1.0, r)
        return (self.dchi_r(r) / safe)[:, None] * rel


# ---------------------------------------------------------------------------
# variation functionals


@dataclass(frozen=True)
class OuterTestField:
    """Value deformation psi(x, u) with its derivative closures and a growth
    certificate: |D_u psi| <= growth_du and |psi| + |D_x psi| <=
    growth_linear * (1 + |u|), checked by sampling on the quadrature nodes."""

    psi: Callable
    dpsi_dx: Callable
    dpsi_du: Callable
    support: Region
    growth_du: float
    growth_linear: float
    label: str
    breakpoints: tuple = ()


@dataclass(frozen=True)
class InnerVectorField:
    """Domain deformation phi(x) with Jacobian closure, compactly supported."""

    phi: Callable
    dphi: Callable
    support: Region
    label: str
    breakpoints: tuple = ()


def outer_variation(f: QField, test: OuterTestField, quad: QuadratureSpec = REFERENCE_QUAD,
                    warnings_sink: list | None = None) -> float:
    """First variation of the energy under f_i -> f_i + t psi(x, f_i).

    Returns the integral of sum_i [ <D_x psi(x, f_i) : Df_i>
    + <D_u psi(x, f_i) Df_i : Df_i> ] over the support of psi.
    """
    violations = [0, 0.0]

    def density(X, r, vals, grads):
        total = np.zeros(X.shape[0])
        for i in range(f.q):
            U = vals[:, i, :]
            G = grads[:, i, :, :]
            dx = test.dpsi_dx(X, U)
            du = test.dpsi_du(X, U)
            total += np.einsum("nmk,nmk->n", dx, G)
            total += np.einsum("nab,nbk,nak->n", du, G, G)
            if warnings_sink is not None:
                du_norm = np.sqrt(np.einsum("nab,nab->n", du, du))
                psi_val = test.psi(X, U)
                lin = np.sqrt(np.einsum("nm,nm->n", psi_val, psi_val)) + \
                    np.sqrt(np.einsum("nmk,nmk->n", dx, dx))
                u_norm = np.sqrt(np.einsum("nm,nm->n", U, U))
                bad = (du_norm > test.growth_du + 1e-9) | \
                      (lin > test.growth_linear * (1.0 + u_norm) + 1e-9)
                if np.any(bad):
                    violations[0] += int(bad.sum())
                    violations[1] = max(violations[1], float(du_norm.max()))
        return total

    value = integrate_region(f, test.support, quad, density,
                             breakpoints=test.breakpoints)
    if warnings_sink is not None and violations[0]:
        warnings_sink.append(
            "growth certificate violated at %d quadrature nodes (max |D_u psi| %g)"
            % (violations[0], violations[1])
        )
    return value


def inner_variation(f: QField, test: InnerVectorField,
                    quad: QuadratureSpec = REFERENCE_QUAD) -> float:
    """First variation of the energy under x -> x + t phi(x).

    Returns 2 int sum_i <Df_i : Df_i Dphi> - int |Df|^2 div phi.
    """

    def density(X, r, vals, grads):
        dphi = test.dphi(X)
        df_dphi = np.einsum("nqml,nlk->nqmk", grads, dphi)
        stress = 2.0 * np.einsum("nqmk,nqmk->n", grads, df_dphi)
        div = np.einsum("nkk->n", dphi)
        dir_density = np.einsum("nqmk,nqmk->n", grads, grads)
        return stress - dir_density * div

    return integrate_region(f, test.support, quad, density, need_values=False,
                            breakpoints=test.breakpoints)


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


def outer_battery(bump: RadialBump, n: int, m: int):
    """Three value deformations: chi u, chi const, chi Ru (R a fixed rotation)."""
    support = bump.support(n)
    bps = bump.breakpoints()
    const = np.zeros(m)
    const[0] = 1.0
    R = _rotation_matrix(m)

    def make(label, psi, dx, du, gdu, glin):
        return OuterTestField(psi=psi, dpsi_dx=dx, dpsi_du=du, support=support,
                              growth_du=gdu, growth_linear=glin, label=label,
                              breakpoints=bps)

    def psi_id(X, U):
        return bump.chi(X)[:, None] * U

    def dx_id(X, U):
        return U[:, :, None] * bump.grad_chi(X)[:, None, :]

    def du_id(X, U):
        return bump.chi(X)[:, None, None] * np.eye(m)[None, :, :]

    def psi_const(X, U):
        return bump.chi(X)[:, None] * const[None, :]

    def dx_const(X, U):
        return const[None, :, None] * bump.grad_chi(X)[:, None, :]

    def du_const(X, U):
        return np.zeros((X.shape[0], m, m))

    def psi_rot(X, U):
        return bump.chi(X)[:, None] * (U @ R.T)

    def dx_rot(X, U):
        return (U @ R.T)[:, :, None] * bump.grad_chi(X)[:, None, :]

    def du_rot(X, U):
        return bump.chi(X)[:, None, None] * R[None, :, :]

    slope = 30.0 / 8.0 / min(bump.a_lo - bump.a_in, bump.a_out - bump.a_hi)
    return [
        make("outer:chi*u", psi_id, dx_id, du_id, math.sqrt(m), 1.0 + slope),
        make("outer:chi*const", psi_const, dx_const, du_const, 0.0, (1.0 + slope)),
        make("outer:chi*Ru", psi_rot, dx_rot, du_rot, math.sqrt(m), 1.0 + slope),
    ]


def inner_battery(bump: RadialBump, n: int):
    """Four domain deformations: radial bump, rotation, constant direction, shear."""
    support = bump.support(n)
    bps = bump.breakpoints()

    def radial(X):
        return bump.chi(X)[:, None] * X

    def d_radial(X):
        g = bump.grad_chi(X)
        return bump.chi(X)[:, None, None] * np.eye(n)[None, :, :] + \
            np.einsum("nk,nl->nkl", X, g)

    def rotation(X):
        out = np.zeros_like(X)
        out[:, 0] = -X[:, 1]
        out[:, 1] = X[:, 0]
        return bump.chi(X)[:, None] * out

    def d_rotation(X):
        J = np.zeros((n, n))
        J[0, 1] = -1.0
        J[1, 0] = 1.0
        vec = np.zeros_like(X)
        vec[:, 0] = -X[:, 1]
        vec[:, 1] = X[:, 0]
        return bump.chi(X)[:, None, None] * J[None, :, :] + \
            np.einsum("nk,nl->nkl", vec, bump.grad_chi(X))

    def constant(X):
        out = np.zeros_like(X)
        out[:, 0] = 1.0
        return bump.chi(X)[:, None] * out

    def d_constant(X):
        vec = np.zeros_like(X)
        vec[:, 0] = 1.0
        return np.einsum("nk,nl->nkl", vec, bump.grad_chi(X))

    def shear(X):
        out = np.zeros_like(X)
        out[:, 0] = X[:, 1]
        return bump.chi(X)[:, None] * out

    def d_shear(X):
        J = np.zeros((n, n))
        J[0, 1] = 1.0
        vec = np.zeros_like(X)
        vec[:, 0] = X[:, 1]
        return bump.chi(X)[:, None, None] * J[None, :, :] + \
            np.einsum("nk,nl->nkl", vec, bump.grad_chi(X))

    return [
        InnerVectorField(phi=radial, dphi=d_radial, support=support, label="inner:radial", breakpoints=bps),
        InnerVectorField(phi=rotation, dphi=d_rotation, support=support, label="inner:rotation", breakpoints=bps),
        InnerVectorField(phi=constant, dphi=d_constant, support=support, label="inner:constant", breakpoints=bps),
        InnerVectorField(phi=shear, dphi=d_shear, support=support, label="inner:shear", breakpoints=bps),
    ]


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
    outers = outer_battery(bump, f.n, f.m)
    inners = inner_battery(bump, f.n)
    support = bump.support(f.n)
    warnings: list = []

    def run(q: QuadratureSpec):
        o = [outer_variation(f, t, q, warnings_sink=warnings) for t in outers]
        i = [inner_variation(f, t, q) for t in inners]
        return o, i

    dir_support = dirichlet_energy(f, support, quad, breakpoints=bump.breakpoints())
    threshold = max(STATIONARITY_REL_TOL * dir_support, 1e-15)
    o_ref, i_ref = run(quad)
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
        o_c, i_c = run(coarse)
        o_m, i_m = run(mid)
        res_c = max(max(abs(v) for v in o_c), max(abs(v) for v in i_c))
        res_m = max(max(abs(v) for v in o_m), max(abs(v) for v in i_m))
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
        notes=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Caccioppoli inequality

CACCIOPPOLI_C_MAX = 4.0


def caccioppoli_check(f: QField, cutoff, quad: QuadratureSpec = REFERENCE_QUAD,
                      c_max: float = CACCIOPPOLI_C_MAX) -> CheckReport:
    """Interior energy bound: int chi^2 |Df|^2 against int |grad chi|^2 |f|^2.

    cutoff is any radial profile exposing chi/grad_chi/support/breakpoints
    (RadialBump or a compatible object). The reported constant is the plain
    ratio; the default acceptance constant 4 is what the stationarity
    identity plus Cauchy-Schwarz yields, so stationary fields must sit at or
    below it.
    """
    support = cutoff.support(f.n)
    bps = cutoff.breakpoints()

    def lhs_density(X, r, vals, grads):
        chi = cutoff.chi(X)
        return chi * chi * np.einsum("nqmk,nqmk->n", grads, grads)

    def rhs_density(X, r, vals, grads):
        g = cutoff.grad_chi(X)
        g2 = np.einsum("nk,nk->n", g, g)
        return g2 * np.einsum("nqm,nqm->n", vals, vals)

    def run(q):
        lhs = integrate_region(f, support, q, lhs_density, need_values=False, breakpoints=bps)
        rhs = integrate_region(f, support, q, rhs_density, need_gradients=False, breakpoints=bps)
        return lhs, rhs

    lhs, rhs = run(quad)
    lhs2, rhs2 = run(quad.refined())
    stable = abs(lhs - lhs2) <= 1e-6 * (1.0 + abs(lhs2)) and \
        abs(rhs - rhs2) <= 1e-6 * (1.0 + abs(rhs2))
    if rhs == 0.0:
        c_est = 0.0 if lhs == 0.0 else math.inf
        verdict = "pass" if lhs == 0.0 else "fail"
    else:
        c_est = lhs / rhs
        verdict = "pass" if (c_est <= c_max and stable) else "fail"
    return CheckReport(
        name="caccioppoli",
        field_spec=f.tag,
        params={"cutoff_radii": bps, "c_max": c_max},
        quantities={"lhs": lhs, "rhs": rhs, "c_est": c_est,
                    "lhs_refined": lhs2, "rhs_refined": rhs2},
        resolutions=quad.meta(),
        verdict=verdict,
        notes=() if stable else ("two-resolution disagreement above 1e-6 relative",),
    )
