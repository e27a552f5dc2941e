"""Evaluable Q-valued fields: example library, jets, rescaling, singular probe.

A QField packages batch evaluation (values and per-sheet gradients) of a
Q-valued map together with its declared branch set and a canonical textual
spec. The library constructors are: identically-zero tuples, tuples of
harmonic polynomial sheets, homogeneous branched covers of the plane,
single-valued harmonic superpositions, blow-up rescalings, and seeded
random wound fields built from harmonic extensions of random circle data.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qcore


class FieldSpecError(ValueError):
    """Malformed field spec string or invalid constructor parameters."""


class HarmonicityError(ValueError):
    """A polynomial sheet whose Laplacian is not identically zero."""


# ---------------------------------------------------------------------------
# polynomials

_TERM_BOUNDARY = re.compile(r"(?<![eE])(?=[+-])")


@dataclass(frozen=True, eq=True)
class Polynomial:
    """Real polynomial on R^n stored as a canonical tuple of (exponents, coeff)."""

    n: int
    terms: tuple

    @staticmethod
    def from_dict(n: int, coeffs: dict) -> "Polynomial":
        items = tuple(
            (tuple(int(e) for e in expo), float(c))
            for expo, c in sorted(coeffs.items(), reverse=True)
            if c != 0.0
        )
        for expo, _ in items:
            if len(expo) != n or any(e < 0 for e in expo):
                raise FieldSpecError("bad exponent tuple %r for dimension %d" % (expo, n))
        return Polynomial(n, items)

    def value(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for expo, coeff in self.terms:
            term = np.full(X.shape[0], coeff)
            for axis, e in enumerate(expo):
                if e:
                    term = term * X[:, axis] ** e
            out += term
        return out

    def partial(self, axis: int) -> "Polynomial":
        coeffs: dict = {}
        for expo, coeff in self.terms:
            e = expo[axis]
            if e:
                new = list(expo)
                new[axis] = e - 1
                key = tuple(new)
                coeffs[key] = coeffs.get(key, 0.0) + coeff * e
        return Polynomial.from_dict(self.n, coeffs)

    def laplacian(self) -> "Polynomial":
        coeffs: dict = {}
        for expo, coeff in self.terms:
            for axis in range(self.n):
                e = expo[axis]
                if e >= 2:
                    new = list(expo)
                    new[axis] = e - 2
                    key = tuple(new)
                    coeffs[key] = coeffs.get(key, 0.0) + coeff * e * (e - 1)
        return Polynomial.from_dict(self.n, coeffs)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        return format_polynomial(self)


def _format_term(expo, coeff) -> str:
    parts = [repr(float(coeff))]
    for axis, e in enumerate(expo):
        if e == 1:
            parts.append("x%d" % (axis + 1))
        elif e > 1:
            parts.append("x%d^%d" % (axis + 1, e))
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0.0"
    out = []
    for expo, coeff in p.terms:
        text = _format_term(expo, coeff)
        if out and not text.startswith("-"):
            out.append("+")
        out.append(text)
    return "".join(out)


def parse_polynomial(text: str, n: int) -> Polynomial:
    s = text.replace(" ", "")
    if not s:
        raise FieldSpecError("empty polynomial")
    coeffs: dict = {}
    for piece in _TERM_BOUNDARY.split(s):
        if not piece:
            continue
        sign = 1.0
        while piece and piece[0] in "+-":
            if piece[0] == "-":
                sign = -sign
            piece = piece[1:]
        if not piece:
            raise FieldSpecError("dangling sign in polynomial %r" % text)
        coeff = sign
        expo = [0] * n
        for token in piece.split("*"):
            if not token:
                raise FieldSpecError("empty factor in polynomial %r" % text)
            if token[0] == "x":
                name, _, power = token.partition("^")
                try:
                    idx = int(name[1:]) - 1
                except ValueError:
                    raise FieldSpecError("bad variable %r in polynomial %r" % (token, text))
                if idx < 0 or idx >= n:
                    raise FieldSpecError(
                        "variable %r outside dimension %d in %r" % (token, n, text)
                    )
                expo[idx] += int(power) if power else 1
            else:
                try:
                    coeff *= float(token)
                except ValueError:
                    raise FieldSpecError("bad factor %r in polynomial %r" % (token, text))
        key = tuple(expo)
        coeffs[key] = coeffs.get(key, 0.0) + coeff
    return Polynomial.from_dict(n, coeffs)


def require_harmonic(p: Polynomial, where: str) -> None:
    lap = p.laplacian()
    if lap.is_zero():
        return
    # coefficient cancellation happens in floats, so allow roundoff at the
    # scale of the input coefficients times the combinatorial factors
    scale = max((abs(c) for _, c in p.terms), default=0.0)
    degree = max((sum(e) for e, _ in p.terms), default=0)
    floor = 1e-12 * max(1.0, scale) * max(1, degree * (degree - 1))
    expo, coeff = max(lap.terms, key=lambda t: abs(t[1]))
    if abs(coeff) <= floor:
        return
    raise HarmonicityError(
        "%s is not harmonic: Laplacian has coefficient %r on monomial %s"
        % (where, coeff, _format_term(expo, 1.0)[4:] or "1")
    )


# ---------------------------------------------------------------------------
# the field type


@dataclass(frozen=True)
class Jet:
    """Per-sheet values (q, m) and gradients (q, m, n) at one point."""

    values: np.ndarray
    gradients: np.ndarray


@dataclass(frozen=True, eq=False)
class QField:
    """Batch-evaluable Q-valued map with per-sheet jets away from branch points.

    values(X) maps (N, n) sample points to (N, q, m) sheet values; the sheet
    axis carries a deterministic labeling that is continuous away from the
    branch set and the labeling cut, while the multiset of values is
    continuous everywhere. gradients(X) returns (N, q, m, n).
    """

    n: int
    m: int
    q: int
    tag: str
    values_fn: Callable
    gradients_fn: Callable
    branch_set: tuple = ()
    domain_radius: float = math.inf
    construction_cert: dict | None = None

    def _coerce(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError("expected sample points of shape (N, %d)" % self.n)
        return X

    def values(self, X) -> np.ndarray:
        return self.values_fn(self._coerce(X))

    def gradients(self, X) -> np.ndarray:
        return self.gradients_fn(self._coerce(X))

    def eval(self, x) -> qcore.QPoint:
        return qcore.QPoint(self.values(x)[0])

    def jet(self, x) -> Jet:
        x = self._coerce(x)
        return Jet(values=self.values_fn(x)[0], gradients=self.gradients_fn(x)[0])


def values_diameter(values: np.ndarray) -> np.ndarray:
    """Max pairwise sheet distance per sample: (N, q, m) -> (N,)."""
    diff = values[:, :, None, :] - values[:, None, :, :]
    dist2 = np.einsum("nijk,nijk->nij", diff, diff)
    return np.sqrt(dist2.max(axis=(1, 2)))


# ---------------------------------------------------------------------------
# constructors


def make_trivial(Q: int, m: int = 2, n: int = 2) -> QField:
    """The identically zero tuple with multiplicity Q."""
    if Q <= 0:
        raise FieldSpecError("multiplicity must be positive, got %d" % Q)

    def values(X):
        return np.zeros((X.shape[0], Q, m))

    def gradients(X):
        return np.zeros((X.shape[0], Q, m, n))

    return QField(n=n, m=m, q=Q, tag="trivial:%d" % Q, values_fn=values, gradients_fn=gradients)


def make_harmonic_sheets(sheets, tag: str | None = None) -> QField:
    """Q-tuple of single-valued harmonic polynomial sheets.

    sheets: list of Q sheets, each a list of m Polynomial components on a
    common R^n. Every component must have identically zero Laplacian; the
    offending coefficient is named otherwise.
    """
    sheets = tuple(tuple(sheet) for sheet in sheets)
    if not sheets or not sheets[0]:
        raise FieldSpecError("need at least one sheet with at least one component")
    n = sheets[0][0].n
    m = len(sheets[0])
    for si, sheet in enumerate(sheets):
        if len(sheet) != m:
            raise FieldSpecError("sheet %d has %d components, expected %d" % (si, len(sheet), m))
        for ci, comp in enumerate(sheet):
            if comp.n != n:
                raise FieldSpecError("sheet %d component %d has dimension %d, expected %d"
                                     % (si, ci, comp.n, n))
            require_harmonic(comp, "sheet %d component %d" % (si, ci))
    q = len(sheets)
    partials = tuple(
        tuple(tuple(comp.partial(axis) for axis in range(n)) for comp in sheet)
        for sheet in sheets
    )
    if tag is None:
        body = "|".join(";".join(format_polynomial(c) for c in sheet) for sheet in sheets)
        tag = "harmonic:n%dm%d:%s" % (n, m, body)

    def values(X):
        out = np.empty((X.shape[0], q, m))
        for i, sheet in enumerate(sheets):
            for k, comp in enumerate(sheet):
                out[:, i, k] = comp.value(X)
        return out

    def gradients(X):
        out = np.empty((X.shape[0], q, m, n))
        for i in range(q):
            for k in range(m):
                for axis in range(n):
                    out[:, i, k, axis] = partials[i][k][axis].value(X)
        return out

    return QField(n=n, m=m, q=q, tag=tag, values_fn=values, gradients_fn=gradients)


def _wound_closures(pieces, m):
    """Batch evaluation of rewound harmonic extensions on the plane.

    pieces: tuple of (winding, a0 (m,), modes) with modes a tuple of
    (l, a (m,), b (m,)). Piece j contributes winding sheets
        w_i(r, theta) = a0/2 + sum_l r^(l/Q_j) [a_l sin(phase) + b_l cos(phase)],
        phase = l (theta + 2 pi i) / Q_j,
    the i-th sheet of the Q_j-fold rewinding of the harmonic extension of the
    unwound circle data. Gradients come from the polar frame
    (d_r, (1/r) d_theta) rotated to Cartesian axes; at the puncture r = 0 the
    gradient entries are reported as zero placeholders (the point belongs to
    the branch set whenever any winding exceeds one or a fractional
    homogeneity is present).
    """
    q_total = sum(int(p[0]) for p in pieces)
    # Per piece: its sheet columns, a0/2 and per mode (s, sheet phase shifts,
    # per-component (a_k, b_k)). Each mode takes one sin/cos/power pass over
    # all sheets of its piece; the sums run into (component, sheet, point)
    # views of the output, so every numpy call spans whole rows of points.
    plan = []
    col = 0
    for winding, a0, modes in pieces:
        winding = int(winding)
        terms = tuple(
            (l / winding,
             np.array([(2.0 * math.pi * l * i) / winding for i in range(winding)])[:, None],
             tuple(zip(np.asarray(a, dtype=float), np.asarray(b, dtype=float))))
            for l, a, b in modes
        )
        plan.append((slice(col, col + winding), 0.5 * np.asarray(a0, dtype=float)[:, None, None],
                     terms))
        col += winding

    def polar(X):
        return np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0])

    def sheet_trig(theta, s, shifts):
        # (winding, N) sin and cos of every sheet's phase in one pass
        phase = s * theta + shifts
        return np.sin(phase), np.cos(phase)

    def values(X):
        r, theta = polar(X)
        out = np.zeros((X.shape[0], q_total, m))
        comps = out.transpose(2, 1, 0)
        for cols, half_a0, terms in plan:
            comps[:, cols] += half_a0
            for s, shifts, coeffs in terms:
                sin_p, cos_p = sheet_trig(theta, s, shifts)
                rs = r ** s
                for k, (a, b) in enumerate(coeffs):
                    comps[k, cols] += rs * (sin_p * a + cos_p * b)
        return out

    def gradients(X):
        r, theta = polar(X)
        at_zero = r == 0.0
        safe_r = np.where(at_zero, 1.0, r)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        out = np.zeros((X.shape[0], q_total, m, 2))
        gx, gy = out.transpose(3, 2, 1, 0)
        for cols, _, terms in plan:
            for s, shifts, coeffs in terms:
                sin_p, cos_p = sheet_trig(theta, s, shifts)
                scale = s * np.where(at_zero, 0.0, safe_r ** (s - 1.0))
                for k, (a, b) in enumerate(coeffs):
                    radial = scale * (sin_p * a + cos_p * b)
                    angular = scale * (cos_p * a - sin_p * b)
                    # polar frame (d_r, (1/r) d_theta) rotated to Cartesian axes
                    gx[k, cols] += radial * cos_t - angular * sin_t
                    gy[k, cols] += radial * sin_t + angular * cos_t
        return out

    return q_total, values, gradients


def make_wound_field(pieces, m: int = 2, tag: str = "", domain_radius: float = math.inf,
                     construction_cert: dict | None = None) -> QField:
    """Field whose sheets rewind harmonic extensions of unwound circle data."""
    pieces = tuple(
        (int(w), np.asarray(a0, dtype=float),
         tuple((int(l), np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for l, a, b in modes))
        for w, a0, modes in pieces
    )
    for w, a0, modes in pieces:
        if w <= 0:
            raise FieldSpecError("winding numbers must be positive")
        last = 0
        for l, a, b in modes:
            if l <= last:
                raise FieldSpecError("mode indices must be strictly increasing")
            last = l
            if a.shape != (m,) or b.shape != (m,):
                raise FieldSpecError("mode coefficients must be vectors of dimension %d" % m)
        if a0.shape != (m,):
            raise FieldSpecError("a0 must be a vector of dimension %d" % m)
    q_total, values, gradients = _wound_closures(pieces, m)
    # winding-1 pieces with integer modes are harmonic polynomial sheets, hence
    # smooth; any winding above one puts a genuine branch point at the origin
    smooth = all(w == 1 for w, _, _ in pieces)
    branch = () if smooth else (np.zeros(2),)
    return QField(n=2, m=m, q=q_total, tag=tag or "wound-pieces:%d" % q_total,
                  values_fn=values, gradients_fn=gradients, branch_set=branch,
                  domain_radius=domain_radius, construction_cert=construction_cert)


def make_branch_field(k: int, Q: int, amp: float = 1.0) -> QField:
    """Planar branched cover: Q sheets of amp * r^(k/Q) e^(i k (theta + 2 pi i)/Q).

    Homogeneous of degree k/Q by construction; branch point declared at the
    origin. gcd(k, Q) = g > 1 reproduces each of the Q/g distinct sheets g
    times (multiset semantics keep that consistent).
    """
    if k <= 0 or Q <= 0:
        raise FieldSpecError("branch field needs positive k and Q, got k=%d Q=%d" % (k, Q))
    a = np.array([0.0, amp])
    b = np.array([amp, 0.0])
    piece = (Q, np.zeros(2), ((k, a, b),))
    tag = "branch:%d/%d" % (k, Q) if amp == 1.0 else "branch:%d/%d:%s" % (k, Q, repr(float(amp)))
    _, values, gradients = _wound_closures((piece,), 2)
    return QField(n=2, m=2, q=Q, tag=tag, values_fn=values, gradients_fn=gradients,
                  branch_set=(np.zeros(2),))


def superpose(f: QField, h) -> QField:
    """Add a single-valued harmonic polynomial map to every sheet of f."""
    h = tuple(h)
    if len(h) != f.m:
        raise FieldSpecError("superpose needs %d components, got %d" % (f.m, len(h)))
    for ci, comp in enumerate(h):
        if comp.n != f.n:
            raise FieldSpecError("component %d lives on R^%d, field domain is R^%d"
                                 % (ci, comp.n, f.n))
        require_harmonic(comp, "superpose component %d" % ci)
    partials = tuple(tuple(comp.partial(axis) for axis in range(f.n)) for comp in h)
    body = ";".join(format_polynomial(c) for c in h)
    tag = "superpose(%s,n%dm%d:%s)" % (f.tag, f.n, f.m, body)

    def values(X):
        base = f.values_fn(X)
        shift = np.stack([comp.value(X) for comp in h], axis=1)
        return base + shift[:, None, :]

    def gradients(X):
        base = f.gradients_fn(X)
        shift = np.empty((X.shape[0], f.m, f.n))
        for k in range(f.m):
            for axis in range(f.n):
                shift[:, k, axis] = partials[k][axis].value(X)
        return base + shift[:, None, :, :]

    return QField(n=f.n, m=f.m, q=f.q, tag=tag, values_fn=values, gradients_fn=gradients,
                  branch_set=f.branch_set, domain_radius=f.domain_radius)


def blowup_rescale(f: QField, y, rho: float, norm: float) -> QField:
    """Rescaled field x -> rho^(n/2) f(y + rho x) / sqrt(norm).

    norm is the L2 mass of f on the ball of radius rho about y, supplied by
    the caller from quadrature; the output then has unit L2 mass on the unit
    ball up to quadrature tolerance.
    """
    if norm <= 0.0:
        raise ValueError(
            "blow-up requires positive L2 mass on the ball; the hypothesis "
            "that the field has positive mass at every scale fails here"
        )
    y = np.asarray(y, dtype=float)
    scale = rho ** (f.n / 2.0) / math.sqrt(norm)

    def values(X):
        return scale * f.values_fn(y[None, :] + rho * X)

    def gradients(X):
        return scale * rho * f.gradients_fn(y[None, :] + rho * X)

    branch = tuple((np.asarray(b, dtype=float) - y) / rho for b in f.branch_set)
    radius = math.inf
    if math.isfinite(f.domain_radius):
        radius = (f.domain_radius - float(np.linalg.norm(y))) / rho
    tag = "blowup(%s;y=%s;rho=%s)" % (f.tag, ",".join(repr(float(v)) for v in y), repr(float(rho)))
    return QField(n=f.n, m=f.m, q=f.q, tag=tag, values_fn=values, gradients_fn=gradients,
                  branch_set=branch, domain_radius=radius)


def random_wound_pieces(seed: int, Q: int, L: int, decay: float):
    """Deterministic random circle data: a partition of Q into windings and
    per-mode coefficients bounded by l^(-decay)."""
    if decay <= 1.0:
        raise FieldSpecError("decay must exceed 1 for summable mode energies")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    parts = []
    remaining = Q
    while remaining > 0:
        part = int(rng.integers(1, remaining + 1))
        parts.append(part)
        remaining -= part
    pieces = []
    for winding in parts:
        modes = []
        for l in range(1, L + 1):
            bound = float(l) ** (-float(decay))
            a = rng.uniform(-1.0, 1.0, size=2) * bound
            b = rng.uniform(-1.0, 1.0, size=2) * bound
            modes.append((l, a, b))
        pieces.append((winding, np.zeros(2), tuple(modes)))
    return tuple(pieces)


def random_wound_field(seed: int, Q: int, L: int, decay: float) -> QField:
    """Seeded wound field: harmonic extensions of random circle data, rewound.

    Same seed gives bit-identical coefficient arrays. The disk solver builds
    the field, so each instance minimizes energy among competitors with the
    same wound trace.
    """
    from . import weiss2d

    data = random_wound_pieces(seed, Q, L, decay)
    pieces = [weiss2d.FourierPiece(winding=w, a0=a0, modes=m_) for w, a0, m_ in data]
    tag = "wound:%d,%d,%d,%s" % (seed, Q, L, repr(float(decay)))
    return weiss2d.solve_disk(pieces, tag=tag)


# ---------------------------------------------------------------------------
# singular set probe


@dataclass(frozen=True)
class ProbeGrid:
    """Cell-centered lattice on [-half_width, half_width]^2 plus dyadic rings.

    The base lattice uses cell centers, so a branch point sitting on a cell
    corner is avoided by half a cell automatically; rings of radius
    half_width * 2^-level around each declared branch point refine the probe
    toward the scales where sheet collapse happens.
    """

    half_width: float = 1.0
    cells_per_side: int = 64
    zoom_levels: int = 20
    ring_nodes: int = 16


@dataclass(frozen=True)
class ProbeResult:
    flagged: np.ndarray
    dimension_estimate: float | None
    scales: tuple
    box_counts: tuple
    trivial_field: bool
    diagnostic: str | None


def singular_set_probe(f: QField, grid: ProbeGrid, tol: float) -> ProbeResult:
    """Flag sample points where the tuple diameter collapses below tol, then
    fit a box-counting slope of the flagged set across usable dyadic scales.

    A scale is usable when the boxes are at least twice as coarse as the
    sampling pitch of every flagged point, so the count reflects the set and
    not the sampling. Fewer than 3 usable scales yields a diagnostic-only
    result with no dimension estimate.
    """
    if f.n != 2:
        raise ValueError("probe lattice is planar")
    hw = grid.half_width
    N = grid.cells_per_side
    h = 2.0 * hw / N
    centers = -hw + (np.arange(N) + 0.5) * h
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    base = np.stack([gx.ravel(), gy.ravel()], axis=1)
    for b in f.branch_set:
        b = np.asarray(b, dtype=float)
        gap = np.abs(base - b[None, :]).max(axis=1).min()
        if gap < 0.5 * h - 1e-12:
            raise ValueError(
                "probe lattice passes within half a cell of a declared branch "
                "point at %s; shift or refine the grid" % (b.tolist(),)
            )
    points = [base]
    pitches = [np.full(base.shape[0], h)]
    angles = 2.0 * math.pi * (np.arange(grid.ring_nodes) + 0.5) / grid.ring_nodes
    ring_dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for b in f.branch_set:
        b = np.asarray(b, dtype=float)
        for level in range(1, grid.zoom_levels + 1):
            rho = hw * 2.0 ** (-level)
            ring = b[None, :] + rho * ring_dirs
            points.append(ring)
            pitches.append(np.full(ring.shape[0], 0.5 * rho))
    X = np.concatenate(points, axis=0)
    pitch = np.concatenate(pitches)
    inside = np.abs(X).max(axis=1) <= hw
    X, pitch = X[inside], pitch[inside]

    diam = values_diameter(f.values(X))
    mask = diam < tol
    flagged = X[mask]
    trivial = bool(mask.all()) and mask.size > 0

    if flagged.shape[0] == 0:
        return ProbeResult(flagged=flagged, dimension_estimate=None, scales=(),
                           box_counts=(), trivial_field=False,
                           diagnostic="no flagged points")

    pitch_max = float(pitch[mask].max())
    scales = []
    counts = []
    k = 0
    while True:
        eps = 2.0 * hw * 2.0 ** (-k)
        if eps < 2.0 * pitch_max:
            break
        boxes = np.floor((flagged + hw) / eps)
        counts.append(int(np.unique(boxes, axis=0).shape[0]))
        scales.append(eps)
        k += 1
        if k > 60:
            break
    if len(scales) < 3:
        return ProbeResult(flagged=flagged, dimension_estimate=None, scales=tuple(scales),
                           box_counts=tuple(counts), trivial_field=trivial,
                           diagnostic="fewer than 3 usable dyadic scales")
    slope = float(np.polyfit(np.log(1.0 / np.asarray(scales)), np.log(counts), 1)[0])
    return ProbeResult(flagged=flagged, dimension_estimate=slope, scales=tuple(scales),
                       box_counts=tuple(counts), trivial_field=trivial,
                       diagnostic="trivial field" if trivial else None)


# ---------------------------------------------------------------------------
# spec grammar


def _split_top_level(text: str, sep: str):
    depth = 0
    pieces = []
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            pieces.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    pieces.append("".join(cur))
    return pieces


_POLY_TAG = re.compile(r"^n(\d+)m(\d+)$")


def _parse_poly_block(block: str):
    """Parse 'n2m2:poly;poly' into (n, m, tuple of Polynomial)."""
    head, _, body = block.partition(":")
    match = _POLY_TAG.match(head)
    if not match:
        raise FieldSpecError("polynomial block needs an n<d>m<d> dimension tag, got %r" % head)
    n, m = int(match.group(1)), int(match.group(2))
    comps = body.split(";")
    if len(comps) != m:
        raise FieldSpecError("expected %d components in %r, found %d" % (m, block, len(comps)))
    return n, m, tuple(parse_polynomial(c, n) for c in comps)


def parse_field_spec(spec: str) -> QField:
    """Parse a canonical field spec string into a QField.

    Grammar:
      trivial:Q
      harmonic:n<d>m<d>:<poly>;...|<poly>;...      sheets |, components ;
      branch:k/Q[:amp]
      superpose(<spec>,n<d>m<d>:<poly>;...)
      wound:seed,Q,L,decay
    """
    s = spec.strip()
    try:
        if s.startswith("trivial:"):
            return make_trivial(int(s.split(":", 1)[1]))
        if s.startswith("harmonic:"):
            rest = s.split(":", 1)[1]
            head, _, body = rest.partition(":")
            match = _POLY_TAG.match(head)
            if not match or not body:
                raise FieldSpecError("harmonic spec needs n<d>m<d>:<sheets>, got %r" % s)
            n, m = int(match.group(1)), int(match.group(2))
            sheets = []
            for sheet_text in body.split("|"):
                comps = sheet_text.split(";")
                if len(comps) != m:
                    raise FieldSpecError("sheet %r has %d components, expected %d"
                                         % (sheet_text, len(comps), m))
                sheets.append([parse_polynomial(c, n) for c in comps])
            return make_harmonic_sheets(sheets)
        if s.startswith("branch:"):
            parts = s.split(":")
            if len(parts) not in (2, 3):
                raise FieldSpecError("branch spec is branch:k/Q[:amp], got %r" % s)
            knum, _, qnum = parts[1].partition("/")
            amp = float(parts[2]) if len(parts) == 3 else 1.0
            return make_branch_field(int(knum), int(qnum), amp)
        if s.startswith("superpose(") and s.endswith(")"):
            inner = s[len("superpose("):-1]
            pieces = _split_top_level(inner, ",")
            if len(pieces) < 2:
                raise FieldSpecError("superpose needs a field spec and a polynomial block")
            block = pieces[-1]
            base_spec = ",".join(pieces[:-1])
            base = parse_field_spec(base_spec)
            n, m, comps = _parse_poly_block(block)
            if n != base.n or m != base.m:
                raise FieldSpecError("superpose block n%dm%d does not match field (n=%d, m=%d)"
                                     % (n, m, base.n, base.m))
            return superpose(base, comps)
        if s.startswith("wound:"):
            nums = s.split(":", 1)[1].split(",")
            if len(nums) != 4:
                raise FieldSpecError("wound spec is wound:seed,Q,L,decay, got %r" % s)
            return random_wound_field(int(nums[0]), int(nums[1]), int(nums[2]), float(nums[3]))
    except FieldSpecError:
        raise
    except (ValueError, IndexError) as exc:
        raise FieldSpecError("malformed field spec %r: %s" % (spec, exc))
    raise FieldSpecError("unknown field spec %r" % spec)
