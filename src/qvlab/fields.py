"""Evaluable Q-valued fields: example library, rescaling, singular probe.

A QField packages batch evaluation (values and per-sheet gradients) of a
Q-valued map together with its declared branch set and a canonical textual
spec. The library constructors are: identically-zero tuples, tuples of
harmonic polynomial sheets, homogeneous branched covers of the plane,
single-valued harmonic superpositions, blow-up rescalings, and seeded
random wound fields built from harmonic extensions of random circle data.
Circle data is held in FourierPiece records, the one validator for wound
field input and for the trace pieces that weiss2d computes.
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
        """Values at the (N, n) points X; each power X[:, axis] ** e is
        taken once per call, however many terms share it."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        powers: dict = {}
        for expo, coeff in self.terms:
            term = coeff
            for axis, e in enumerate(expo):
                if e:
                    if (axis, e) not in powers:
                        powers[axis, e] = X[:, axis] ** e
                    term = term * powers[axis, e]
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


@dataclass(frozen=True, eq=False)
class QField:
    """Batch-evaluable Q-valued map with per-sheet gradients away from branch points.

    values(X) maps (N, n) sample points to (N, q, m) sheet values; the sheet
    axis carries a deterministic labeling that is continuous away from the
    branch set and the labeling cut, while the multiset of values is
    continuous everywhere. gradients(X) returns (N, q, m, n).

    radial_grading p: about each branch point every sheet is a finite sum of
    r^(j/p) times trigonometric terms in the angle; None (unknown) only
    without branch points.

    pieces: planar FourierPiece records about the origin whose sheet-summed
    angular integral of any quadratic density of values and gradients is the
    sum of the pieces' integrals, each piece counted once (see radial); None
    when unknown.

    polar: optional evaluation on the polar product grid about the origin.
    polar(rr, dirs, need_values, need_gradients) returns (values | None,
    gradients | None) at the nodes (rr[:, None, None] * dirs[None]).reshape(
    -1, 2), radius-major, with each node's angle taken as arctan2 of its
    direction; the arrays are those of values_fn and gradients_fn up to the
    rounding of each node's (r, theta). Branch, wound and superposed fields
    set it, so they can take trig per angle and powers per radius; None
    elsewhere. The name does not end in _fn: a one-argument wrapper of every
    *_fn field would not fit it.
    """

    n: int
    m: int
    q: int
    tag: str
    values_fn: Callable
    gradients_fn: Callable
    branch_set: tuple = ()
    domain_radius: float = math.inf
    certificate_fn: Callable[[], dict] | None = None
    radial_grading: int | None = None
    pieces: tuple | None = None
    polar: Callable | None = None

    def __post_init__(self):
        if self.branch_set and self.radial_grading is None:
            raise ValueError("field %r declares branch points but no radial_grading" % self.tag)

    @property
    def construction_cert(self) -> dict | None:
        """The construction certificate, or None for a field built without one.

        certificate_fn runs on the first read and its dict is kept on this
        field object; later reads return that same dict. The certificate is
        deterministic, so two threads that read it at once build equal dicts
        and either may be kept; no lock is needed.
        """
        if self.certificate_fn is None:
            return None
        cert = self.__dict__.get("_construction_cert")
        if cert is None:
            cert = self.certificate_fn()
            object.__setattr__(self, "_construction_cert", cert)
        return cert

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

    pieces = tuple(_polynomial_piece(sheet) for sheet in sheets) if n == 2 else None
    return QField(n=n, m=m, q=q, tag=tag, values_fn=values, gradients_fn=gradients,
                  pieces=pieces)


@dataclass(frozen=True)
class FourierPiece:
    """One irreducible piece of a circle trace.

    winding is the cycle length Q_j; a0 the constant coefficient (vector in
    R^m); modes a tuple of (l, a_l, b_l) with strictly increasing positive
    integer l, parametrizing the unwound curve
    gamma(theta) = a0/2 + sum_l [a_l sin(l theta) + b_l cos(l theta)].
    """

    winding: int
    a0: tuple
    modes: tuple

    def __post_init__(self):
        winding = int(self.winding)
        if winding < 1:
            raise FieldSpecError("winding must be a positive integer")
        a0 = tuple(float(v) for v in np.atleast_1d(self.a0))
        m = len(a0)
        modes = []
        last = 0
        for l, a, b in self.modes:
            l = int(l)
            if l <= last:
                raise FieldSpecError("mode indices must be strictly increasing and positive")
            last = l
            a = tuple(float(v) for v in np.atleast_1d(a))
            b = tuple(float(v) for v in np.atleast_1d(b))
            if len(a) != m or len(b) != m:
                raise FieldSpecError("mode coefficients must be vectors of dimension %d" % m)
            modes.append((l, a, b))
        for vec in [a0] + [v for _, a, b in modes for v in (a, b)]:
            if not all(math.isfinite(v) for v in vec):
                raise FieldSpecError("coefficients must be finite")
        object.__setattr__(self, "winding", winding)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "modes", tuple(modes))

    @property
    def m(self) -> int:
        return len(self.a0)

    def mode_energies(self):
        """[(l, c_l)] with c_l = |a_l|^2 + |b_l|^2."""
        return [(l, sum(v * v for v in a) + sum(v * v for v in b))
                for l, a, b in self.modes]

    def max_mode(self) -> int:
        return self.modes[-1][0] if self.modes else 0

    def to_dict(self) -> dict:
        return {"winding": self.winding, "a0": list(self.a0),
                "modes": [{"l": l, "a": list(a), "b": list(b)} for l, a, b in self.modes]}

    @classmethod
    def from_dict(cls, d: dict) -> "FourierPiece":
        return cls(winding=d["winding"], a0=tuple(d["a0"]),
                   modes=tuple((entry["l"], tuple(entry["a"]), tuple(entry["b"]))
                               for entry in d["modes"]))


def _polynomial_piece(components) -> FourierPiece:
    """The winding-1 piece of a planar harmonic polynomial map, read from its
    coefficients: the degree-l part of a component is A Re z^l + B Im z^l with
    A = coeff(x1^l) and B = coeff(x1^(l-1) x2) / l, so b_l = A and a_l = B,
    and a0 is twice the constant term."""
    coeffs = [dict(comp.terms) for comp in components]
    degrees = sorted({sum(expo) for comp in components for expo, _ in comp.terms} - {0})
    return FourierPiece(
        winding=1, a0=tuple(2.0 * c.get((0, 0), 0.0) for c in coeffs),
        modes=tuple((l, tuple(c.get((l - 1, 1), 0.0) / l for c in coeffs),
                     tuple(c.get((l, 0), 0.0) for c in coeffs)) for l in degrees))


def _sums_to_zero(pieces) -> bool:
    """Whether the sheets of all the pieces together sum to zero at every
    point. Over its w sheets a piece sums to w a0/2 plus, for each mode
    whose index l the winding divides, w r^(l/w) (a_l sin + b_l cos) of
    (l/w) theta; so w a0/2 and, per degree l/w, w (a_l, b_l) must each total
    exactly zero over the pieces."""
    totals = {0: sum(p.winding * np.asarray(p.a0) / 2.0 for p in pieces)}
    for p in pieces:
        for l, a, b in p.modes:
            if l % p.winding == 0:
                degree = l // p.winding
                totals[degree] = totals.get(degree, 0.0) + p.winding * np.asarray(a + b)
    return not any(np.any(total) for total in totals.values())


def _wound_kernel(pieces, m):
    """Batch evaluation of rewound harmonic extensions on the plane.

    pieces: tuple of (winding, a0 (m,), modes) with modes a tuple of
    (l, a (m,), b (m,)). Piece j contributes winding sheets
        w_i(r, theta) = a0/2 + sum_l r^s [a_l sin(phase) + b_l cos(phase)],
        s = l / Q_j,  phase = l (theta + 2 pi i) / Q_j,
    the i-th sheet of the Q_j-fold rewinding of the harmonic extension of the
    unwound circle data.

    Returns (q_total, kernel). kernel(r, theta, need_values, need_gradients)
    returns (values | None, gradients | None) of shapes grid + (q_total, m)
    and grid + (q_total, m, 2), where r and theta broadcast to the node
    grid: (N,) and (N,) for scattered points, or (R, 1) and (1, M) for the
    product of R radii and M angles. On a product grid the sheet phases
    and their sin/cos run once per angle, r^s once per radius, and all m
    components in one array operation. With g = a_l sin + b_l cos and
    g' = a_l cos - b_l sin of the phase, a mode's gradient is
    s r^(s-1) (g cos(theta) - g' sin(theta), g sin(theta) + g' cos(theta)):
    the polar frame (d_r, (1/r) d_theta) rotated to Cartesian axes per
    angle, then scaled per radius. At the puncture r = 0 the gradient
    entries are zero placeholders (the point belongs to the branch set
    whenever any winding exceeds one or a fractional homogeneity is
    present). Values sum a0/2 and then the modes in order, as one sheet at
    a time would. Only elementwise broadcasting is used, so results do not
    depend on BLAS threads.
    """
    # Work arrays are laid out (row, sheet, component[, axis], node): a
    # product grid is R rows of M angle nodes, scattered points one row of N
    # nodes, so every numpy loop runs along the nodes. Per piece: its sheet
    # columns, a0/2, the modes' s, and their sheet phase shifts and a, b
    # stacked over the modes.
    plan = []
    col = 0
    for winding, a0, modes in pieces:
        winding = int(winding)
        L = len(modes)
        plan.append((slice(col, col + winding), 0.5 * np.asarray(a0, dtype=float).reshape(m, 1),
                     [l / winding for l, _, _ in modes],
                     np.array([[(2.0 * math.pi * l * i) / winding for i in range(winding)]
                               for l, _, _ in modes]).reshape(L, 1, winding, 1, 1),
                     np.array([a for _, a, _ in modes], dtype=float).reshape(L, 1, 1, m, 1),
                     np.array([b for _, _, b in modes], dtype=float).reshape(L, 1, 1, m, 1)))
        col += winding
    q_total = col

    def kernel(r, theta, need_values, need_gradients):
        grid = np.broadcast_shapes(np.shape(r), np.shape(theta))
        r = np.atleast_2d(r)[:, None, None, :]
        theta = np.atleast_2d(theta)[:, None, None, :]
        rows, width = r.shape[0], theta.shape[-1]
        values = np.zeros((rows, q_total, m, width)) if need_values else None
        gradients = np.zeros((rows, q_total, m, 2, width)) if need_gradients else None
        if need_gradients:
            at_zero = r == 0.0
            safe_r = np.where(at_zero, 1.0, r)
            cos_t, sin_t = np.cos(theta), np.sin(theta)
        for cols, half_a0, s, shifts, a, b in plan:
            if need_values:
                values[:, cols] += half_a0
            # the angle work of all modes in one pass on a product grid;
            # scattered points take the modes one at a time, so that no
            # temporary outgrows one mode's share of the result
            step = max(len(s), 1) if rows > 1 else 1
            for lo in range(0, len(s), step):
                ks = slice(lo, lo + step)
                phase = np.reshape(s[ks], (-1, 1, 1, 1, 1)) * theta + shifts[ks]
                sin_p, cos_p = np.sin(phase), np.cos(phase)
                g = sin_p * a[ks] + cos_p * b[ks]
                if need_gradients:
                    dg = cos_p * a[ks] - sin_p * b[ks]
                    rotated = np.stack([g * cos_t - dg * sin_t, g * sin_t + dg * cos_t], axis=-2)
                # the radius work one mode at a time, in order; each power
                # takes a scalar exponent, as numpy's fast paths for 0.5
                # and 2 need
                for k, sk in enumerate(s[ks]):
                    if need_values:
                        values[:, cols] += r ** sk * g[k]
                    if need_gradients:
                        scale = sk * np.where(at_zero, 0.0, safe_r ** (sk - 1.0))
                        gradients[:, cols] += scale[..., None, :] * rotated[k]
        if need_values:
            values = np.ascontiguousarray(values.transpose(0, 3, 1, 2)).reshape(grid + (q_total, m))
        if need_gradients:
            gradients = np.ascontiguousarray(gradients.transpose(0, 4, 1, 2, 3)).reshape(
                grid + (q_total, m, 2))
        return values, gradients

    return q_total, kernel


def _planar_fns(kernel):
    """values_fn, gradients_fn and polar of a planar kernel(r, theta,
    need_values, need_gradients) (see _wound_kernel and QField.polar)."""

    def scattered(X, need_values, need_gradients):
        return kernel(np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0]),
                      need_values, need_gradients)

    def polar(rr, dirs, need_values, need_gradients):
        theta = np.arctan2(dirs[:, 1], dirs[:, 0])
        out = kernel(rr[:, None], theta[None, :], need_values, need_gradients)
        return tuple(None if a is None else a.reshape((-1,) + a.shape[2:]) for a in out)

    return (lambda X: scattered(X, True, False)[0], lambda X: scattered(X, False, True)[1],
            polar)


def make_wound_field(pieces, m: int = 2, tag: str = "", domain_radius: float = math.inf) -> QField:
    """Field whose sheets rewind harmonic extensions of unwound circle data.

    pieces are FourierPiece objects or (winding, a0, modes) tuples, which
    are checked as FourierPiece; every piece must map into R^m.
    """
    pieces = tuple(p if isinstance(p, FourierPiece) else FourierPiece(*p) for p in pieces)
    if any(p.m != m for p in pieces):
        raise FieldSpecError("a0 must be a vector of dimension %d" % m)
    q_total, kernel = _wound_kernel([(p.winding, p.a0, p.modes) for p in pieces], m)
    values, gradients, polar = _planar_fns(kernel)
    # winding-1 pieces with integer modes are harmonic polynomial sheets, hence
    # smooth; any winding above one puts a genuine branch point at the origin
    smooth = all(p.winding == 1 for p in pieces)
    branch = () if smooth else (np.zeros(2),)
    return QField(n=2, m=m, q=q_total, tag=tag or "wound-pieces:%d" % q_total,
                  values_fn=values, gradients_fn=gradients, polar=polar, branch_set=branch,
                  domain_radius=domain_radius,
                  radial_grading=math.lcm(*(p.winding for p in pieces)), pieces=pieces)


def make_branch_field(k: int, Q: int, amp: float = 1.0) -> QField:
    """Planar branched cover: Q sheets of amp * r^(k/Q) e^(i k (theta + 2 pi i)/Q).

    Homogeneous of degree k/Q by construction; branch point declared at the
    origin. gcd(k, Q) = g > 1 reproduces each of the Q/g distinct sheets g
    times (multiset semantics keep that consistent).
    """
    if k <= 0 or Q <= 0:
        raise FieldSpecError("branch field needs positive k and Q, got k=%d Q=%d" % (k, Q))
    piece = FourierPiece(Q, (0.0, 0.0), ((k, (0.0, amp), (amp, 0.0)),))
    tag = "branch:%d/%d" % (k, Q) if amp == 1.0 else "branch:%d/%d:%s" % (k, Q, repr(float(amp)))
    values, gradients, polar = _planar_fns(
        _wound_kernel([(piece.winding, piece.a0, piece.modes)], 2)[1])
    return QField(n=2, m=2, q=Q, tag=tag, values_fn=values, gradients_fn=gradients, polar=polar,
                  branch_set=(np.zeros(2),), radial_grading=Q // math.gcd(k, Q),
                  pieces=(piece,))


def superpose(f: QField, h) -> QField:
    """Add a single-valued harmonic polynomial map to every sheet of f.

    The result has pieces only where the cross terms of each quadratic
    density vanish: f has pieces and its sheets sum to zero, possibly only
    across pieces. It then counts the shift's winding-1 piece once per sheet.
    Over a base with polar, its polar is the base's plus the shift evaluated
    at the grid's nodes.
    """
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

    def value_shift(X):
        return np.stack([comp.value(X) for comp in h], axis=1)[:, None, :]

    def gradient_shift(X):
        shift = np.empty((X.shape[0], f.m, f.n))
        for k in range(f.m):
            for axis in range(f.n):
                shift[:, k, axis] = partials[k][axis].value(X)
        return shift[:, None, :, :]

    def values(X):
        return f.values_fn(X) + value_shift(X)

    def gradients(X):
        return f.gradients_fn(X) + gradient_shift(X)

    def polar(rr, dirs, need_values, need_gradients):
        vals, grads = f.polar(rr, dirs, need_values, need_gradients)
        X = (rr[:, None, None] * dirs[None]).reshape(-1, f.n)
        return (vals + value_shift(X) if need_values else None,
                grads + gradient_shift(X) if need_gradients else None)

    pieces = None
    if f.pieces is not None and _sums_to_zero(f.pieces):
        pieces = f.pieces + (_polynomial_piece(h),) * f.q
    return QField(n=f.n, m=f.m, q=f.q, tag=tag, values_fn=values, gradients_fn=gradients,
                  polar=None if f.polar is None else polar, branch_set=f.branch_set,
                  domain_radius=f.domain_radius, radial_grading=f.radial_grading,
                  pieces=pieces)


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
                  branch_set=branch, domain_radius=radius, radial_grading=f.radial_grading)


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

    pieces = [FourierPiece(*p) for p in random_wound_pieces(seed, Q, L, decay)]
    tag = "wound:%d,%d,%d,%s" % (seed, Q, L, repr(float(decay)))
    return weiss2d.solve_disk(pieces, tag=tag)


# ---------------------------------------------------------------------------
# singular set probe

RING_NODES = 16


@dataclass(frozen=True)
class ProbeGrid:
    """Cell-centered lattice on [-half_width, half_width]^2 plus dyadic rings.

    The base lattice uses cell centers, so a branch point sitting on a cell
    corner is avoided by half a cell automatically; rings of RING_NODES
    points and radius half_width * 2^-level around each declared branch
    point refine the probe toward the scales where sheet collapse happens.
    """

    half_width: float = 1.0
    cells_per_side: int = 64
    zoom_levels: int = 20


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
    angles = 2.0 * math.pi * (np.arange(RING_NODES) + 0.5) / RING_NODES
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
