"""The closed-form radial route of the two-sided checks on piece fields.

On a planar field with known Fourier pieces (QField.pieces) the angle
integrates exactly. A piece of winding w with modes (l, a_l, b_l), s = l / w
and c_l = |a_l|^2 + |b_l|^2 has, summed over its sheets and integrated over
the circle of radius r,

    M(r) = pi w (|a0|^2 / 2 + sum_l c_l r^(2 s))            of |f|^2,
    D(r) = pi w sum_l 2 s^2 c_l r^(2 s - 2)                  of |Df|^2,
    S(r) = pi w (k^2 |a0|^2 / 2 + sum_l (s - k)^2 c_l r^(2 s))  of |Df . x - k f|^2,

since Df . x = r d_r f takes each mode r^s to s r^s and modes are orthogonal
on the circle; a field's are the sums over its pieces. Every weighted check
is one integrand(r, M, D, S) of these three moments, with k its own
homogeneity exponent, which variational.moment_integrals feeds from the
field's values and gradients summed over the angular rule's directions, and
this module from the spectrum. The check reduces to radial integrals of its
integrand times r dr. Those are taken
here by a CLOSED_FORM_ORDER-point Gauss-Legendre rule on each panel between
the check's breakpoints; a ball's inner panel takes the graded substitution
r = b u^p of variational._graded_rule, p the least common multiple of the
windings, which makes the integrand a polynomial in u. This route never
evaluates the field: it is the second route that variational._two_resolution
compares a check's quadrature with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import QField
from .variational import QuadratureSpec, Region, _graded_rule, _leggauss

CLOSED_FORM_ORDER = 64


@dataclass(frozen=True)
class Spectrum:
    """The radial spectrum of a piece field: M(r) = const + sum_k c_k r^(2 s_k),
    D and S as in the module docstring, and the grading of a ball about the
    origin."""

    const: float
    modes: tuple  # (s_k, c_k), s_k distinct, c_k carrying pi w
    grading: int

    def moments(self, r: np.ndarray, k: float | None = None):
        """(M, D, S) at the radii r > 0, S for the exponent k (None when k is
        None). S is exact: it holds no cancellation, so it is 0 at k = s on
        a one-mode spectrum."""
        mass = np.full(r.shape, self.const)
        dirichlet = np.zeros(r.shape)
        defect = None if k is None else np.full(r.shape, k * k * self.const)
        for s, c in self.modes:
            term = c * r ** (2.0 * s)
            mass += term
            dirichlet += 2.0 * s * s * term / (r * r)
            if defect is not None:
                defect += (s - k) ** 2 * term
        return mass, dirichlet, defect


def spectrum(f: QField, center) -> Spectrum | None:
    """The spectrum of f about center, or None when the closed-form route
    does not apply: f has no known pieces, or center is not the origin."""
    if f.pieces is None or any(float(c) != 0.0 for c in center):
        return None
    const = 0.0
    energies: dict = {}
    for p in f.pieces:
        const += math.pi * p.winding * sum(v * v for v in p.a0) / 2.0
        for l, c in p.mode_energies():
            s = l / p.winding
            energies[s] = energies.get(s, 0.0) + math.pi * p.winding * c
    return Spectrum(const, tuple(sorted(energies.items())),
                    math.lcm(*(p.winding for p in f.pieces)))


_BALL_RULE = QuadratureSpec(radial_order=CLOSED_FORM_ORDER)


def integrals(spec: Spectrum, region: Region, breakpoints, integrand,
              k: float | None = None) -> tuple:
    """Integrals over the region of integrand(r, M, D, S) r dr, S for the
    exponent k, one per array of the tuple integrand returns, with one panel
    between each pair of consecutive breakpoints; a ball's first panel is
    graded."""
    inner, outer = region.radii
    edges = [inner] + sorted({float(b) for b in breakpoints if inner < b < outer}) + [outer]
    x, w = _leggauss(CLOSED_FORM_ORDER)
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        if a == 0.0:
            r, wr = _graded_rule(b, spec.grading, _BALL_RULE)
        else:
            r, wr = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
        parts.append([v * wr * r for v in integrand(r, *spec.moments(r, k))])
    return tuple(math.fsum(np.concatenate(col)) for col in zip(*parts))

