"""Second routes for the benchmark's correctness gate.

Every workload field here is a sum of rewound harmonic pieces whose
coefficients the benchmark knows from the generated input, so the
quantities the checks compute by polar quadrature have closed forms:
``weiss2d.harmonic_extension_energy`` and ``weiss2d.trace_l2`` give the
ball energy D(r) and the circle mass H(r), and for the exactly homogeneous
branch fields every sheet-summed density is an explicit power of r.
Radial integrals of those closed forms use a Gauss-Legendre rule of their
own, never qvlab's integration engine.
"""

from __future__ import annotations

import math

import numpy as np

GL_NODES = 48
_GL = np.polynomial.legendre.leggauss(GL_NODES)


def radial_integral(fn, edges) -> float:
    """Integral of fn(r) dr over [edges[0], edges[-1]], one rule per piece."""
    x, w = _GL
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(w, fn(r)))
    return total


def close(value, expected, rel, floor=0.0) -> bool:
    return abs(value - expected) <= rel * max(abs(expected), abs(value)) + floor


class PieceField:
    """Closed-form radial profile of Q sheets built from Fourier pieces.

    pieces are ``weiss2d.FourierPiece`` objects, one per monodromy cycle;
    shift pieces (winding 1) are added to every sheet, as ``superpose``
    does. Cross terms between the sheets and the shift vanish when the
    sheets sum to zero pointwise, which holds for every piece whose modes
    are not multiples of its winding; the benchmark only builds such
    superpositions.
    """

    def __init__(self, weiss2d, pieces, shift=()):
        self.w = weiss2d
        self.pieces = tuple(pieces)
        self.shift = tuple(shift)
        self.q = sum(p.winding for p in self.pieces)

    def dirichlet(self, r: float) -> float:
        """Ball Dirichlet energy D(r)."""
        e = self.w.harmonic_extension_energy
        return sum(e(p, r) for p in self.pieces) + self.q * sum(e(h, r) for h in self.shift)

    def height(self, r: float) -> float:
        """Circle integral H(r) of the squared sheets."""
        t = self.w.trace_l2
        return sum(t(p, r) for p in self.pieces) + self.q * sum(t(h, r) for h in self.shift)

    def ring_mass(self, inner: float, outer: float) -> float:
        return radial_integral(np.vectorize(self.height), [inner, outer])

    def frequency(self, r: float) -> float:
        return r * self.dirichlet(r) / self.height(r)

    def linear_frequency(self, r: float) -> float:
        """The ramp-cutoff frequency of ``frequency.frequency(..., "linear")``."""
        d_prime = np.vectorize(lambda rho: self._dirichlet_rate(rho))
        ramp = radial_integral(lambda rho: (2.0 - rho / r) * d_prime(rho), [r, 2.0 * r])
        h = np.vectorize(self.height)
        shell = radial_integral(lambda rho: h(rho) / rho, [r, 2.0 * r]) / r
        return (self.dirichlet(r) + ramp) / shell

    def _dirichlet_rate(self, rho: float) -> float:
        total = 0.0
        for pieces, mult in ((self.pieces, 1), (self.shift, self.q)):
            for p in pieces:
                for l, c in p.mode_energies():
                    s = l / p.winding
                    total += mult * math.pi * l * 2.0 * s * rho ** (2.0 * s - 1.0) * c
        return total

    def weiss(self, kappa: float, r: float) -> float:
        d = 2.0
        return (r ** -(d + 2.0 * kappa - 2.0) * self.dirichlet(r)
                - kappa * r ** -(d + 2.0 * kappa - 1.0) * self.height(r))

    def smallest_order(self) -> float:
        """Smallest active homogeneity l/Q over all pieces."""
        return min(l / p.winding for p in self.pieces + self.shift
                   for l, c in p.mode_energies() if c > 0.0)


class BranchRadial:
    """Sheet-summed densities of the homogeneous field branch:k/Q:amp.

    Each sheet is amp * z^(k/Q) on its branch, so |f|^2 = Q amp^2 r^(2 kappa),
    |Df|^2 = 2 Q kappa^2 amp^2 r^(2 kappa - 2) and Df . x = kappa f.
    """

    def __init__(self, k: int, Q: int, amp: float):
        self.kappa = k / Q
        self.q = Q
        self.amp = amp

    def mass(self, r):
        return self.q * self.amp ** 2 * r ** (2.0 * self.kappa)

    def grad2(self, r):
        return 2.0 * self.q * self.kappa ** 2 * self.amp ** 2 * r ** (2.0 * self.kappa - 2.0)

    def _area(self, density, edges):
        return radial_integral(lambda r: 2.0 * math.pi * r * density(r), edges)

    def carleman(self, tau, eps, exponent, cutoff):
        """(lhs, rhs) of ``carleman.carleman_sides`` with mass exponent E."""
        eta = tau  # (2 tau - n + 2) / 2 in the plane
        edges = list(cutoff.radii)
        lhs = self._area(lambda r: cutoff.chi_r(r) * (
            eps ** 2 * self.mass(r) / r ** exponent
            + (self.kappa - eta) ** 2 * self.mass(r) / r ** (2.0 * tau + 2.0)), edges)
        rhs = self._area(lambda r: np.abs(cutoff.dchi_r(r)) * (
            self.grad2(r) / r ** (2.0 * tau - 1.0) + self.mass(r) / r ** (2.0 * tau + 1.0)), edges)
        return lhs, rhs

    def modified(self, tau, bent, cutoff):
        """(lhs, rhs_boundary, rhs_bulk_integral) of ``modified_carleman_sides``."""
        eta = tau  # (2 tau - n + 2) / 2 in the plane
        a_in, a_out = cutoff.radii[0], cutoff.radii[-1]
        edges = sorted({float(e) for e in cutoff.radii}
                       | {float(k) for k in bent.knot_radii() if a_in < k < a_out})

        def weight(r):
            return np.exp(-2.0 * tau * bent.phi(np.log(r)))

        lhs = self._area(lambda r: cutoff.chi_r(r) * (self.kappa - eta) ** 2
                         * self.mass(r) / r ** 2 * weight(r), edges)
        boundary = self._area(lambda r: np.abs(cutoff.dchi_r(r)) * (
            r * self.grad2(r) + self.mass(r) / r) * weight(r), edges)
        bulk = self._area(lambda r: cutoff.chi_r(r) * (
            self.grad2(r) + self.mass(r) / r ** 2) * weight(r), edges)
        return lhs, boundary, bulk
