"""Limit laws: free Poisson and Fuss-Catalan densities, supports, entropies.

Densities are closed-form evaluators paired with one fixed tanh-sinh
quadrature, so every analytic claim (total mass, moments, entropy) can be
cross-checked numerically against the exact moments of
`moments.DistributionId`.  Entropies use the natural logarithm throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._record import _Record


class DensityFn(_Record):
    """A probability density on [lo, hi] plus a point mass at zero.

    `pdf` evaluates the continuous part on an array of points.
    """

    _fields = ("lo", "hi", "atom", "pdf")

    def __init__(self, lo, hi, atom, pdf):
        vars(self).update(lo=lo, hi=hi, atom=atom, pdf=pdf)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = np.maximum(self.pdf(x[inside]), 0.0)
        return out if out.ndim else float(out)

    def integrate(self, fn=lambda x: 1.0) -> float:
        """Integral of fn(x) * density over the continuous part.

        The double-exponential (tanh-sinh) rule of Takahasi and Mori
        (Publ. RIMS 9, 721, 1974): x = lo + (hi - lo)(1 + tanh u)/2 with
        u = (pi/2) sinh t, summed over t in [-4, 4] at step 1/32.  Its
        weights decay double-exponentially at both ends, so the algebraic
        singularities of the densities (x^-1/2 and x^-2/3 at the origin,
        square roots at the edges) need no substitution.  `fn` receives
        the array of the 257 nodes.  Each lies (hi - lo)/(1 + e^(2|u|))
        from the nearer end, a distance computed without cancellation, so
        no node near the origin is 0.
        """
        t = np.linspace(-4.0, 4.0, 257)
        u = np.pi / 2 * np.sinh(t)
        span = self.hi - self.lo
        near = span / (1.0 + np.exp(2.0 * np.abs(u)))
        x = np.where(u < 0, self.lo + near, self.hi - near)
        weight = span * np.pi / 4 / 32 * np.cosh(t) / np.cosh(u) ** 2
        return float(np.sum(weight * fn(x) * self.pdf(x)))

    def total_mass(self) -> float:
        return self.atom + self.integrate()

    def moment(self, p: int) -> float:
        """p-th moment by quadrature (the atom at zero contributes nothing)."""
        return self.integrate(lambda x: x ** p)

    def entropy(self) -> float:
        """Integral of -x ln x against the law (natural log)."""
        return self.integrate(lambda x: -x * np.log(x))


# ---------------------------------------------------------------------------
# free Poisson / Marchenko-Pastur
# ---------------------------------------------------------------------------

def mp_density(c) -> DensityFn:
    """Marchenko-Pastur law with parameter c > 0.

    Point mass max(1-c, 0) at zero plus the bulk
    sqrt((x - lo)(hi - x)) / (2 pi x) on [lo, hi] = [(1-sqrt(c))^2, (1+sqrt(c))^2],
    which squares nothing of the size of c.
    """
    c = float(c)
    if c <= 0:
        raise ValueError("c must be positive")
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2

    def pdf(x):
        x = np.asarray(x, dtype=float)
        num = np.sqrt(np.maximum((x - lo) * (hi - x), 0.0))
        return np.divide(num, 2.0 * np.pi * x,
                         out=np.zeros_like(num), where=x > 0)

    return DensityFn(lo=lo, hi=hi, atom=max(1.0 - c, 0.0), pdf=pdf)


def mp_entropy(c) -> float:
    """Closed form for the integral of -x ln x against the MP(c) law."""
    c = float(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if c >= 1.0:
        return -0.5 - c * math.log(c)
    return -c * c / 2.0


# ---------------------------------------------------------------------------
# Fuss-Catalan family
# ---------------------------------------------------------------------------

def fc_support(s: int) -> Fraction:
    """Upper edge of the support: (s+1)^(s+1) / s^s; the law lives on [0, K]."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return Fraction((s + 1) ** (s + 1), s ** s)


def fc_entropy(s: int) -> Fraction:
    """Exact integral of -x ln x: minus the harmonic tail sum_{j=2}^{s+1} 1/j."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return -sum(Fraction(1, j) for j in range(2, s + 2))


def fc2_density() -> DensityFn:
    """Closed-form density of the order-2 law on (0, 27/4].

    Diverges like x^(-2/3) at the origin and vanishes at the right edge.
    """
    hi = 27.0 / 4.0
    cbrt2 = 2.0 ** (1.0 / 3.0)
    front = cbrt2 * math.sqrt(3.0) / (12.0 * math.pi)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        r = 27.0 + 3.0 * np.sqrt(np.maximum(81.0 - 12.0 * x, 0.0))
        num = cbrt2 * r ** (2.0 / 3.0) - 6.0 * np.cbrt(x)
        den = x ** (2.0 / 3.0) * r ** (1.0 / 3.0)
        return front * num / den

    return DensityFn(lo=0.0, hi=hi, atom=0.0, pdf=pdf)


def fc_density(s: int) -> DensityFn:
    """Density evaluator for the order-s law; closed forms exist for s <= 2.

    Higher orders are served through moments, support, entropy, and the
    Monte Carlo sampler only.
    """
    if s == 1:
        return mp_density(1)
    if s == 2:
        return fc2_density()
    raise ValueError(f"no closed-form density at order s={s}; use moments/sampling")
