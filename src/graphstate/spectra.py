"""Limit laws: free Poisson and Fuss-Catalan densities, supports, entropies.

Densities are closed-form evaluators paired with adaptive quadrature so
every analytic claim (total mass, moments, entropy) can be cross-checked
numerically against the exact moments of `moments.DistributionId`.
Entropies use the natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class DensityFn:
    """A probability density on [lo, hi] plus a point mass at zero.

    `zero_power` records the x -> 0+ divergence exponent a in f ~ x^-a
    (0 <= a < 1); quadrature substitutes x = u^(1/(1-a)) to flatten it.
    """

    lo: float
    hi: float
    atom: float
    pdf: callable
    zero_power: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = np.maximum(self.pdf(x[inside]), 0.0)
        return out if out.ndim else float(out)

    def integrate(self, fn=lambda x: 1.0) -> float:
        """Integral of fn(x) * density over the continuous part.

        scipy is imported here, not with the module: no command calls
        the quadrature, and the import is most of `import graphstate`.
        """
        from scipy.integrate import quad

        if self.lo > 0 or self.zero_power == 0:
            val, _ = quad(lambda x: fn(x) * self.pdf(x),
                          self.lo, self.hi, limit=400)
            return val
        power = 1.0 / (1.0 - self.zero_power)
        top = self.hi ** (1.0 / power)

        def sub(u):
            x = u ** power
            return fn(x) * self.pdf(x) * power * u ** (power - 1.0)

        val, _ = quad(sub, 0.0, top, limit=400)
        return val

    def total_mass(self) -> float:
        return self.atom + self.integrate()

    def moment(self, p: int) -> float:
        """p-th moment by quadrature (the atom at zero contributes nothing)."""
        return self.integrate(lambda x: x ** p)

    def entropy(self) -> float:
        """Integral of -x ln x against the law (natural log)."""
        return self.integrate(lambda x: -x * math.log(x) if x > 0 else 0.0)


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

    return DensityFn(lo=lo, hi=hi, atom=max(1.0 - c, 0.0), pdf=pdf,
                     zero_power=0.5 if lo == 0.0 else 0.0)


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

    return DensityFn(lo=0.0, hi=hi, atom=0.0, pdf=pdf, zero_power=2.0 / 3.0)


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
