"""Exact Weingarten functions for Haar unitary integration.

`wg_exact` evaluates the character formula of Collins and Sniady,

    Wg(sigma, n) = (1/p!) sum over lambda |- p with at most n rows of
                   chi^lambda(e) chi^lambda(sigma) / prod_cells (n + content),

the Haar integration weight at every dimension n >= 1.  For n >= p it
inverts sigma -> n^(#sigma) under convolution on S_p; for n < p that map
is singular and the table is its pseudo-inverse.  Characters come from
the Murnaghan-Nakayama rule on partitions, so S_p is never built.
A table is read by cycle type alone, as the moment engines read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class WeingartenTable:
    """Wg(n, .) on S_p as a map cycle-type -> exact rational value."""

    p: int
    n: int
    values: dict

    def by_type(self, cycle_type) -> Fraction:
        return self.values[tuple(cycle_type)]


@lru_cache(maxsize=None)
def _partitions(p: int, largest: int = None):
    """Partitions of p as descending tuples, parts at most `largest`."""
    if p == 0:
        return ((),)
    top = p if largest is None else min(p, largest)
    return tuple((k,) + rest for k in range(top, 0, -1) for rest in _partitions(p - k, k))


@lru_cache(maxsize=None)
def _character(shape, rho) -> int:
    """chi^shape on cycle type rho, by Murnaghan-Nakayama on beta-sets.

    Removing a border strip of length k from `shape` moves one beta
    number b = shape[i] + (rows - 1 - i) down to a free b - k; the sign
    is -1 to the number of beta numbers it jumps over.
    """
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    rows = len(shape)
    beta = [part + rows - 1 - i for i, part in enumerate(shape)]
    total = 0
    for i, b in enumerate(beta):
        if b < k or b - k in beta:
            continue
        jumped = sum(1 for c in beta if b - k < c < b)
        moved = sorted(beta[:i] + [b - k] + beta[i + 1:], reverse=True)
        smaller = tuple(x for x in (c - (rows - 1 - j) for j, c in enumerate(moved)) if x)
        total += (-1) ** jumped * _character(smaller, rest)
    return total


def _content_product(shape, n: int) -> int:
    """prod over the cells (i, j) of `shape` of n + j - i."""
    return math.prod(n + j - i for i, part in enumerate(shape) for j in range(part))


def wg_exact(p: int, n: int) -> WeingartenTable:
    """Exact Weingarten table at order p and integer dimension n >= 1, over one denominator."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    kept = [(lam, _content_product(lam, n)) for lam in _partitions(p) if len(lam) <= n]
    common = math.lcm(*(c for _, c in kept))
    terms = [(lam, _character(lam, (1,) * p) * (common // c)) for lam, c in kept]
    values = {rho: Fraction(sum(w * _character(lam, rho) for lam, w in terms), math.factorial(p) * common)
              for rho in sorted(_partitions(p))}
    return WeingartenTable(p=p, n=n, values=values)

