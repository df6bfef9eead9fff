"""Under the hood: Weingarten tables, Moebius asymptotics, Haar sampling.

Every exact moment reduces to tables of the Weingarten function, the
convolution inverse of sigma -> n^(#cycles) (its pseudo-inverse when
n < p, where the Haar integration formula still holds).  Its large-n
behavior is a Moebius function weighted by Catalan numbers, which is what
turns moment sums into non-crossing partition counts.
"""

import itertools
import math

import numpy as np

from graphstate import catalan, wg_exact
from graphstate.montecarlo import haar_isometry


def cycle_type(perm):
    """Cycle lengths of a permutation in one-line notation, longest first."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def convolution_defect(table, sigma):
    """sum_tau Wg(sigma tau^-1) n^(#tau) minus delta(sigma, id), over tau in S_p."""
    total = 0
    for tau in itertools.permutations(range(table.p)):
        # sigma tau^-1: sorting the points by their images under tau lists tau^-1
        product = [sigma[j] for j in sorted(range(table.p), key=tau.__getitem__)]
        total += table.by_type(cycle_type(product)) * table.n ** len(cycle_type(tau))
    return total - (cycle_type(sigma) == (1,) * table.p)


def mobius(cycles):
    """Moebius function of a permutation's cycle type: each d-cycle gives (-1)^(d-1) c_(d-1)."""
    return math.prod((-1) ** (d - 1) * catalan(d - 1) for d in cycles)


print("=== exact tables are convolution inverses ===")
for p, n in ((2, 8), (3, 8), (4, 16)):
    table = wg_exact(p, n)
    worst = max(abs(convolution_defect(table, s)) for s in itertools.permutations(range(p)))
    print(f"  p={p}, n={n}: {len(table.values)} cycle types, "
          f"max identity defect {worst} (exact zero)")
print("  p=2, n=2 table:", {t: str(v) for t, v in wg_exact(2, 2).values.items()})
below = wg_exact(3, 2)
total = sum(below.by_type(cycle_type(s)) for s in itertools.permutations(range(3)))
print(f"  p=3, n=2 (below the order): 3! sum Wg = {6 * total} = E|U11|^6 on U(2)")
print()

print("=== Moebius asymptotics: Wg ~ n^-(p+|sigma|) Mob(sigma) ===")
p = 3
for cycles in ((1, 1, 1), (2, 1), (3,)):
    print(f"  sigma cycles {cycles}: Mob = {mobius(cycles):3d}")
for n in (8, 16, 32):
    table = wg_exact(p, n)
    exact = float(table.by_type((p,)))
    # |sigma| = p - #sigma = p - 1 on the long cycle
    approx = float(n) ** -(2 * p - 1) * mobius((p,))
    print(f"  n={n:3d}: exact {exact:+.3e}, leading term {approx:+.3e}, "
          f"relative gap {(exact - approx) / exact:+.2e}  (shrinks like 1/n^2)")
print()

print("=== Haar sampling hits the table values ===")
n, samples = 8, 20000
rng = np.random.default_rng(123)
vals = np.array([abs(haar_isometry(rng, n, n)[0, 0]) ** 2 for _ in range(samples)])
table = wg_exact(2, n)
target = float(2 * (table.by_type((1, 1)) + table.by_type((2,))))
print(f"  E|U11|^2 = {vals.mean():.5f}  (exact {1 / n:.5f})")
print(f"  E|U11|^4 = {(vals ** 2).mean():.6f}  (exact {target:.6f} "
      f"= 2/(n(n+1)))")
print(f"  stderr scale {vals.std(ddof=1) / math.sqrt(samples):.1e}")
