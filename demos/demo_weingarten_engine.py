"""Under the hood: Weingarten tables, Moebius asymptotics, Haar sampling.

Every exact moment reduces to tables of the Weingarten function, the
convolution inverse of sigma -> n^(#cycles) (its pseudo-inverse when
n < p, where the Haar integration formula still holds).  Its large-n
behavior is a Moebius function weighted by Catalan numbers, which is what
turns moment sums into non-crossing partition counts.
"""

import math

import numpy as np

from graphstate import Perm, haar_unitary, mobius, wg_asym, wg_exact
from graphstate.combinatorics import all_perms
from graphstate.weingarten import convolution_defect

print("=== exact tables are convolution inverses ===")
for p, n in ((2, 8), (3, 8), (4, 16)):
    table = wg_exact(p, n)
    worst = max(abs(convolution_defect(table, s)) for s in all_perms(p))
    print(f"  p={p}, n={n}: {len(table.values)} cycle types, "
          f"max identity defect {worst} (exact zero)")
print("  p=2, n=2 table:", {t: str(v) for t, v in wg_exact(2, 2).values.items()})
below = wg_exact(3, 2)
print(f"  p=3, n=2 (below the order): 3! sum Wg = "
      f"{6 * sum(below(s) for s in all_perms(3))} = E|U11|^6 on U(2)")
print()

print("=== Moebius asymptotics: Wg ~ n^-(p+|sigma|) Mob(sigma) ===")
p = 3
for sigma in (Perm.identity(p), Perm((1, 0, 2)), Perm.full_cycle(p)):
    print(f"  sigma cycles {sigma.cycle_type()}: Mob = {mobius(sigma):3d}")
for n in (8, 16, 32):
    table = wg_exact(p, n)
    sigma = Perm.full_cycle(p)
    exact = float(table(sigma))
    approx = wg_asym(p, n, sigma)
    print(f"  n={n:3d}: exact {exact:+.3e}, leading term {approx:+.3e}, "
          f"relative gap {(exact - approx) / exact:+.2e}  (shrinks like 1/n^2)")
print()

print("=== Haar sampling hits the table values ===")
n, samples = 8, 20000
rng = np.random.default_rng(123)
vals = np.array([abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(samples)])
table = wg_exact(2, n)
target = float(2 * (table(Perm.identity(2)) + table(Perm((1, 0)))))
print(f"  E|U11|^2 = {vals.mean():.5f}  (exact {1 / n:.5f})")
print(f"  E|U11|^4 = {(vals ** 2).mean():.6f}  (exact {target:.6f} "
      f"= 2/(n(n+1)))")
print(f"  stderr scale {vals.std(ddof=1) / math.sqrt(samples):.1e}")
