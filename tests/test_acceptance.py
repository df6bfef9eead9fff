"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite executes.  Criterion 9 compares the Haar and Ginibre sampling modes
through the exact gap between their finite-N oracles: the two ensembles
differ on its 4-cycle at every N, and in the limit.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from graphstate.catalog import (
    cycle_graph,
    exotic_graph,
    fc_template,
    one_loop,
    star_graph,
)
from graphstate.combinatorics import catalan, count_poset_tuples, fuss_catalan, mp_moment
from graphstate.moments import (
    asymptotic_moment,
    exact_moment,
    exact_moment_gaussian,
    marginal_max_flow,
    minimizer_set,
    moment_table,
)
from graphstate.montecarlo import estimate, haar_isometry
from graphstate.spectra import fc2_density, fc_entropy, mp_density
from graphstate.weingarten import wg_exact
from oracles import (
    Perm,
    all_perms,
    chain_poset,
    convolution_defect,
    enumerate_nc,
    ginibre_product_spectra,
    leq,
    swap,
    wg,
)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


def test_criterion_01_chain_counts():
    start = time.monotonic()
    ok = all(count_poset_tuples(chain_poset(s), p) == fuss_catalan(s, p)
             for s in range(1, 5) for p in range(1, 8))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert _report(1, ok, f"chain counts == Fuss-Catalan formula, s<=4 p<=7 "
                          f"({elapsed:.2f}s)")


def test_criterion_02_max_flows():
    checks = [
        (marginal_max_flow(one_loop()), 1, "one-loop"),
        (marginal_max_flow(fc_template(2)), 3, "order-2 template"),
        (marginal_max_flow(cycle_graph("TSRR")), 4, "4-cycle TSRR"),
        (marginal_max_flow(star_graph(2, 1, 1)), 2, "star(1,1) m=2"),
    ]
    for s in range(1, 6):
        checks.append((marginal_max_flow(fc_template(s)), s + 1, f"template s={s}"))
    ok = all(got == want for got, want, _ in checks)
    assert _report(2, ok, "max flows on the worked examples: "
                   + ", ".join(f"{name}={got}" for got, _, name in checks))


def test_criterion_03_minimizer_counts():
    ok = all(len(minimizer_set(one_loop(), p)) == catalan(p) for p in range(1, 7))
    ok = ok and all(len(minimizer_set(fc_template(2), p)) == fuss_catalan(2, p)
                    for p in range(1, 6))
    # independent brute force over NC(p)^3 for the exotic coefficients
    for p, want in ((2, 5), (3, 38)):
        parts = enumerate_nc(p)
        brute = sum(1 for a, b, c in itertools.product(parts, repeat=3)
                    if leq(a, b) and leq(a, c))
        engine = len(minimizer_set(exotic_graph(), p))
        coeff = asymptotic_moment(exotic_graph(), p).coefficient
        ok = ok and brute == want == engine == coeff
    assert _report(3, ok, "minimizer counts: one-loop Catalan p<=6, template "
                          "FC2 p<=5, exotic (5, 38) == NC^3 brute force")


def test_criterion_04_normalization(corpus):
    assert len(corpus) >= 50
    reports = [asymptotic_moment(m, 1) for m in corpus]
    ok = all(r.exponent == 0 and r.coefficient == Fraction(1) for r in reports)
    assert _report(4, ok, f"p=1 moment is exactly (exponent 0, coefficient 1) "
                          f"on {len(corpus)} random marginals")


def test_criterion_05_exact_to_asymptotic():
    closed = all(exact_moment(one_loop(), 2, N) == Fraction(2 * N, N * N + 1)
                 for N in (2, 4, 8, 16))
    gaps = [abs(N * exact_moment(one_loop(), 2, N) - 2) for N in (2, 4, 8, 16)]
    halving = all(b <= a / 2 for a, b in zip(gaps, gaps[1:]))
    cyc = cycle_graph("TSRR")
    cycle_vals = [N ** 4 * exact_moment(cyc, 2, N) for N in (2, 3, 4)]
    cycle_gaps = [abs(v - 3) for v in cycle_vals]
    toward_three = all(b < a for a, b in zip(cycle_gaps, cycle_gaps[1:]))
    chain_vals = [N ** 3 * exact_moment(fc_template(2), 2, N) for N in (2, 3, 4)]
    chain_gaps = [abs(v - 3) for v in chain_vals]
    chain_trend = all(b < a for a, b in zip(chain_gaps, chain_gaps[1:]))
    ok = closed and halving and toward_three and chain_trend
    assert _report(5, ok, "one-loop exact == 2N/(N^2+1) with halving gaps; "
                          f"4-cycle N^4*exact -> 3 monotone ({[float(v) for v in cycle_vals]}); "
                          f"chain template N^3*exact -> 3 monotone")


def test_criterion_06_monte_carlo_one_loop():
    start = time.monotonic()
    rep = estimate(one_loop(), 64, 200, p_list=(1, 2), seed=42)
    elapsed = time.monotonic() - start
    exact = 2 * 64 / (64 ** 2 + 1)
    ok_m = abs(rep.moment_mean[2] - exact) <= 3 * rep.moment_stderr[2]
    target_h = math.log(64) - 0.5
    ok_h = abs(rep.entropy_mean - target_h) <= 3 * rep.entropy_stderr
    ok = ok_m and ok_h and elapsed < 60.0
    assert _report(6, ok, f"one-loop N=64 x200: tr rho^2 within 3 stderr of "
                          f"2N/(N^2+1), entropy within 3 stderr of ln 64 - 1/2 "
                          f"({elapsed:.1f}s)")


def test_criterion_07_ginibre_product_oracle():
    start = time.monotonic()
    means1, _ = ginibre_product_spectra(1, 256, 50, seed=3)
    means2, _ = ginibre_product_spectra(2, 256, 50, seed=4)
    elapsed = time.monotonic() - start
    ok = True
    for p, target in zip((1, 2, 3, 4), (1, 2, 5, 14)):
        ok = ok and abs(means1[p] - target) <= 0.05 * target
    for p, target in zip((1, 2, 3, 4), (1, 3, 12, 55)):
        ok = ok and abs(means2[p] - target) <= 0.05 * target
    ok = ok and elapsed < 120.0
    assert _report(7, ok, f"product-Wishart moments within 5% of (1,2,5,14) "
                          f"and (1,3,12,55) at N=256 ({elapsed:.1f}s)")


def test_criterion_08_star_table(star_estimate):
    marginal = star_graph(2, 1, 1)
    rep = star_estimate
    finite_ref = float(exact_moment(marginal, 2, 16))
    ok_exact = abs(rep.purity_mean - finite_ref) <= 3 * rep.purity_stderr
    asym = 2 / 16 ** 2
    ok_asym = abs(rep.purity_mean - asym) <= 0.10 * asym
    ok = ok_exact and ok_asym
    assert _report(8, ok, f"star(1,1) purity {rep.purity_mean:.3e} within 3 "
                          f"stderr of exact {finite_ref:.3e} and within 10% "
                          f"of 2/N^2")


def test_criterion_09_cycle_theorem():
    """TSRR cycle at N = 3, 4, 5: the Haar N^4 tr rho^2 moves toward 3,
    each sampling mode matches its own exact finite-N oracle, and the
    sampled Haar-minus-Ginibre gap matches the exact gap.

    The modes are different ensembles.  A Haar unitary on the fully traced
    or fully kept block drops out of the spectrum, but a Gaussian there
    adds a free-Poisson factor: N^4 tr rho^2 tends to 5 for Ginibre blocks
    against 3 for Haar, so their means are not expected to coincide.
    """
    marginal = cycle_graph("TSRR")
    haar = {}
    gin = {}
    for N in (3, 4, 5):
        haar[N] = estimate(marginal, N, 120, p_list=(1, 2), seed=20 + N, entropy=False)
        gin[N] = estimate(marginal, N, 120, p_list=(1, 2), seed=120 + N, mode="ginibre",
                          entropy=False)

    rescaled = {N: N ** 4 * haar[N].moment_mean[2] for N in haar}
    gaps = [abs(rescaled[N] - 3.0) for N in (3, 4, 5)]
    trend = all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(9, trend, f"TSRR N^4 tr rho^2 trend toward 3: "
                      f"{[round(rescaled[N], 4) for N in (3, 4, 5)]}")

    # soundness of each mode against its own exact finite-N oracle
    modes_ok = True
    for N in (3, 4, 5):
        h_ref = float(exact_moment(marginal, 2, N))
        g_ref = float(exact_moment_gaussian(marginal, 2, N))
        modes_ok = modes_ok and abs(haar[N].moment_mean[2] - h_ref) <= 3 * haar[N].moment_stderr[2]
        modes_ok = modes_ok and abs(gin[N].raw_moment_mean[2] - g_ref) <= 3 * gin[N].raw_moment_stderr[2]
    _report(9, modes_ok, "each sampling mode within 3 stderr of its own "
                         "exact finite-N value")

    # the two modes through their exact finite-N gap
    devs = []
    for N in (3, 4, 5):
        combined = math.hypot(haar[N].moment_stderr[2], gin[N].raw_moment_stderr[2])
        expected = float(exact_moment(marginal, 2, N) - exact_moment_gaussian(marginal, 2, N))
        observed = haar[N].moment_mean[2] - gin[N].raw_moment_mean[2]
        devs.append((observed - expected) / combined)
    agree = all(abs(d) <= 3.0 for d in devs)
    _report(9, agree, f"Haar minus Ginibre tr rho^2 within combined 3 stderr "
                      f"of the exact gap (deviations "
                      f"{[round(d, 2) for d in devs]} stderr)")
    assert trend and modes_ok and agree


def test_criterion_10_density_quadrature():
    ok = True
    for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
        density = mp_density(c)
        ok = ok and abs(density.total_mass() - 1.0) <= 1e-8
        for p in range(1, 5):
            ok = ok and abs(density.moment(p) - float(mp_moment(c, p))) <= 1e-6
    d2 = fc2_density()
    ok = ok and abs(d2.total_mass() - 1.0) <= 1e-8
    for p, target in zip(range(1, 5), (1, 3, 12, 55)):
        ok = ok and abs(d2.moment(p) - target) <= 1e-6
    ok = ok and fc_entropy(2) == Fraction(-5, 6)
    ok = ok and abs(d2.entropy() - float(fc_entropy(2))) <= 1e-5
    assert _report(10, ok, "MP(1/2, 1, 2) and order-2 densities: unit mass to "
                           "1e-8, four moments to 1e-6, entropy -5/6 to 1e-5")


def test_criterion_11_duality(corpus):
    ok = True
    for m in corpus:
        x = marginal_max_flow(m)
        ok = ok and x == marginal_max_flow(swap(m))
        a = [(r.exponent, r.coefficient) for r in moment_table(m, 3)]
        b = [(r.exponent, r.coefficient) for r in moment_table(swap(m), 3)]
        ok = ok and a == b
    assert _report(11, ok, f"kept/traced swap preserves X and the moment "
                           f"sequence (p<=3) on all {len(corpus)} corpus marginals")


def test_criterion_12_weingarten_self_test():
    ok = True
    for p in (1, 2, 3, 4):
        for n in (8, 16):
            table = wg_exact(p, n)
            ok = ok and all(convolution_defect(table, s) == 0 for s in all_perms(p))
    rng = np.random.default_rng(2)
    samples = np.array([abs(haar_isometry(rng, 8, 8)[0, 0]) ** 2 for _ in range(8000)])
    table = wg_exact(2, 8)
    target4 = float(2 * (wg(table, Perm.identity(2)) + wg(table, Perm((1, 0)))))
    m2, e2 = samples.mean(), samples.std(ddof=1) / math.sqrt(len(samples))
    fourth = samples ** 2
    m4, e4 = fourth.mean(), fourth.std(ddof=1) / math.sqrt(len(fourth))
    ok = ok and abs(m2 - 1 / 8) <= 3 * e2
    ok = ok and abs(m4 - target4) <= 3 * e4
    assert _report(12, ok, "Weingarten convolution identity exact (p<=4, "
                           "n in {8,16}); |U11|^2 and |U11|^4 sample means "
                           "within 3 stderr of table values")
