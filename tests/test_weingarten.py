"""Exact Weingarten tables and their first-order asymptotics."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from graphstate.weingarten import wg_exact
from oracles import Perm, all_perms, convolution_defect, fraction_wg_values, wg, wg_asym


def gram_solver_table(p, n):
    """Wg(n, .) by cycle type, from the class Gram matrix of n^(#sigma).

    Solves sum_tau Wg(sigma tau^-1) n^(#tau) = delta(sigma, id) on one
    representative per class by Fraction Gaussian elimination; the system
    is invertible only for n >= p.
    """
    groups = {}
    for sigma in all_perms(p):
        groups.setdefault(sigma.cycle_type(), []).append(sigma)
    types = sorted(groups)
    rows = [[Fraction(sum(n ** (rho.inverse() * groups[ct][0]).num_cycles for rho in groups[dt]))
             for dt in types] + [Fraction(ct == (1,) * p)] for ct in types]
    for col in range(len(types)):
        pivot = next(r for r in range(col, len(types)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(len(types)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return {t: row[-1] for t, row in zip(types, rows)}


def class_size(cycle_type):
    """Number of permutations with this cycle type: p! / z_lambda."""
    z = math.prod(k ** m * math.factorial(m) for k, m in Counter(cycle_type).items())
    return math.factorial(sum(cycle_type)) // z


def u11_moment(table):
    """p! sum_sigma Wg(n, sigma), which is E|U_11|^(2p) for U Haar on U(n)."""
    return math.factorial(table.p) * sum(class_size(t) * v for t, v in table.values.items())


class TestExact:
    def test_p1(self):
        table = wg_exact(1, 5)
        assert wg(table, Perm.identity(1)) == Fraction(1, 5)

    def test_p2_closed_forms(self):
        n = 7
        table = wg_exact(2, n)
        assert wg(table, Perm.identity(2)) == Fraction(1, n * n - 1)
        assert wg(table, Perm((1, 0))) == Fraction(-1, n * (n * n - 1))

    def test_p2_n2(self):
        table = wg_exact(2, 2)
        assert wg(table, Perm.identity(2)) == Fraction(1, 3)
        assert wg(table, Perm((1, 0))) == Fraction(-1, 6)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [8, 16])
    def test_convolution_identity(self, p, n):
        table = wg_exact(p, n)
        for sigma in all_perms(p):
            assert convolution_defect(table, sigma) == 0

    def test_class_function(self):
        table = wg_exact(4, 9)
        for sigma in all_perms(4):
            for tau in all_perms(4):
                conj = tau * sigma * tau.inverse()
                assert wg(table, conj) == wg(table, sigma)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_equals_gram_solver(self, p):
        for n in range(p, 13):
            assert wg_exact(p, n).values == gram_solver_table(p, n)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7])
    def test_equals_term_by_term_fractions(self, p):
        # below n = p, where the table is a pseudo-inverse, and above it; the
        # Gram solver agrees where it applies (at p = 7 on n = 7 alone, as it
        # takes about a second a dimension there)
        for n in [*range(1, p + 2), 100]:
            values = wg_exact(p, n).values
            assert list(values.items()) == list(fraction_wg_values(p, n).items())
            if n >= p and (p < 7 or n == p):
                assert values == gram_solver_table(p, n)

    def test_below_order_is_u2_moment(self):
        # S_3 at n = 2 keeps the shapes (3) and (2, 1); E|U_11|^6 on U(2) is 1/4
        assert u11_moment(wg_exact(3, 2)) == Fraction(1, 4)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7])
    def test_u11_moment_at_every_dimension(self, p):
        for n in range(1, 10):
            want = Fraction(math.factorial(p) * math.factorial(n - 1), math.factorial(n + p - 1))
            assert u11_moment(wg_exact(p, n)) == want

    def test_order_seven_without_enumeration(self, monkeypatch):
        # S_p is enumerated by itertools.permutations, as `_label_table` does
        def unbuilt(*args):
            raise AssertionError("enumerated S_p")
        monkeypatch.setattr(itertools, "permutations", unbuilt)
        table = wg_exact(7, 100)
        assert u11_moment(table) == Fraction(math.factorial(7) * math.factorial(99),
                                             math.factorial(106))

    @pytest.mark.parametrize("p,n", [(0, 3), (2, 0)])
    def test_rejects_empty_order_or_dimension(self, p, n):
        with pytest.raises(ValueError):
            wg_exact(p, n)


class TestAsymptotic:
    def test_identity_leading_term(self):
        assert wg_asym(3, 10.0, Perm.identity(3)) == pytest.approx(10.0 ** -3)

    def test_long_cycle_leading_term(self):
        # a full p-cycle carries (-1)^(p-1) c_(p-1) n^-(2p-1)
        p, n = 4, 9.0
        assert wg_asym(p, n, Perm.full_cycle(p)) == pytest.approx(-5 * n ** -7)

    def test_p2_swap_gap(self):
        n = 8
        exact = float(wg(wg_exact(2, n), Perm((1, 0))))
        asym = wg_asym(2, n, Perm((1, 0)))
        assert asym == pytest.approx(-(1 / n) ** 3)
        assert abs(exact - asym) / abs(exact) < 2.0 / n ** 2

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_relative_gap_shrinks_like_n_minus_2(self, p):
        sigmas = all_perms(p)
        gaps = {}
        for n in (8, 16, 32):
            table = wg_exact(p, n)
            worst = 0.0
            for sigma in sigmas:
                exact = float(wg(table, sigma))
                approx = wg_asym(p, n, sigma)
                worst = max(worst, abs(exact - approx) / abs(exact))
            gaps[n] = worst
        assert gaps[16] <= gaps[8]
        assert gaps[32] <= gaps[16]
        # bounded by C / n^2 with one constant across the n ladder
        # (the long-cycle term alone carries ~ p(p+1)(2p+1)/6 / n^2)
        assert all(gaps[n] * n * n < 30.0 for n in gaps)
