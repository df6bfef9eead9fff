"""The moment engines against brute-force sums over every labeling.

The engines contract the block graph one block at a time, and the Haar
engines pin fully traced blocks to the identity and fully kept blocks to
the long cycle.  The references here do neither: the asymptotic
coefficient is summed tuple by tuple over `minimizer_set`, and the
finite-N moments sum every block over all of S_p against its full
Weingarten (or Wick) factor.  The array contraction itself is checked
against the same elimination with one Python lookup per entry.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from graphstate import moments
from graphstate.catalog import bell_pair, cycle_graph, exotic_graph, random_marginal
from graphstate.combinatorics import Perm, all_perms, catalan, nc_to_geodesic
from graphstate.moments import (
    BudgetExceededError,
    asymptotic_moment,
    exact_moment,
    exact_moment_gaussian,
    minimizer_set,
)
from graphstate.weingarten import wg_exact
from oracles import lookup_contract


def minimizer_sum(marginal, p):
    """(exponent, coefficient, count) summed over the minimizing tuples."""
    mins = minimizer_set(marginal, p)
    parts = mins.partitions
    geodesics = [nc_to_geodesic(q) for q in parts]
    total = Fraction(0)
    for t in mins.tuples:
        term = Fraction(1)
        for i, view in enumerate(marginal.blocks):
            nb = parts[t[i]].num_blocks
            term *= Fraction(view.dim_kept) ** (p + 1 - nb)
            term *= Fraction(view.dim_traced) ** nb
            term /= Fraction(view.dim_block) ** p
        for i, j in marginal.cross_bonds:
            length = (geodesics[t[i]].inverse() * geodesics[t[j]]).length
            term *= Fraction(marginal.cross_dim(i, j)) ** (p - length)
        total += term
    prefactor = Fraction(1, marginal.dim_all_sqrt ** p)
    for view in marginal.blocks:
        prefactor *= Fraction(view.dim_loops) ** p
    return -mins.x * (p - 1), prefactor * total, len(mins)


def joint_sum(marginal, p, N, wick=False):
    """E tr(rho^p) at finite N as the sum over all tuples in S_p^k."""
    perms = all_perms(p)
    gamma = Perm.full_cycle(p)
    factors = []
    for view in marginal.blocks:
        dk = view.dim_kept * N ** len(view.kept)
        dt = view.dim_traced * N ** len(view.traced)
        dim = view.dim_block * N ** len(view.members)
        weight = [Fraction(dk ** (gamma * b.inverse()).num_cycles * dt ** b.num_cycles)
                  for b in perms]
        if wick:
            factors.append([w / dim ** p for w in weight])
        else:
            wg = wg_exact(p, dim)
            factors.append([sum(w * wg(a.inverse() * b) for w, a in zip(weight, perms))
                            for b in perms])
    cross = [(i, j, marginal.cross_dim(i, j) * N ** len(bonds))
             for (i, j), bonds in marginal.cross_bonds.items()]
    total = Fraction(0)
    for combo in itertools.product(range(len(perms)), repeat=marginal.k):
        term = Fraction(1)
        for i, label in enumerate(combo):
            term *= factors[i][label]
        for i, j, base in cross:
            term *= base ** (perms[combo[i]].inverse() * perms[combo[j]]).num_cycles
        total += term
    prefactor = Fraction(1, (marginal.dim_all_sqrt * N ** marginal.graph.m) ** p)
    for view in marginal.blocks:
        prefactor *= Fraction(view.dim_loops * N ** len(view.loop_bonds)) ** p
    return prefactor * total


def test_asymptotic_matches_minimizer_sum(corpus):
    for m in corpus:
        for p in (1, 2, 3, 4):
            r = asymptotic_moment(m, p)
            assert (r.exponent, r.coefficient, r.minimizer_count) == minimizer_sum(m, p)
            assert r.minimizer_count == len(minimizer_set(m, p))


def test_exact_matches_unpinned_weingarten_sum(small_corpus):
    for m in small_corpus:
        for p in (1, 2, 3):
            assert exact_moment(m, p, 3) == joint_sum(m, p, 3)


def test_wick_matches_joint_sum(small_corpus):
    for m in small_corpus:
        for p in (1, 2, 3):
            assert exact_moment_gaussian(m, p, 3) == joint_sum(m, p, 3, wick=True)


def test_exact_gate_counts_planned_entries():
    # TSRR pins T and S; the two R blocks need one Weingarten column per
    # label (2 * 24^2 entries) and one joint table (24^2 entries), on top
    # of the S_4 label table (24 entries)
    with pytest.raises(BudgetExceededError) as err:
        exact_moment(cycle_graph("TSRR"), 4, 4, budget=1000)
    assert err.value.estimated == 3 * 24 ** 2 + 24
    # within the default budget; the value the joint sum gives with its
    # gate lifted
    assert exact_moment(cycle_graph("TSRR"), 4, 5) == Fraction(
        13975385029, 80212078857421875)


def test_exotic_p7_within_default_budget():
    # the hub-and-leaves graph eliminates its two leaves: 2 * catalan(7)^2
    # entries, on top of the NC(7) label table
    with pytest.raises(BudgetExceededError) as err:
        asymptotic_moment(exotic_graph(), 7, budget=0)
    assert err.value.estimated == 2 * catalan(7) ** 2 + catalan(7)
    r = asymptotic_moment(exotic_graph(), 7)
    assert r.minimizer_count == r.coefficient == 502878


def test_gates_refuse_before_any_label_table(monkeypatch):
    # each plan is made from the table sizes alone, so S_12 and NC(12)
    # are never built, neither to be refused nor where every block is pinned
    def unbuilt(p, *args):
        raise AssertionError(f"built a label table at order {p}")
    monkeypatch.setattr(moments, "_label_table", unbuilt)
    with pytest.raises(BudgetExceededError) as err:
        exact_moment(cycle_graph("TSRR"), 12, 3)
    assert err.value.estimated > math.factorial(12) ** 2
    with pytest.raises(BudgetExceededError) as err:
        exact_moment_gaussian(bell_pair(), 12, 2)    # the Wick sum pins nothing
    assert err.value.estimated > math.factorial(12) ** 2
    with pytest.raises(BudgetExceededError) as err:
        asymptotic_moment(exotic_graph(), 12)
    assert err.value.estimated > catalan(12) ** 2
    # a graph of S and T blocks alone has no free block to label
    assert exact_moment(bell_pair(), 12, 2) == Fraction(1, 2 ** 11)
    r = asymptotic_moment(bell_pair(), 12)
    assert (r.exponent, r.coefficient, r.minimizer_count) == (-11, 1, 1)


@pytest.fixture
def contractions(monkeypatch):
    """Every (factors, order, size, result) that `moments._contract` is called with."""
    calls = []
    contract = moments._contract

    def recorded(factors, order, size):
        result = contract(factors, order, size)
        calls.append((factors, order, size, result))
        return result

    monkeypatch.setattr(moments, "_contract", recorded)
    return calls


@pytest.mark.parametrize("slice_entries", [moments._SLICE_ENTRIES, 16])
def test_array_contraction_matches_lookup_oracle(contractions, monkeypatch, slice_entries):
    # 16 entries cut the (min, +) messages into slices of a few labelings
    monkeypatch.setattr(moments, "_SLICE_ENTRIES", slice_entries)
    rng = np.random.default_rng(1414)
    for m in [random_marginal(rng, max_bonds=4, max_dim=3) for _ in range(200)]:
        asymptotic_moment(m, 3)
        for N in (1, 2, 3):
            exact_moment(m, 3, N)
            exact_moment_gaussian(m, 3, N)
    # one label; no free block; a T block bonded to an S block, a constant
    asymptotic_moment(exotic_graph(), 1)
    exact_moment(exotic_graph(), 1, 2)
    exact_moment(bell_pair(), 3, 2)
    asymptotic_moment(cycle_graph("TSRR"), 3)
    exact_moment(cycle_graph("TSRR"), 3, 2)
    sizes = {size for _, _, size, _ in contractions}
    assert {0, 1} <= sizes
    assert any(scope == () for factors, *_ in contractions for scope, *_ in factors)
    for factors, order, size, result in contractions:
        lookups = [(scope, lambda key, c=c, w=w, n=n: (int(c[key]), w[key], n[key]))
                   for scope, c, w, n in factors]
        assert result == lookup_contract(lookups, order, range(size))


def test_labeling_sum_weights_and_counts_are_python_ints(contractions):
    # numerators beyond 2^63: an int64 weight would overflow silently
    value = exact_moment(cycle_graph("TSRR"), 6, 6)
    assert value == Fraction(8857879777037729738561531,
                             31847968755226011847081625050473824256)
    assert value.numerator > 2 ** 63
    assert exact_moment(exotic_graph(), 6, 2) == Fraction(18322570156577, 97356128096747520)
    asymptotic_moment(exotic_graph(), 5)
    exact_moment_gaussian(cycle_graph("TSRR"), 3, 4)
    assert len(contractions) == 4
    for factors, *_ in contractions:
        for _, cost, weight, count in factors:
            assert (cost.dtype, weight.dtype, count.dtype) == (np.int64, object, object)
