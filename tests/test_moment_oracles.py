"""The moment engines against brute-force sums over every labeling.

The asymptotic engine counts the maps of the residual poset's classes
into NC(p), with one weight per class; the finite-N engines contract the
block graph one block at a time, and the Haar engines pin fully traced
blocks to the identity and fully kept blocks to the long cycle.  The
references here do neither: the asymptotic coefficient is summed over
the NC(p) labelings of the blocks with N formal (`nc_labeling_sum`) and
tuple by tuple over `minimizer_set`, and the finite-N moments sum every
block over all of S_p against its full Weingarten (or Wick) factor.  The
array contraction itself is checked against the same elimination with
one Python lookup per entry.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from graphstate import combinatorics, moments
from graphstate.catalog import bell_pair, cycle_graph, exotic_graph, one_loop, random_marginal
from graphstate.cli import graph_to_dict, marginal_from_dict
from graphstate.combinatorics import ConstraintPoset, catalan
from graphstate.flow import SINK, SOURCE, MaxFlowResult, MinimizerConsistencyError
from graphstate.moments import (
    BudgetExceededError,
    asymptotic_moment,
    exact_moment,
    exact_moment_gaussian,
    minimizer_set,
    moment_table,
)
from graphstate.weingarten import wg_exact
from oracles import (
    Perm,
    all_perms,
    enumerate_nc,
    frontier_count,
    lookup_contract,
    n_shaped_marginal,
    nc_labeling_sum,
    nc_to_geodesic,
    poset_marginal,
    swap,
    wg,
    with_dims,
)

# the N, the bowtie {0, 1 <= 2, 3} and the 6-crown: posets that are not rooted
UNROOTED = {
    "N": (4, [(0, 2), (1, 2), (1, 3)]),
    "bowtie": (4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    "crown": (6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)]),
}


def minimizer_sum(marginal, p):
    """(exponent, coefficient, count) summed over the minimizing tuples."""
    mins = minimizer_set(marginal, p)
    parts = enumerate_nc(p)
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
            table = wg_exact(p, dim)
            factors.append([sum(w * wg(table, a.inverse() * b) for w, a in zip(weight, perms))
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


def test_residual_poset_count_equals_labeling_sum(corpus, small_corpus, monkeypatch):
    # the corpora of this file at unit dimensions, then 1,000 graphs drawn
    # at unit dimensions; the block labeling sum runs only as the reference
    rng = np.random.default_rng(1414)
    graphs = [with_dims(m, 1) for m in corpus + small_corpus]
    graphs += [with_dims(random_marginal(rng, max_bonds=4, max_dim=3), 1) for _ in range(200)]
    rng = np.random.default_rng(1818)
    graphs += [random_marginal(rng, max_dim=1) for _ in range(1000)]

    def unsummed(*args):
        raise AssertionError("the finite-N labeling sum ran for an asymptotic moment")
    monkeypatch.setattr(moments, "_labeling_sum", unsummed)
    for m in graphs:
        for p in range(1, 6):
            cost, coefficient, count = nc_labeling_sum(m, p)
            r = asymptotic_moment(m, p)
            assert (r.exponent, r.coefficient, r.minimizer_count) == (-cost, coefficient, count)


def test_weighted_poset_count_equals_labeling_sum(monkeypatch):
    # 1,000 graphs with dimension factors up to 3, most of them not 1: the
    # class weights x_c and the constant C(p) against the block labeling sum
    rng = np.random.default_rng(2121)
    graphs = [random_marginal(rng, max_bonds=6, max_dim=3) for _ in range(1000)]
    assert sum(any(d != 1 for _, d in m.graph.dims) for m in graphs) > 900
    monkeypatch.setattr(moments, "_labeling_sum", None)
    for m in graphs:
        for p in range(1, 6):
            cost, coefficient, count = nc_labeling_sum(m, p)
            r = asymptotic_moment(m, p)
            assert (r.exponent, r.coefficient, r.minimizer_count) == (-cost, coefficient, count)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(UNROOTED))
def test_unrooted_posets_weighted_by_class(contractions, name, d):
    # one contraction over the classes per order, equal to the block sum
    k, relations = UNROOTED[name]
    m = poset_marginal(k, relations, d)
    orders = range(1, 5 if k > 4 else 6)
    for p in orders:
        r = asymptotic_moment(m, p)
        assert (-r.exponent, r.coefficient, r.minimizer_count) == nc_labeling_sum(m, p)
        if p <= 4:
            assert r.minimizer_count == frontier_count(ConstraintPoset(k, relations), p)
    assert len(contractions) == len(orders)


def test_unrooted_residual_poset_takes_the_labeling_sum(contractions):
    # the N-shaped poset has no recursion; the class contraction counts its
    # order-preserving maps, as the frontier count and the minimizers do
    m = n_shaped_marginal()
    poset = ConstraintPoset(k=4, relations=[(0, 2), (1, 2), (1, 3)])
    for p in range(2, 6):
        r = asymptotic_moment(m, p)
        assert r.minimizer_count == r.coefficient == frontier_count(poset, p)
        if p <= 3:
            assert (r.exponent, r.coefficient, r.minimizer_count) == minimizer_sum(m, p)
    assert len(contractions) == 4


def test_one_marginals_flow_never_serves_another(corpus, small_corpus, cold_flows):
    # each marginal, its dual and the same graph re-parsed with its own and
    # with another trace set, one after the other, so that a flow kept for
    # one and read for the next would show; the labeling sum solves no flow
    rng = np.random.default_rng(2626)
    graphs = corpus + small_corpus + [random_marginal(rng, max_dim=1) for _ in range(100)]
    for m in graphs:
        doc = json.loads(json.dumps(graph_to_dict(m)))   # as a graph file
        other = sorted(m.traced ^ {1})
        for marginal in (m, swap(m), marginal_from_dict(doc),
                         marginal_from_dict(doc, trace_override=other)):
            reports = moment_table(marginal, 5)
            for p, r in enumerate(reports, start=1):
                cost, coefficient, count = nc_labeling_sum(marginal, p)
                assert (r.exponent, r.coefficient, r.minimizer_count) == (-cost, coefficient, count)


def test_consistency_errors_are_raised_on_every_call(monkeypatch, cold_flows):
    # n_shaped's poset is not rooted: its class contraction runs on every
    # call, and a least cost off 0 is refused every time, warm flow or not
    m = n_shaped_marginal()
    expected = moment_table(m, 3)
    poset_sum = moments._poset_sum
    monkeypatch.setattr(moments, "_poset_sum",
                        lambda *args: (lambda c, w, n: (c + 1, w, n))(*poset_sum(*args)))
    for _ in range(2):
        with pytest.raises(MinimizerConsistencyError):
            moment_table(m, 3)
    monkeypatch.setattr(moments, "_poset_sum", poset_sum)
    assert moment_table(m, 3) == expected
    # a flow whose residual map joins the id pins to the gamma pins: its
    # poset is refused on every order and every call, and so is a minimum
    # off its value
    bad = MaxFlowResult(value=2, flow={}, residual={(SOURCE, 0): 1, (0, SINK): 1})
    monkeypatch.setattr(moments, "max_flow", lambda net: bad)
    for _ in range(2):
        for p in (1, 2, 3):
            with pytest.raises(MinimizerConsistencyError):
                asymptotic_moment(one_loop(), p)
        with pytest.raises(MinimizerConsistencyError):
            minimizer_set(one_loop(), 2)


def test_exact_matches_unpinned_weingarten_sum(small_corpus):
    for m in small_corpus:
        for p in (1, 2, 3):
            assert exact_moment(m, p, 3) == joint_sum(m, p, 3)


def test_wick_matches_joint_sum(small_corpus):
    for m in small_corpus:
        for p in (1, 2, 3):
            assert exact_moment_gaussian(m, p, 3) == joint_sum(m, p, 3, wick=True)


def test_exact_gate_counts_planned_entries():
    # TSRR pins T and S; its two R blocks read the S_4 label table (24
    # entries) and the class table (24^2), each weighs a Weingarten column
    # of 24 entries per label group (6 at p = 4), and eliminating the
    # first fills one joint table (24^2)
    with pytest.raises(BudgetExceededError) as err:
        exact_moment(cycle_graph("TSRR"), 4, 4, budget=1000)
    assert err.value.estimated == 24 + 24 ** 2 + 24 ** 2 + 2 * 6 * 24 == 1464
    # within the default budget; the value the joint sum gives with its
    # gate lifted
    assert exact_moment(cycle_graph("TSRR"), 4, 5) == Fraction(
        13975385029, 80212078857421875)


def test_free_block_chain_within_default_budget():
    # twelve free Haar blocks in a chain at p = 6: the S_6 label and class
    # tables (720 + 720^2), a column of 12 label groups * 720 per block and
    # eleven joint tables of 720^2, within the default 1e7; plan only
    with pytest.raises(BudgetExceededError) as err:
        exact_moment(poset_marginal(12, [(i, i + 1) for i in range(11)]), 6, 2, budget=0)
    assert err.value.estimated == 720 + 12 * 720 ** 2 + 12 * 12 * 720 == 6_325_200
    assert err.value.estimated <= combinatorics.BUDGET_DEFAULT


def test_exotic_p7_within_default_budget():
    # the N-shaped classes eliminate one cover relation at a time: 3 *
    # catalan(7)^2 entries, on top of the NC(7) label table; the plan
    # depends on the structure alone, so the d = 2 copy has the same one
    n_shaped2 = with_dims(n_shaped_marginal(), 2)
    with pytest.raises(BudgetExceededError) as err:
        asymptotic_moment(n_shaped2, 7, budget=0)
    assert err.value.estimated == 3 * catalan(7) ** 2 + catalan(7)
    r = asymptotic_moment(n_shaped2, 7)
    assert (-r.exponent, r.coefficient, r.minimizer_count) == nc_labeling_sum(n_shaped2, 7)
    # exotic's residual poset is rooted: it is counted, and no budget is
    # needed, at every dimension
    r = asymptotic_moment(exotic_graph(), 7, budget=0)
    assert r.minimizer_count == r.coefficient == 502878
    exotic2 = with_dims(exotic_graph(), 2)
    r = asymptotic_moment(exotic2, 7, budget=0)
    assert (-r.exponent, r.coefficient, r.minimizer_count) == nc_labeling_sum(exotic2, 7)
    assert r.coefficient == Fraction(502878, 2 ** 30)


def test_gates_refuse_before_any_label_table(monkeypatch):
    # each plan is made from the table sizes alone, so S_12 and NC(12)
    # are never built, neither to be refused nor where every block is pinned
    def unbuilt(p, *args):
        raise AssertionError(f"built a label table at order {p}")
    monkeypatch.setattr(moments, "_label_table", unbuilt)
    monkeypatch.setattr(combinatorics, "_label_table", unbuilt)
    with pytest.raises(BudgetExceededError) as err:
        exact_moment(cycle_graph("TSRR"), 12, 3)
    assert err.value.estimated > math.factorial(12) ** 2
    with pytest.raises(BudgetExceededError) as err:
        exact_moment_gaussian(bell_pair(), 12, 2)    # the Wick sum pins nothing
    assert err.value.estimated > math.factorial(12) ** 2
    with pytest.raises(BudgetExceededError) as err:
        asymptotic_moment(with_dims(n_shaped_marginal(), 2), 12)
    assert err.value.estimated > catalan(12) ** 2
    # the residual poset of exotic is rooted, and is counted instead
    r = asymptotic_moment(exotic_graph(), 12)
    assert r.minimizer_count == r.coefficient == 206701768044
    r = asymptotic_moment(with_dims(exotic_graph(), 2), 12)
    assert (r.coefficient, r.minimizer_count) == (Fraction(206701768044, 2 ** 55), 206701768044)
    # a graph of S and T blocks alone has no free block to label
    assert exact_moment(bell_pair(), 12, 2) == Fraction(1, 2 ** 11)
    r = asymptotic_moment(bell_pair(), 12)
    assert (r.exponent, r.coefficient, r.minimizer_count) == (-11, 1, 1)
    r = asymptotic_moment(bell_pair(2), 12)
    assert (r.exponent, r.coefficient, r.minimizer_count) == (-11, Fraction(1, 2 ** 11), 1)


@pytest.fixture
def contractions(monkeypatch):
    """Every (factors, order, size, result) that `_contract` is called with,
    from the finite-N sums of `moments` and the class contraction of
    `combinatorics`."""
    calls = []
    contract = combinatorics._contract

    def recorded(factors, order, size):
        result = contract(factors, order, size)
        calls.append((factors, order, size, result))
        return result

    monkeypatch.setattr(moments, "_contract", recorded)
    monkeypatch.setattr(combinatorics, "_contract", recorded)
    return calls


@pytest.mark.parametrize("slice_entries", [combinatorics._SLICE_ENTRIES, 16])
def test_array_contraction_matches_lookup_oracle(contractions, monkeypatch, slice_entries):
    # 16 entries cut the (min, +) messages of the class contractions into
    # slices of a few labelings
    monkeypatch.setattr(combinatorics, "_SLICE_ENTRIES", slice_entries)
    rng = np.random.default_rng(1414)
    for m in [random_marginal(rng, max_bonds=4, max_dim=3) for _ in range(200)]:
        asymptotic_moment(m, 3)
        for N in (1, 2, 3):
            exact_moment(m, 3, N)
            exact_moment_gaussian(m, 3, N)
    # the unrooted posets at d = 2, weighted by class: (min, +) buckets
    for k, relations in UNROOTED.values():
        for p in (1, 3):
            asymptotic_moment(poset_marginal(k, relations, 2), p)
    # one label; no free block; a T block bonded to an S block, a constant
    asymptotic_moment(exotic_graph(), 1)
    exact_moment(exotic_graph(), 1, 2)
    exact_moment(bell_pair(), 3, 2)
    asymptotic_moment(cycle_graph("TSRR"), 3)
    exact_moment(cycle_graph("TSRR"), 3, 2)
    sizes = {size for _, _, size, _ in contractions}
    assert {0, 1} <= sizes
    assert any(c.any() for factors, *_ in contractions for _, c, _, _ in factors)
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
    # the class contraction scales each weight x_c = n/d to n^# d^(p - #)
    n_shaped2 = with_dims(n_shaped_marginal(), 2)
    assert asymptotic_moment(n_shaped2, 5).coefficient == nc_labeling_sum(n_shaped2, 5)[1]
    exact_moment_gaussian(cycle_graph("TSRR"), 3, 4)
    assert len(contractions) == 4
    # counted on their rooted residual posets
    assert asymptotic_moment(exotic_graph(), 5).coefficient == 3695
    assert asymptotic_moment(with_dims(exotic_graph(), 2), 5).coefficient == Fraction(3695, 2 ** 20)
    assert len(contractions) == 4
    for factors, *_ in contractions:
        for _, cost, weight, count in factors:
            assert (cost.dtype, weight.dtype, count.dtype) == (np.int64, object, object)
