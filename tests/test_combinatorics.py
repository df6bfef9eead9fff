"""Lattice, permutation, and counting primitives against brute-force oracles."""

import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

import graphstate
from graphstate import combinatorics
from graphstate.combinatorics import (
    ConstraintPoset,
    EnumerationCapError,
    _label_table,
    _pair_arrays,
    catalan,
    count_poset_tuples,
    fuss_catalan,
)
from oracles import (
    NCPartition,
    Perm,
    all_perms,
    chain_poset,
    cycle_partition,
    enumerate_all_partitions,
    enumerate_nc,
    frontier_count,
    is_geodesic,
    is_noncrossing,
    join,
    kreweras,
    leq,
    meet,
    mobius,
    mobius_inversion_defect,
    nc_join,
    nc_order,
    nc_to_geodesic,
    perm_labels,
    perm_pair_table,
)


class TestPerm:
    def test_cycle_length_identity(self):
        # |sigma| + #sigma = p for every permutation
        for p in range(1, 6):
            for sigma in all_perms(p):
                assert sigma.length + sigma.num_cycles == p

    def test_composition_and_inverse(self):
        a = Perm((1, 2, 0, 3))
        b = Perm((0, 3, 2, 1))
        ab = a * b
        assert ab.image == tuple(a(b(i)) for i in range(4))
        assert (a * a.inverse()).length == 0

    def test_full_cycle(self):
        g = Perm.full_cycle(4)
        assert g.num_cycles == 1
        assert g.cycle_type() == (4,)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))


class TestEnumerateNC:
    def test_p1(self):
        assert [q.blocks for q in enumerate_nc(1)] == [((0,),)]

    @pytest.mark.parametrize("p", range(1, 9))
    def test_counts_are_catalan(self, p):
        assert len(enumerate_nc(p)) == catalan(p)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_agrees_with_crossing_filter(self, p):
        # independent oracle: all Bell(p) partitions, filtered.  enumerate_nc
        # reads the label table, so the table's rows are checked here too
        brute = {q for q in enumerate_all_partitions(p) if is_noncrossing(q)}
        assert brute == set(enumerate_nc(p))
        images, ncyc, ncyc_gamma, ident, gamma = _label_table(p, True)
        perms = [Perm(row) for row in images.tolist()]
        assert len(set(perms)) == len(perms)
        assert {cycle_partition(sigma) for sigma in perms} == brute
        g = Perm.full_cycle(p)
        assert (ident, perms[0], perms[gamma]) == (0, Perm.identity(p), g)
        # the table takes #(gamma sigma^-1) as p + 1 - #sigma, which holds
        # only if every row is a geodesic
        assert ncyc == [sigma.num_cycles for sigma in perms]
        assert ncyc_gamma == [(g * sigma.inverse()).num_cycles for sigma in perms]

    @pytest.mark.parametrize("p", range(1, 11))
    def test_follows_label_table_rows(self, p):
        rows = _label_table(p, True)[0].tolist()
        assert list(enumerate_nc(p)) == [cycle_partition(Perm(row)) for row in rows]

    def test_p4_excludes_exactly_the_crossing_pair(self):
        allp = set(enumerate_all_partitions(4))
        ncp = set(enumerate_nc(4))
        (crossing,) = allp - ncp
        assert crossing == NCPartition([(0, 2), (1, 3)])

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_nc(11)
        with pytest.raises(EnumerationCapError):
            _label_table(11, True)


class TestLeq:
    def test_zero_below_everything(self):
        for q in enumerate_nc(4):
            assert leq(NCPartition.zero(4), q)
            assert leq(q, NCPartition.one(4))

    def test_incomparable_pair(self):
        a = NCPartition([(0,), (2,), (1, 3)])
        b = NCPartition([(0, 2), (1,), (3,)])
        assert not leq(a, b) and not leq(b, a)

    def test_block_containment(self):
        assert leq(NCPartition([(0, 1), (2,)]), NCPartition([(0, 1, 2)]))

    def test_partial_order_axioms(self):
        parts = enumerate_nc(4)
        for a in parts:
            assert leq(a, a)
        for a, b in itertools.combinations(parts, 2):
            if leq(a, b) and leq(b, a):
                assert a == b
        for a, b, c in itertools.product(parts[:7], repeat=3):
            if leq(a, b) and leq(b, c):
                assert leq(a, c)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            leq(NCPartition.zero(3), NCPartition.zero(4))


class TestMeetJoin:
    def test_meet_is_glb(self):
        parts = enumerate_nc(4)
        for a, b in itertools.combinations(parts, 2):
            m = meet(a, b)
            assert leq(m, a) and leq(m, b)
            for q in parts:
                if leq(q, a) and leq(q, b):
                    assert leq(q, m)

    def test_meet_of_noncrossing_is_noncrossing(self):
        # the meet agrees between NC(p) and the full partition lattice
        parts = enumerate_nc(5)
        for a, b in itertools.combinations(parts[:25], 2):
            assert is_noncrossing(meet(a, b))

    def test_join_can_leave_the_noncrossing_lattice(self):
        # the standard incomparable pair: the lattice join crosses, so
        # the join within NC(p) is strictly coarser
        a = NCPartition([(0,), (2,), (1, 3)])
        b = NCPartition([(0, 2), (1,), (3,)])
        lattice = join(a, b)
        assert lattice == NCPartition([(0, 2), (1, 3)])
        assert not is_noncrossing(lattice)
        inside = nc_join(a, b)
        assert inside == NCPartition.one(4)
        assert leq(lattice, inside) and lattice != inside

    def test_joins_agree_when_lattice_join_is_noncrossing(self):
        parts = enumerate_nc(4)
        for a, b in itertools.combinations(parts, 2):
            lattice = join(a, b)
            if is_noncrossing(lattice):
                assert nc_join(a, b) == lattice


class TestGeodesics:
    def test_extremes(self):
        for p in range(1, 7):
            assert nc_to_geodesic(NCPartition.zero(p)) == Perm.identity(p)
            assert nc_to_geodesic(NCPartition.one(p)) == Perm.full_cycle(p)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_geodesic_identity_and_roundtrip(self, p):
        for q in enumerate_nc(p):
            sigma = nc_to_geodesic(q)
            assert is_geodesic(sigma)
            assert cycle_partition(sigma) == q

    def test_single_pair_block(self):
        sigma = nc_to_geodesic(NCPartition([(0, 2), (1,), (3,)]))
        gamma = Perm.full_cycle(4)
        assert (gamma * sigma.inverse()).length + sigma.length == 3

    def test_geodesics_exhaust_nc(self):
        # exactly the geodesic permutations correspond to NC partitions
        for p in (3, 4):
            geo = {s for s in all_perms(p) if is_geodesic(s)}
            assert {cycle_partition(s) for s in geo} == set(enumerate_nc(p))
            assert len(geo) == catalan(p)


class TestMobius:
    def test_small_values(self):
        assert mobius(Perm.identity(3)) == 1
        assert mobius(Perm((1, 0))) == -1
        assert mobius(Perm.full_cycle(3)) == 2
        assert mobius(Perm.full_cycle(4)) == -5

    def test_multiplicative_over_cycles(self):
        sigma = Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
        assert mobius(sigma) == 2 * -1

    @pytest.mark.parametrize("p", range(1, 7))
    def test_inversion(self, p):
        # zeta * mobius = delta along the geodesic set
        for q in enumerate_nc(p):
            beta = nc_to_geodesic(q)
            expected = 1 if beta.length == 0 else 0
            assert mobius_inversion_defect(beta) == expected


class TestCounts:
    def test_catalan_values(self):
        assert [catalan(i) for i in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_fuss_catalan_reduces_to_catalan(self):
        for p in range(1, 9):
            assert fuss_catalan(1, p) == catalan(p)

    def test_fuss_catalan_values(self):
        assert fuss_catalan(2, 2) == 3
        assert fuss_catalan(2, 3) == 12
        assert fuss_catalan(2, 4) == 55
        assert all(fuss_catalan(s, 1) == 1 for s in range(0, 7))
        assert fuss_catalan(0, 5) == 1

    def test_fuss_catalan_is_big_int_exact(self):
        value = fuss_catalan(4, 25)
        assert isinstance(value, int) and value > 2 ** 63
        assert (4 * 25 + 1) * value == binom_exact(125, 25)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", range(1, 8))
    def test_chains_match_formula(self, s, p):
        assert count_poset_tuples(chain_poset(s), p) == fuss_catalan(s, p)

    def test_chain_examples(self):
        assert count_poset_tuples(chain_poset(2), 2) == 3
        assert count_poset_tuples(chain_poset(1), 3) == 5
        assert count_poset_tuples(chain_poset(3), 1) == 1

    def test_chain_cap(self):
        # a chain is rooted, so the recursion counts it past the cap; the
        # class contraction of the N-shaped poset, which is not rooted, keeps it
        with pytest.raises(EnumerationCapError):
            count_poset_tuples(N_SHAPED, 11)
        assert count_poset_tuples(chain_poset(2), 11) == fuss_catalan(2, 11)


def binom_exact(n, k):
    from math import comb
    return comb(n, k)


def brute_force_count(poset, p):
    """Labelings of the poset, one product loop over NC(p) per free node."""
    pinned = {"zero": NCPartition.zero(p), "one": NCPartition.one(p)}
    choices = [(pinned[poset.pins[v]],) if v in poset.pins else enumerate_nc(p)
               for v in range(poset.k)]
    return sum(1 for labels in itertools.product(*choices)
               if all(leq(labels[a], labels[b]) for a, b in poset.relations))


# two least and two greatest nodes: with the 2 + 2 bipartite order, one of
# the two smallest posets that are not rooted
N_SHAPED = ConstraintPoset(k=4, relations=[(0, 2), (1, 2), (1, 3)])


def small_posets(n):
    """(k, transitive closure) of every poset on nodes 0..k-1, 1 <= k <= n."""
    for k in range(1, n + 1):
        pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        seen = set()
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            closure = {pair for pair, on in zip(pairs, chosen) if on}
            while True:
                longer = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
                if not longer:
                    break
                closure |= longer
            if all(a != b for a, b in closure) and frozenset(closure) not in seen:
                seen.add(frozenset(closure))
                yield k, frozenset(closure)


class TestNCOrder:
    @pytest.mark.parametrize("p", range(1, 8))
    def test_cycle_count_order_is_refinement(self, p):
        leq_index, zero, one = nc_order(p)
        parts = [cycle_partition(Perm(row)) for row in _label_table(p, True)[0].tolist()]
        assert parts == list(enumerate_nc(p))
        assert (parts[zero], parts[one]) == (NCPartition.zero(p), NCPartition.one(p))
        for (i, a), (j, b) in itertools.product(enumerate(parts), repeat=2):
            assert leq_index(i, j) == leq(a, b)


TABLE_ORDERS = [(p, True) for p in range(1, 8)] + [(p, False) for p in range(1, 7)]


def _all_ints(rows):
    return all(type(x) is int for row in rows for x in row)


class TestTables:
    @pytest.mark.parametrize("p,nc", TABLE_ORDERS, ids=lambda v: str(v))
    def test_label_table_equals_perms(self, p, nc):
        images, ncyc, ncyc_gamma, ident, gamma = _label_table(p, nc)
        perms = perm_labels(p, nc)
        assert [Perm(row) for row in images.tolist()] == list(perms)
        assert ncyc == [sigma.num_cycles for sigma in perms]
        g = Perm.full_cycle(p)
        assert ncyc_gamma == [(g * sigma.inverse()).num_cycles for sigma in perms]
        assert (perms[ident], perms[gamma]) == (Perm.identity(p), g)
        assert _all_ints([ncyc, ncyc_gamma, [ident, gamma]])

    @pytest.mark.parametrize("p,nc", TABLE_ORDERS, ids=lambda v: str(v))
    def test_pair_table_equals_perm_products(self, p, nc):
        counts, classes, types = _pair_arrays(p, nc)
        classes = None if classes is None else classes.tolist()
        assert (counts.tolist(), classes, types) == perm_pair_table(p, nc)
        assert counts.dtype == np.int8 and not counts.flags.writeable

    @pytest.mark.parametrize("p,nc", [(5, True), (4, False)], ids=lambda v: str(v))
    def test_pair_table_in_row_slices(self, p, nc, monkeypatch):
        # a row of products longer than a batch is composed in slices of labels b
        monkeypatch.setattr(combinatorics, "_BATCH_POINTS", 4 * p)
        counts, classes, types = _pair_arrays.__wrapped__(p, nc)
        classes = None if classes is None else classes.tolist()
        assert (counts.tolist(), classes, types) == perm_pair_table(p, nc)

    def test_tables_multiply_no_perms(self):
        # the int8 tables are the package's one representation of labels:
        # no module has permutation or partition objects to build them from
        objects = {"Perm", "NCPartition", "all_perms", "enumerate_nc", "mobius"}
        for path in Path(graphstate.__file__).parent.glob("*.py"):
            module = importlib.import_module(f"graphstate.{path.stem}")
            assert not objects & set(vars(module)), path.name

class TestConstraintPoset:
    def test_exotic_counts(self):
        poset = ConstraintPoset(k=3, relations=[(0, 1), (0, 2)])
        assert count_poset_tuples(poset, 2) == 5
        assert count_poset_tuples(poset, 3) == 38

    def test_exotic_brute_force(self):
        # independent route: raw triple loop over NC(p)^3
        poset = ConstraintPoset(k=3, relations=[(0, 1), (0, 2)])
        for p in (2, 3):
            parts = enumerate_nc(p)
            brute = sum(
                1
                for a, b, c in itertools.product(parts, repeat=3)
                if leq(a, b) and leq(a, c)
            )
            assert count_poset_tuples(poset, p) == brute

    def test_chain_poset_reduces_to_fc(self):
        for s in (1, 2, 3):
            poset = chain_poset(s)
            for p in (1, 2, 3, 4):
                assert count_poset_tuples(poset, p) == fuss_catalan(s, p)

    def test_pins(self):
        poset = ConstraintPoset(k=2, relations=[(0, 1)], pins={0: "zero"})
        # free upper label: all of NC(p)
        assert count_poset_tuples(poset, 3) == catalan(3)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("poset", [
        ConstraintPoset(k=4, relations=[(0, 1), (0, 2), (1, 3), (2, 3)]),
        ConstraintPoset(k=5, relations=[(1, 0), (1, 4), (3, 2)], pins={2: "zero", 4: "one"}),
    ], ids=["diamond", "pinned_forest"])
    def test_frontier_count_equals_product_loop(self, poset, p):
        # the diamond is rooted and keeps two labels on the oracle's
        # frontier; the forest's pins send it to the class contraction,
        # and its relations' later node is the lower one
        assert count_poset_tuples(poset, p) == brute_force_count(poset, p) == frontier_count(poset, p)

    def test_no_relation_builds_no_pair_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair table built for a poset without relations")
        monkeypatch.setattr(combinatorics, "_pair_arrays", refuse)
        assert count_poset_tuples(ConstraintPoset(k=2), 7) == catalan(7) ** 2
        assert count_poset_tuples(chain_poset(1), 7) == 429

    def test_disjoint_chains_factor(self):
        poset = ConstraintPoset(k=5, relations=[(0, 1), (1, 2), (3, 4)])
        assert count_poset_tuples(poset, 6) == fuss_catalan(3, 6) * fuss_catalan(2, 6)

    def test_order_below_one_rejected(self):
        for poset in (ConstraintPoset(k=1), N_SHAPED):
            with pytest.raises(ValueError):
                count_poset_tuples(poset, 0)

    def test_n_shaped_poset_is_not_rooted(self):
        # counted by the class contraction alone
        assert combinatorics._rooted_moments(N_SHAPED, 3) is None
        assert count_poset_tuples(N_SHAPED, 3) == brute_force_count(N_SHAPED, 3) == 107

    def test_recursion_equals_frontier_count(self, monkeypatch):
        # every poset on at most 4 nodes, by its transitive closure and by
        # its covering relations, against the oracle's frontier count of one
        # copy per isomorphism class, which the class contraction matches
        def cover(k, closure):
            return [(a, b) for a, b in closure
                    if not any((a, c) in closure and (c, b) in closure for c in range(k))]

        counts, unrooted = {}, set()
        for k, closure in small_posets(4):
            # the least relabeling, whose low nodes sit low: a small frontier
            shape = min(tuple(sorted((q[a], q[b]) for a, b in closure))
                        for q in itertools.permutations(range(k)))
            if (k, shape) not in counts:
                poset = ConstraintPoset(k, cover(k, set(shape)))
                counts[k, shape] = [1] + [frontier_count(poset, p) for p in range(1, 7)]
                with monkeypatch.context() as patch:
                    patch.setattr(combinatorics, "_rooted_moments", lambda *args: None)
                    assert [1] + [count_poset_tuples(poset, p) for p in range(1, 7)] == counts[k, shape]
            for relations in (sorted(closure), cover(k, closure)):
                rooted = combinatorics._rooted_moments(ConstraintPoset(k, relations), 6)
                if rooted is None:
                    unrooted.add((k, shape))
                else:
                    assert rooted == counts[k, shape], (k, relations)
        assert len(counts) == 1 + 2 + 5 + 16
        # the N and the 2 + 2 bipartite order are the only ones not rooted
        assert unrooted == {(4, ((0, 1), (0, 2), (3, 1))), (4, ((0, 1), (0, 2), (3, 1), (3, 2)))}

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPoset(k=2, relations=[(0, 1), (1, 0)])

    def test_inconsistent_pins_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPoset(k=2, relations=[(0, 1)], pins={0: "one", 1: "zero"})


class TestKreweras:
    def test_extremes(self):
        for p in (2, 3, 4):
            assert kreweras(NCPartition.zero(p)) == NCPartition.one(p)
            assert kreweras(NCPartition.one(p)) == NCPartition.zero(p)

    def test_p2_singletons(self):
        assert kreweras(NCPartition([(0,), (1,)])) == NCPartition([(0, 1)])

    @pytest.mark.parametrize("p", range(1, 7))
    def test_block_count_identity(self, p):
        for q in enumerate_nc(p):
            assert q.num_blocks + kreweras(q).num_blocks == p + 1

    def test_order_reversing(self):
        parts = enumerate_nc(4)
        for a, b in itertools.product(parts, repeat=2):
            if leq(a, b):
                assert leq(kreweras(b), kreweras(a))
