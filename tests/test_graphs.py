"""Graph and marginal structure: validation, derived views, partitions."""

import pytest

from graphstate.catalog import broadcast_example, figure_example, one_loop, random_marginal
from graphstate.graphs import GraphSpec, GraphValidationError, validate
from oracles import entangle_partition, partition_join, restrict_partition


class TestValidate:
    def test_smallest_valid_graph(self):
        g = GraphSpec(vertex_blocks=[[1, 2]], bonds=[(1, 2)], dims={1: 1, 2: 1})
        assert validate(g) == []

    def test_bond_dimension_mismatch(self):
        with pytest.raises(GraphValidationError, match="bond dimension mismatch"):
            GraphSpec(vertex_blocks=[[1, 2]], bonds=[(1, 2)], dims={1: 2, 2: 3})

    def test_figure_example_graph(self):
        g = GraphSpec(vertex_blocks=[[1], [2, 3], [4, 5, 6]],
                      bonds=[(1, 2), (3, 4), (5, 6)])
        assert validate(g) == []
        assert (g.n, g.m, g.k) == (6, 3, 3)

    def test_odd_count_rejected(self):
        with pytest.raises(GraphValidationError, match="odd|match"):
            GraphSpec(vertex_blocks=[[1, 2, 3]], bonds=[(1, 2)])

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(GraphValidationError, match="overlap"):
            GraphSpec(vertex_blocks=[[1, 2], [2, 3, 4]], bonds=[(1, 2), (3, 4)])

    def test_double_bonded_subsystem_rejected(self):
        with pytest.raises(GraphValidationError, match="more than one bond"):
            GraphSpec(vertex_blocks=[[1, 2, 3, 4]], bonds=[(1, 2), (2, 3)])

    def test_canonical_ordering(self):
        g = GraphSpec(vertex_blocks=[[4, 3], [2, 1]], bonds=[(3, 1), (4, 2)])
        assert g.vertex_blocks == ((1, 2), (3, 4))
        assert g.bonds == ((1, 3), (2, 4))


class TestMarginalViews:
    def test_figure_example_block3(self):
        m = figure_example()
        views = m.blocks
        v3 = views[2]
        assert v3.kept == (6,)
        assert v3.traced == (4, 5)
        assert v3.loop_bonds == ((5, 6),)
        assert m.cross_bonds[(1, 2)] == ((3, 4),)
        assert [v.kind for v in views] == ["T", "S", "mixed"]

    def test_full_trace_all_type_t(self):
        m = figure_example().graph.marginal(range(1, 7))
        assert all(v.kind == "T" for v in m.blocks)

    def test_no_trace_all_type_s(self):
        m = figure_example().graph.marginal(())
        assert all(v.kind == "S" for v in m.blocks)

    def test_traced_outside_graph_rejected(self):
        with pytest.raises(GraphValidationError, match="traced ids"):
            one_loop().graph.marginal({7})

    def test_cardinality_invariants(self, corpus):
        for m in corpus:
            n = m.graph.n
            assert sum(len(v.kept) for v in m.blocks) == len(m.kept)
            assert sum(len(v.traced) for v in m.blocks) == len(m.traced)
            assert len(m.kept) + len(m.traced) == n
            for i, v in enumerate(m.blocks):
                crossing = sum(len(bonds) for pair, bonds in m.cross_bonds.items() if i in pair)
                assert crossing + 2 * len(v.loop_bonds) == len(v.members)

    def test_bond_dim_product_identity(self, corpus):
        # prod over bonds of d_e^2 equals prod over subsystems of d_i
        for m in corpus:
            g = m.graph
            all_product = 1
            for i in range(1, g.n + 1):
                all_product *= g.dim_of[i]
            assert m.dim_all_sqrt ** 2 == all_product

    def test_views_independent_of_block_order(self):
        a = GraphSpec(vertex_blocks=[[1], [2, 3], [4, 5, 6]],
                      bonds=[(1, 2), (3, 4), (5, 6)]).marginal({1, 4, 5})
        b = GraphSpec(vertex_blocks=[[4, 5, 6], [2, 3], [1]],
                      bonds=[(5, 6), (3, 4), (1, 2)]).marginal({1, 4, 5})
        assert [v.kind for v in a.blocks] == [v.kind for v in b.blocks]
        assert a.cross_bonds == b.cross_bonds


class TestEntanglePartition:
    def test_broadcast_keeps_joint_block(self):
        parts = entangle_partition(broadcast_example())
        assert (4, 5, 6) in parts
        assert (2,) in parts

    def test_fully_traced_block_splits(self):
        m = figure_example()  # block {1} is fully traced
        parts = entangle_partition(m)
        assert (1,) in parts

    def test_empty_trace_is_vertex_partition(self):
        g = broadcast_example().graph
        m = g.marginal(())
        assert entangle_partition(m) == g.vertex_blocks

    def test_join_with_bonds_gives_state_blocks(self):
        m = broadcast_example()
        joined = partition_join(entangle_partition(m), m.graph.bonds,
                                range(1, m.graph.n + 1))
        # the joint unitary relays entanglement across all three bonds
        assert joined == ((1, 2, 3, 4, 5, 6),)
        kept_blocks = restrict_partition(joined, m.kept)
        assert kept_blocks == ((1, 3, 5),)


class TestRandomCorpus:
    def test_all_valid(self, corpus):
        for m in corpus:
            assert validate(m.graph) == []
            assert m.graph.n <= 8
            assert all(d <= 3 for d in m.graph.dim_of.values())
