"""Flow networks: construction, max-flow values, axioms, duality."""

import itertools

import pytest

from graphstate.catalog import (
    bell_pair,
    cycle_graph,
    exotic_graph,
    fc_template,
    figure_example,
    one_loop,
    star_graph,
)
from graphstate.flow import (
    SINK,
    SOURCE,
    build_network,
    MaxFlowResult,
    MinimizerConsistencyError,
    max_flow,
    residual_poset,
)
from graphstate.moments import marginal_max_flow
from oracles import check_flow_axioms, duality_check, n_shaped_marginal


class TestBuildNetwork:
    def test_one_loop_edges(self):
        net = build_network(one_loop())
        caps = net.cap_map()
        assert caps == {(SOURCE, 0): 1, (0, SINK): 1}

    def test_loops_create_no_edges(self):
        # the figure example has a loop bond (5,6) inside block 3
        net = build_network(figure_example())
        caps = net.cap_map()
        assert (SOURCE, 0) in caps          # block {1} fully traced
        assert (1, SINK) in caps            # block {2,3} fully kept
        assert caps[(1, 2)] == caps[(2, 1)] == 1
        assert all(u != v for u, v in caps)

    def test_fully_traced_has_no_sink_edges(self):
        m = figure_example().graph.marginal(range(1, 7))
        caps = build_network(m).cap_map()
        assert not any(v == SINK for _, v in caps)

    def test_symmetric_block_capacities(self, corpus):
        for m in corpus:
            caps = build_network(m).cap_map()
            for (u, v), c in caps.items():
                if isinstance(u, int) and isinstance(v, int):
                    assert caps[(v, u)] == c


class TestMaxFlow:
    def test_worked_examples(self):
        assert marginal_max_flow(one_loop()) == 1
        assert marginal_max_flow(fc_template(2)) == 3
        assert marginal_max_flow(cycle_graph("TSRR")) == 4
        assert marginal_max_flow(star_graph(2, 1, 1)) == 2
        assert marginal_max_flow(exotic_graph()) == 5

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_fc_templates(self, s):
        assert marginal_max_flow(fc_template(s)) == s + 1

    def test_flow_axioms(self, corpus):
        for m in corpus:
            net = build_network(m)
            result = max_flow(net)
            assert check_flow_axioms(net, result) == []

    def test_value_bounded_by_terminal_capacity(self, corpus):
        for m in corpus:
            x = marginal_max_flow(m)
            assert x <= min(len(m.traced), len(m.kept))

    def test_min_cut_oracle(self, corpus):
        # exhaustive cut enumeration; k <= 6 keeps 2^k tiny
        for m in corpus:
            net = build_network(m)
            caps = net.cap_map()
            x = max_flow(net).value
            best = None
            for r in range(net.k + 1):
                for src_side in itertools.combinations(range(net.k), r):
                    side = set(src_side) | {SOURCE}
                    cut = sum(c for (u, v), c in caps.items()
                              if u in side and v not in side)
                    best = cut if best is None else min(best, cut)
            assert x == best

    def test_labels_cover_all_blocks(self):
        result = max_flow(build_network(figure_example()))
        assert set(result.labels) == {0, 1, 2}
        assert set(result.labels.values()) <= {"source-side", "sink-side", "inner"}


class TestResidualPoset:
    @pytest.mark.parametrize("marginal,k,relations,place", [
        (one_loop(), 1, (), (0,)),
        (bell_pair(), 0, (), ("one", "zero")),                      # a T block and an S block
        (exotic_graph(), 3, ((0, 1), (0, 2)), (0, 1, 2)),           # the hub below both leaves
        (cycle_graph("TSRR"), 2, ((1, 0),), ("zero", "one", 0, 1)),
        (fc_template(3), 3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2)),   # reachability, so closed
        (n_shaped_marginal(), 4, ((0, 2), (1, 2), (1, 3)), (0, 1, 2, 3)),
        (cycle_graph("TRR"), 0, (), ("zero", "zero", "zero")),      # mixed blocks the source reaches
    ], ids=["one_loop", "bell_pair", "exotic", "TSRR", "fc_template_3", "n_shaped", "TRR"])
    def test_classes_and_order(self, marginal, k, relations, place):
        poset, places = residual_poset(marginal)
        assert (poset.k, poset.relations, poset.pins, places) == (k, relations, {}, place)

    def test_any_max_flow_result(self, corpus):
        for m in corpus:
            assert residual_poset(m, max_flow(build_network(m))) == residual_poset(m)

    def test_source_reaching_sink_is_refused(self):
        # no max flow leaves this path; a residual map with one is refused
        residual = {(SOURCE, 0): 1, (0, SINK): 1}
        with pytest.raises(MinimizerConsistencyError):
            residual_poset(one_loop(), MaxFlowResult(value=0, flow={}, residual=residual))


class TestDuality:
    def test_one_loop(self):
        assert duality_check(one_loop())

    def test_star(self):
        assert duality_check(star_graph(2, 1, 1))

    def test_corpus(self, corpus):
        for m in corpus:
            assert duality_check(m)
