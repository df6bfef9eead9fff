"""Monte Carlo oracle: Haar sampling, state assembly, spectral estimates."""

import concurrent.futures
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from graphstate import contraction, montecarlo, tracenet
from graphstate.catalog import (
    bell_pair,
    cycle_graph,
    exotic_graph,
    fc_template,
    figure_example,
    one_loop,
    random_marginal,
    star_graph,
)
from graphstate.graphs import GraphSpec
from graphstate.moments import exact_moment, exact_moment_gaussian
from graphstate.montecarlo import (
    MAX_AMPLITUDES,
    ResourceCapError,
    StateVector,
    assemble_state,
    estimate,
    haar_fold,
    haar_isometry,
    reduced_spectrum,
    trial_rngs,
)
from graphstate.weingarten import wg_exact
from oracles import (
    Perm,
    chain_order,
    dense_reduced_spectrum,
    doubled_network,
    ginibre_product_spectra,
    partial_trace,
    sampled_network,
    wg,
)


def kron_state(graph, N, unitaries):
    """Reference assembly: the product of the bond pairs built with np.kron,
    then each block's full unitary applied to the whole state vector."""
    dims = [graph.dim_of[i] * N for i in range(1, graph.n + 1)]
    vec = np.ones(1, dtype=complex)
    axis_order = []
    for a, b in graph.bonds:
        vec = np.kron(vec, np.eye(dims[a - 1]).ravel() / math.sqrt(dims[a - 1]))
        axis_order.extend([a, b])
    tensor = np.transpose(vec.reshape([dims[i - 1] for i in axis_order]),
                          [axis_order.index(i) for i in range(1, graph.n + 1)])
    for idx, members in enumerate(graph.vertex_blocks):
        axes = [i - 1 for i in members]
        moved = np.moveaxis(tensor, axes, range(len(axes)))
        out = unitaries[idx] @ moved.reshape(unitaries[idx].shape[0], -1)
        tensor = np.moveaxis(out.reshape(moved.shape), range(len(axes)), axes)
    return StateVector(tensor=tensor, dims=tuple(dims))


def block_unitaries(marginal, N, rng):
    dims = [view.dim_block * N ** len(view.members) for view in marginal.blocks]
    return {idx: haar_isometry(rng, dim, dim) for idx, dim in enumerate(dims)}


def smaller_side(dims, traced):
    """The kept and traced ids, the smaller side first, as `reduced_spectrum` splits them."""
    ids = range(1, len(dims) + 1)
    return sorted(([x for x in ids if x not in traced], [x for x in ids if x in traced]),
                  key=lambda xs: math.prod(dims[x - 1] for x in xs))


def network_power_sums(state, side, other, powers, limit):
    """tr rho^p for each p from the trace networks, whatever rho would cost."""
    arrays = [a for a, _ in state.operands]
    programs = tracenet.ring_programs(
        tuple(l for _, l in state.operands), tuple(a.shape for a in arrays),
        tuple(a.dtype for a in arrays), tuple(side), tuple(other), powers, limit, math.inf)
    return tracenet.power_sums(powers, programs, arrays)


def padded(lam, length):
    return np.sort(np.concatenate([lam, np.zeros(length - len(lam))]))[::-1]


@pytest.fixture(scope="module")
def assembly_corpus(small_corpus):
    """(marginal, N) pairs whose blocks are small enough for full unitaries."""
    named = [cycle_graph("TSRR"), cycle_graph("TRR"), bell_pair(2), figure_example(),
             star_graph(3, 1, 2), fc_template(3), exotic_graph()]
    wide = [random_marginal(np.random.default_rng(600 + i), max_bonds=4, max_dim=1)
            for i in range(20)]
    return [(m, 2) for m in small_corpus + wide] + [(m, 2) for m in named[:-1]] + [(named[-1], 1)]


@pytest.fixture(scope="module")
def reduction_corpus(assembly_corpus):
    """The assembly corpus and 40 random marginals (seed fixed here), at N = 2 and 3."""
    rng = np.random.default_rng(1707)
    extra = [random_marginal(rng, max_bonds=3, max_dim=2) for _ in range(40)]
    return [(m, N) for m in [m for m, _ in assembly_corpus] + extra for N in (2, 3)]


def sampled_states(m, N, rng):
    """(state, marginal) pairs: Haar on the fold with its pins, then Ginibre."""
    fold = haar_fold(m, N)
    yield assemble_state(fold.marginal, N, rng, pinned=fold.pinned), fold.marginal
    yield assemble_state(m, N, rng, mode="ginibre"), m


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 7, 32):
            u = haar_isometry(rng, dim, dim)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-10

    def test_dim_one_is_phase(self):
        rng = np.random.default_rng(1)
        u = haar_isometry(rng, 1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_entry_second_moment(self):
        # E|U_11|^2 = 1/n: the p=1 Weingarten value
        rng = np.random.default_rng(2)
        vals = np.array([abs(haar_isometry(rng, 8, 8)[0, 0]) ** 2 for _ in range(8000)])
        err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1 / 8) < 3 * err

    def test_entry_fourth_moment(self):
        # E|U_11|^4 = 2/(n(n+1)) from the exact order-2 table
        n = 8
        table = wg_exact(2, n)
        target = float(2 * (wg(table, Perm.identity(2)) + wg(table, Perm((1, 0)))))
        rng = np.random.default_rng(3)
        vals = np.array([abs(haar_isometry(rng, n, n)[0, 0]) ** 4 for _ in range(8000)])
        err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * err

    def test_matches_scipy_convention(self):
        # same construction as scipy.stats.unitary_group up to rng draws
        from scipy.stats import unitary_group
        u = unitary_group.rvs(16, random_state=np.random.default_rng(5))
        assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-10


class TestAssembleState:
    def test_bell_state_with_identity_blocks(self):
        sv = assemble_state(one_loop(), 3, unitaries={0: np.eye(9)})
        lam = reduced_spectrum(sv, {2})
        assert np.allclose(lam, 1 / 3)

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for i in range(6):
            m = random_marginal(np.random.default_rng(50 + i), max_bonds=3)
            sv = assemble_state(m, 2, rng)
            assert abs(np.linalg.norm(sv.tensor) - 1.0) < 1e-10

    def test_weighted_dims_layout(self):
        m = one_loop(d=2)
        sv = assemble_state(m, 3, np.random.default_rng(0))
        assert sv.dims == (6, 6)

    def test_isometry_contraction_matches_kron_reference(self, assembly_corpus):
        # the unitaries= override goes through the same contraction as a draw
        for i, (m, N) in enumerate(assembly_corpus):
            unitaries = block_unitaries(m, N, np.random.default_rng(800 + i))
            sv = assemble_state(m, N, unitaries=unitaries)
            ref = kron_state(m.graph, N, unitaries)
            assert sv.dims == ref.dims
            assert np.abs(sv.tensor - ref.tensor).max() < 1e-12

    def test_assembly_searches_no_order(self, monkeypatch):
        # psi and each isometry bound every tree of psi: no plan to check
        def refuse(*args):
            raise AssertionError("assemble_state searched a contraction order")

        monkeypatch.setattr(montecarlo, "_contraction_order", refuse)
        montecarlo._search.cache_clear()
        for m in (exotic_graph(), cycle_graph("TSRR"), fc_template(2)):
            for mode in ("haar", "ginibre"):
                sv = assemble_state(m, 2, np.random.default_rng(0), mode=mode)
                assert sv.dims == tuple(2 * m.graph.dim_of[x] for x in range(1, m.graph.n + 1))

    def test_memory_cap(self):
        m = star_graph(6, 3, 3)   # N^12 amplitudes at N=8: over the cap
        with pytest.raises(ResourceCapError):
            assemble_state(m, 8, np.random.default_rng(0))
        assert MAX_AMPLITUDES == 2 ** 22

    def test_large_networks_refused_or_planned_at_once(self):
        # over the cap at N = 2, refused before any order search (the 20-star
        # alone has 2^20 connected sets to search); at N = 1 with unit
        # dimensions no cap applies, and labels of size 1 join nothing
        for m in (cycle_graph("R" * 25), star_graph(20, 10, 10)):
            for mode in ("haar", "ginibre"):
                start = time.perf_counter()
                with pytest.raises(ResourceCapError):
                    estimate(m, 2, 1, mode=mode)
                assert time.perf_counter() - start < 2.0
            start = time.perf_counter()
            rep = estimate(m, 1, 2, mode="ginibre")
            assert time.perf_counter() - start < 2.0
            assert rep.moment_mean[2] == pytest.approx(1.0)


class TestPartialTrace:
    def test_trace_nothing_is_pure(self):
        sv = assemble_state(one_loop(), 2, np.random.default_rng(4))
        rho = partial_trace(sv, ())
        lam = np.linalg.eigvalsh(rho.matrix)
        assert lam.max() == pytest.approx(1.0, abs=1e-10)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_hermitian_psd_unit_trace(self):
        rng = np.random.default_rng(8)
        for i in range(5):
            m = random_marginal(np.random.default_rng(70 + i), max_bonds=3)
            sv = assemble_state(m, 2, rng)
            rho = partial_trace(sv, m.traced)
            mat = rho.matrix
            assert np.abs(mat - mat.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(mat).min() > -1e-10
            assert abs(np.trace(mat).real - 1.0) < 1e-10

    def test_bell_half_trace_flat(self):
        sv = assemble_state(bell_pair(), 4, np.random.default_rng(9))
        rho = partial_trace(sv, {2})
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), 1 / 4, atol=1e-10)

    def test_trace_everything_is_scalar_one(self):
        sv = assemble_state(one_loop(), 3, np.random.default_rng(12))
        rho = partial_trace(sv, {1, 2})
        assert rho.matrix.shape == (1, 1)
        assert rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_schmidt_symmetry(self):
        sv = assemble_state(fc_template(2), 2, np.random.default_rng(10))
        m = fc_template(2)
        a = np.sort(reduced_spectrum(sv, m.traced))
        b = np.sort(reduced_spectrum(sv, m.kept))
        # nonzero parts coincide; lengths may differ by padding zeros
        k = min(len(a), len(b))
        assert np.allclose(a[-k:], b[-k:], atol=1e-10)


class TestReducedSpectrum:
    @staticmethod
    def assert_matches_dense(state, traced):
        lam, ref = reduced_spectrum(state, traced), dense_reduced_spectrum(state, traced)
        assert len(lam) == len(ref)
        assert np.abs(lam - ref).max() <= 1e-10 * ref.max()

    def test_network_spectrum_equals_dense_oracle(self, reduction_corpus, assembly_corpus):
        rng = np.random.default_rng(31)
        for m, N in reduction_corpus:
            for state, target in sampled_states(m, N, rng):
                for traced in (target.traced, target.kept):
                    self.assert_matches_dense(state, traced)
        for i, (m, N) in enumerate(assembly_corpus):
            unitaries = block_unitaries(m, N, np.random.default_rng(700 + i))
            for state in (assemble_state(m, N, unitaries=unitaries),
                          kron_state(m.graph, N, unitaries)):
                for traced in (m.traced, m.kept):
                    self.assert_matches_dense(state, traced)

    def test_power_sums_equal_eigenvalue_sums(self, reduction_corpus):
        rng = np.random.default_rng(32)
        powers = range(1, 8)
        for m, N in reduction_corpus:
            for state, target in sampled_states(m, N, rng):
                for traced in (target.traced, target.kept):
                    lam = reduced_spectrum(state, traced)
                    sums = reduced_spectrum(state, traced, powers=powers)
                    ref = [math.fsum(lam ** p) for p in powers]
                    np.testing.assert_allclose(sums, ref, rtol=1e-12, atol=0)

    def test_trace_networks_equal_eigenvalue_sums(self, reduction_corpus):
        # the network route forced on every network, whichever route the cost
        # picks: each tr rho^p within 1e-12 of sum lambda^p, and no greedy
        # search over 0.25 s
        rng = np.random.default_rng(33)
        powers = range(1, 7)
        slowest = 0.0
        for m, N in reduction_corpus:
            for state, target in sampled_states(m, N, rng):
                for traced in (target.traced, target.kept):
                    side, other = smaller_side(state.dims, traced)
                    limit = min(montecarlo._order(state.operands, tuple(other))[1], MAX_AMPLITUDES)
                    sums = network_power_sums(state, side, other, powers, limit)
                    lam = reduced_spectrum(state, traced)
                    ref = [math.fsum(lam ** p) for p in powers]
                    np.testing.assert_allclose(sums, ref, rtol=1e-12, atol=0)
                    labels = tuple(l for _, l in state.operands)
                    network = tracenet.trace_network(labels, set(side), set(other), 6)
                    start = time.perf_counter()
                    tracenet.greedy_order(network, tuple(a.shape for a, _ in state.operands) * 12,
                                             limit)
                    slowest = max(slowest, time.perf_counter() - start)
        assert slowest < 0.25

    def test_greedy_order_edge_networks(self):
        # no operands is the empty product 1; legs of size 1 join nothing, so
        # pieces that share only those are scalars, joined in turn; None where
        # no pair fits the limit
        assert tracenet.greedy_order((), (), 1) == ((), 1, 0)
        labels, shapes = ((1, 2), (1, 3), (2, 3), (4,), (4,)), ((2, 1), (2, 1), (1, 1), (1,), (1,))
        tree, largest, _ = tracenet.greedy_order(labels, shapes, 1)
        arrays = [np.full(shape, 1.0 + i) for i, shape in enumerate(shapes)]
        value, legs = montecarlo._contract(list(zip(arrays, labels)), tree)
        assert (value, legs, largest) == ((1 * 2 + 1 * 2) * 3 * 4 * 5, (), 2)
        assert tracenet.greedy_order(((1, 2), (1, 2)), ((3, 3), (3, 3)), 1)[1:] == (9, 9)
        assert tracenet.greedy_order(((1, 2), (2, 3), (3, 1)), ((3, 3),) * 3, 8) is None

    @pytest.mark.parametrize("mode", ["haar", "ginibre"])
    def test_estimate_without_entropy_equals_eigenvalue_route(self, mode):
        for marginal, N in ((cycle_graph("TSRR"), 3), (exotic_graph(), 2), (fc_template(2), 3)):
            full = estimate(marginal, N, 12, p_list=range(1, 7), seed=41, mode=mode)
            moments = estimate(marginal, N, 12, p_list=range(1, 7), seed=41, mode=mode,
                               entropy=False)
            for p in range(1, 7):
                assert moments.moment_mean[p] == pytest.approx(full.moment_mean[p], rel=1e-12)
                assert moments.raw_moment_mean[p] == pytest.approx(full.raw_moment_mean[p],
                                                                   rel=1e-12)
            assert (moments.entropy_mean, moments.entropy_stderr,
                    moments.entropy_bits_mean) == (None, None, None)
            if mode == "ginibre":
                assert (moments.moment_mean[1], moments.moment_stderr[1]) == (1.0, 0.0)

    def test_reduction_within_cap_and_gram_route_cost(self, reduction_corpus, monkeypatch):
        # every array the reduction builds stays within MAX_AMPLITUDES, and it
        # does no more multiply-adds than contracting psi and then psi psi^dagger
        steps = []
        dot = np.dot

        def recording(a, b, out=None):    # each join of a program is one matrix product
            steps.append((a.shape[0] * b.shape[1], a.size * b.shape[1]))
            return dot(a, b, out=out)

        def reduce(state, traced):
            steps.clear()
            monkeypatch.setattr(np, "dot", recording)
            lam = reduced_spectrum(state, traced)
            monkeypatch.setattr(np, "dot", dot)
            return lam, max((size for size, _ in steps), default=1), sum(n for _, n in steps)

        # Ginibre blocks on this graph at N = 1: the doubled network's order is
        # cheaper than psi first, but builds a larger array than psi's own
        wide = GraphSpec(vertex_blocks=[[1, 2, 8], [3, 5, 7], [4], [6, 10], [9]],
                         bonds=[(1, 9), (2, 10), (3, 5), (4, 8), (6, 7)],
                         dims={1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 2, 10: 3})
        rng = np.random.default_rng(32)
        cases = [(s, t.traced) for m, N in reduction_corpus for s, t in sampled_states(m, N, rng)]
        cases.append((assemble_state(wide.marginal({1, 3, 6, 8, 9}), 1, rng, mode="ginibre"),
                      {1, 3, 6, 8, 9}))
        exotic4 = (assemble_state(exotic_graph(), 4, rng), exotic_graph().traced)
        for state, traced in cases + [exotic4]:
            psi_cost = montecarlo._order(state.operands)[2]
            lam, built, work = reduce(state, traced)
            assert built <= MAX_AMPLITUDES
            assert work <= psi_cost + len(lam) * state.total_dim
        assert built == 1048576 and work < 4 ** 13    # exotic at N = 4: no 4^15 Gram product
        # with the cap at psi's own largest array, no reduction builds more
        for state, traced in cases:
            largest = montecarlo._order(state.operands)[1]
            monkeypatch.setattr(montecarlo, "MAX_AMPLITUDES", largest)
            lam, built, _ = reduce(state, traced)
            monkeypatch.setattr(montecarlo, "MAX_AMPLITUDES", MAX_AMPLITUDES)
            assert built <= largest
            ref = dense_reduced_spectrum(state, traced)
            assert np.abs(lam - ref).max() <= 1e-10 * ref.max()
        # the last case: the greedy chain over the doubled network builds more
        # than psi's largest array, and the plan builds nothing larger than rho
        labels, shapes = zip(*[(l, a.shape) for a, l in state.operands])
        summed = smaller_side(state.dims, traced)[1]
        chain_largest = chain_order(*doubled_network(labels, shapes, summed))[1]
        assert chain_largest > largest > built == len(lam) ** 2
        rep = estimate(exotic_graph(), 4, 2, p_list=(1,), seed=0)
        assert rep.moment_mean[1] == pytest.approx(1.0, abs=1e-10)

    def test_plan_within_the_chain_route(self):
        # shapes only, no array built: on every doubled network of this corpus
        # the plan builds no larger array than the route before tree plans (the
        # greedy chain, or psi first where the chain overran the cap or cost no
        # less), and costs at most psi's own plan plus the product psi psi^dagger
        rng = np.random.default_rng(1)
        count = over = 0
        for m in [random_marginal(rng, max_bonds=5, max_dim=3) for _ in range(400)]:
            for N, mode in itertools.product((2, 3, 4), ("haar", "ginibre")):
                labels, shapes, dims, traced = sampled_network(m, N, mode)
                _, psi_largest, psi_cost = montecarlo._search(labels, shapes, None)
                for kept in (traced, set(range(1, len(dims) + 1)) - set(traced)):
                    side, other = smaller_side(dims, kept)
                    small, total = math.prod(dims[x - 1] for x in side), math.prod(dims)
                    if psi_largest > MAX_AMPLITUDES or small > montecarlo.MAX_DENSITY_DIM:
                        continue    # assemble_state or reduced_spectrum refuses these
                    _, largest, cost = montecarlo._search(labels, shapes, tuple(other))
                    _, chain_psi_largest, chain_psi_cost = chain_order(labels, shapes)
                    doubled = doubled_network(labels, shapes, other)
                    _, chain_largest, chain_cost = chain_order(*doubled)
                    fallback = (chain_largest > MAX_AMPLITUDES
                                or chain_psi_cost + small * total <= chain_cost)
                    route = chain_psi_largest if fallback else chain_largest
                    assert largest <= route
                    assert cost <= psi_cost + small * total
                    count += 1
                    if chain_largest > chain_psi_largest:
                        over += 1
                        assert largest <= chain_psi_largest
        assert count >= 300 and over > 0

    def test_sampled_network_is_the_assembled_one(self):
        rng = np.random.default_rng(1)
        for m in [random_marginal(rng, max_bonds=5, max_dim=3) for _ in range(10)]:
            for mode in ("haar", "ginibre"):
                labels, shapes, dims, _ = sampled_network(m, 2, mode)
                fold = haar_fold(m, 2)
                state = (assemble_state(fold.marginal, 2, rng, pinned=fold.pinned) if mode == "haar"
                         else assemble_state(m, 2, rng, mode="ginibre"))
                assert [(l, a.shape) for a, l in state.operands] == list(zip(labels, shapes))
                assert state.dims == dims

    def test_reduction_peak_memory(self):
        # tracemalloc sees numpy's arrays, not eigvalsh's LAPACK copy: rho is
        # 16 MiB for exotic at N = 4, and at most one more rho-sized array is
        # alive at a time (three were before tree plans); fc2_template at N = 8
        # holds rho (4 MiB) and its last join's rho-sized input, which the
        # join takes in slices rather than copying; tr rho^p for p <= 3 on
        # exotic at N = 4 comes from trace networks, largest array 65,536;
        # a dense psi of 1 MiB, its traced legs no run at either end, is
        # copied once, for its conj(), and taken in slices, with rho 64 KiB.
        # Each peak counts the call's buffers: the warm-up's are released
        psi = np.random.default_rng(0).standard_normal((4,) * 8) + 0j
        cases = [(assemble_state(m, N, np.random.default_rng(0)), m.traced, powers, mib)
                 for m, N, powers, mib in ((exotic_graph(), 4, None, 2 * 16 + 1),
                                           (fc_template(2), 8, None, 8.5),
                                           (exotic_graph(), 4, (1, 2, 3), 4))]
        cases.append((StateVector(tensor=psi / np.linalg.norm(psi), dims=psi.shape),
                      (1, 4, 7), None, 2.4))
        for state, traced, powers, mib in cases:
            reduced_spectrum(state, traced, powers)    # the plans, searched once
            contraction.release()
            tracemalloc.start()
            try:
                reduced_spectrum(state, traced, powers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= mib * 2 ** 20

    def test_trace_builds_nothing_larger_than_an_isometry(self, reduction_corpus, monkeypatch):
        # tr rho alone is <psi|psi>: no array larger than psi's largest operand
        built = []
        dot = np.dot

        def recording(a, b, out=None):    # each join of a program is one matrix product
            built.append(a.shape[0] * b.shape[1])
            return dot(a, b, out=out)

        monkeypatch.setattr(np, "dot", recording)
        rng = np.random.default_rng(34)
        cases = [(s, t.traced) for m, N in reduction_corpus for s, t in sampled_states(m, N, rng)]
        cases.append((assemble_state(exotic_graph(), 4, rng), exotic_graph().traced))
        for state, traced in cases:
            built.clear()
            trace = reduced_spectrum(state, traced, powers=(1,))
            assert max(built, default=1) <= max((a.size for a, _ in state.operands), default=1)
        assert trace[0] == pytest.approx(1.0, abs=1e-10)    # exotic's Haar state, the last

    def test_one_order_search_per_estimate(self, monkeypatch):
        # each network shape, and each (shape, p) of the trace networks, is
        # searched once per process
        calls = []
        for module, name in ((montecarlo, "_contraction_order"), (tracenet, "greedy_order")):
            def counting(*args, search=getattr(module, name)):
                calls.append(args)
                return search(*args)

            monkeypatch.setattr(module, name, counting)
        montecarlo._reduction.cache_clear()
        montecarlo._search.cache_clear()
        tracenet._greedy.cache_clear()
        for entropy, searches in ((True, 2), (False, 3)):
            for mode in ("haar", "ginibre"):
                calls.clear()
                estimate(cycle_graph("TSRR"), 3, 20, p_list=(2,), seed=8, mode=mode,
                         entropy=entropy)
                assert 0 < len(calls) <= searches
                assert len(set(calls)) == len(calls)

    def test_route_chosen_once_per_shape(self, monkeypatch):
        # the route and its programs are kept per (shape, side, powers): each
        # trace network is built once, not once per trial
        built = []
        network = tracenet.trace_network

        def counting(labels, side, other, p):
            built.append(p)
            return network(labels, side, other, p)

        monkeypatch.setattr(tracenet, "trace_network", counting)
        montecarlo._reduction.cache_clear()
        estimate(cycle_graph("TSRR"), 4, 20, p_list=(1, 2, 3), seed=0, entropy=False)
        assert 0 < len(built) == len(set(built)) <= 3

    def test_steps_copy_exactly_where_tensordot_copies(self, reduction_corpus):
        # an input is copied into a buffer exactly where tensordot's reshape
        # copies it, so every product sees tensordot's layouts and its bits
        rng = np.random.default_rng(35)
        checked = 0
        for m, N in reduction_corpus[::3]:
            for state, target in sampled_states(m, N, rng):
                side, other = smaller_side(state.dims, target.traced)
                labels = tuple(l for _, l in state.operands)
                shapes = tuple(a.shape for a, _ in state.operands)
                tree = montecarlo._search(labels, shapes, tuple(other))[0]
                program = contraction.Program(labels, shapes, (np.dtype(complex),) * len(labels),
                                              tree, tuple(other), frozenset(side))
                for _, inputs, outputs, *join in program.steps:
                    if not join:    # a conj()
                        continue
                    lead = len(join[3][0][0])    # the larger input's sliced legs
                    for v, skip, (perm, shape), copy in zip(inputs, (0, lead), join[1:3], outputs[1:3]):
                        dummy = np.empty([n for _, n in program.values[v][skip:]])
                        matrix = dummy.transpose(perm).reshape(shape)
                        assert np.shares_memory(matrix, dummy) == (copy is None)
                        checked += 1
        assert checked > 100

    def test_results_do_not_alias_reused_buffers(self):
        # each call on s1, then the same call on a same-shape s2: s1's result
        # is unchanged and equals a fresh einsum of s1's operands
        for marginal, N, mode in ((cycle_graph("TSRR"), 4, "ginibre"), (exotic_graph(), 3, "haar")):
            fold = haar_fold(marginal, N)
            target, pinned = (fold.marginal, fold.pinned) if mode == "haar" else (marginal, ())
            rng = np.random.default_rng(36)
            s1, s2 = (assemble_state(target, N, rng, mode=mode, pinned=pinned) for _ in range(2))
            index = {}
            args = [x for a, labels in s1.operands
                    for x in (a, [index.setdefault(l, len(index)) for l in labels])]
            psi = np.einsum(*args, [index[x] for x in range(1, len(s1.dims) + 1)], optimize=True)
            side, other = smaller_side(s1.dims, target.traced)
            half = np.transpose(psi, [x - 1 for x in side + other]).reshape(
                math.prod(s1.dims[x - 1] for x in side), -1)
            lam = np.linalg.eigvalsh(half @ half.conj().T)[::-1]
            sums = np.array([math.fsum(lam ** p) for p in (1, 2, 3)])
            for call, ref in ((lambda s: s.tensor, psi),
                              (lambda s: reduced_spectrum(s, target.traced), lam),
                              (lambda s: reduced_spectrum(s, target.traced, (1, 2, 3)), sums)):
                first = call(s1)
                kept = first.copy()
                call(s2)
                assert np.array_equal(first, kept)
                assert np.abs(first - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_buffers_kept_between_same_shape_calls(self):
        # TSRR at N = 4, Ginibre (rho side 256): the first call allocates the
        # buffers, within the 4.0 MiB a call took before; a second call on a
        # same-shape state allocates under 0.1 MiB; estimate frees them
        m, mib = cycle_graph("TSRR"), 2 ** 20
        estimate(m, 4, 1, mode="ginibre")    # plans searched, no buffers held after
        rng = np.random.default_rng(37)
        s1, s2 = (assemble_state(m, 4, rng, mode="ginibre") for _ in range(2))
        tracemalloc.start()
        try:
            peaks = []
            for state in (s1, s2):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                reduced_spectrum(state, m.traced)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            estimate(m, 4, 5, mode="ginibre")
            start = tracemalloc.get_traced_memory()[0]
            estimate(m, 4, 5, mode="ginibre")
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 4.1 * mib and peaks[1] < 0.1 * mib
        assert abs(held) < 0.1 * mib


class TestHaarFold:
    def test_folded_spectrum_equals_full_state(self, assembly_corpus):
        # same unitaries on the mixed blocks, any on the S/T blocks
        for i, (m, N) in enumerate(assembly_corpus):
            unitaries = block_unitaries(m, N, np.random.default_rng(900 + i))
            full = reduced_spectrum(kron_state(m.graph, N, unitaries), m.traced)
            fold = haar_fold(m, N)
            origin = [m.graph.block_index(fold.subsystems[members[0] - 1])
                      for members in fold.marginal.graph.vertex_blocks]
            folded = assemble_state(
                fold.marginal, N, pinned=fold.pinned,
                unitaries={j: unitaries[origin[j]] for j in range(fold.marginal.k)
                           if j not in fold.pinned})
            lam = reduced_spectrum(folded, fold.marginal.traced)
            lam = np.repeat(lam / fold.flat_dim, fold.flat_dim)
            length = max(len(full), len(lam))
            assert np.abs(padded(full, length) - padded(lam, length)).max() < 1e-10

    def test_tsrr_fold(self):
        m = cycle_graph("TSRR")
        fold = haar_fold(m, 4)
        assert fold.flat_dim == 4
        assert [v.kind for v in fold.marginal.blocks] == ["T", "S", "mixed", "mixed"]
        assert fold.pinned == (0, 1)
        sv = assemble_state(fold.marginal, 4, np.random.default_rng(0), pinned=fold.pinned)
        assert sv.total_dim == 4 ** 6
        assert len(reduced_spectrum(sv, fold.marginal.traced)) == 64

    def test_bell_pair_is_exactly_flat(self):
        for d, N in ((1, 5), (2, 3)):
            rep = estimate(bell_pair(d), N, 6, p_list=(1, 2, 3), seed=1)
            for p in (1, 2, 3):
                assert rep.moment_mean[p] == pytest.approx((d * N) ** (1 - p), rel=1e-14)
                assert rep.moment_stderr[p] == pytest.approx(0.0, abs=1e-15)
            assert rep.entropy_mean == pytest.approx(math.log(d * N), rel=1e-14)


class TestEstimate:
    def test_one_loop_against_exact(self):
        rep = estimate(one_loop(), 64, 200, p_list=(1, 2), seed=42)
        exact = float(exact_moment(one_loop(), 2, 64))
        assert abs(rep.moment_mean[2] - exact) <= 3 * rep.moment_stderr[2]
        assert rep.moment_mean[1] == pytest.approx(1.0, abs=1e-12)

    def test_one_loop_entropy(self):
        rep = estimate(one_loop(), 64, 200, p_list=(1, 2), seed=42)
        target = math.log(64) - 0.5
        assert abs(rep.entropy_mean - target) <= 3 * rep.entropy_stderr
        assert rep.entropy_bits_mean == pytest.approx(rep.entropy_mean / math.log(2))

    def test_seeded_determinism(self):
        a = estimate(one_loop(), 16, 25, p_list=(1, 2), seed=5)
        b = estimate(one_loop(), 16, 25, p_list=(1, 2), seed=5)
        assert a.moment_mean == b.moment_mean
        assert a.entropy_mean == b.entropy_mean

    def test_thread_count_does_not_change_results(self):
        a = estimate(one_loop(), 16, 24, p_list=(1, 2), seed=6, threads=1)
        b = estimate(one_loop(), 16, 24, p_list=(1, 2), seed=6, threads=4)
        assert a.moment_mean == b.moment_mean
        assert a.raw_moment_mean == b.raw_moment_mean
        # power sums: trace networks (exotic at N = 3) and rho's (TSRR at N = 4); then
        # rho and eigvalsh (TSRR at N = 4, Ginibre); each thread on buffers of its own
        for marginal, N, mode, entropy in ((exotic_graph(), 3, "haar", False),
                                           (cycle_graph("TSRR"), 4, "haar", False),
                                           (cycle_graph("TSRR"), 4, "ginibre", True)):
            a, b = (estimate(marginal, N, 12, p_list=(1, 2, 3), seed=9, mode=mode,
                             threads=threads, entropy=entropy).to_json() for threads in (1, 2))
            assert a == b

    def test_star_purity(self, star_estimate):
        rep = star_estimate
        exact = float(exact_moment(star_graph(2, 1, 1), 2, 16))
        assert abs(rep.purity_mean - exact) <= 3 * rep.purity_stderr
        # asymptotic table value at 10% tolerance
        assert rep.purity_mean == pytest.approx(2 / 16 ** 2, rel=0.1)

    # star_graph(2, 1, 1) runs at N = 6: at N = 3 its Ginibre p = 3 moment is
    # so heavy-tailed that 100 trials understate its standard error (the
    # same seed reads -5.6 stderr with the kron assembly, while 20,000
    # trials land within 0.3 stderr of the Wick value).
    @pytest.mark.parametrize("marginal,N", [
        (cycle_graph("TSRR"), 3), (exotic_graph(), 3), (fc_template(2), 3),
        (star_graph(2, 1, 1), 6), (cycle_graph("TRR"), 3)],
        ids=["TSRR", "exotic", "fc2", "star211", "TRR"])
    @pytest.mark.parametrize("mode,oracle", [("haar", exact_moment),
                                             ("ginibre", exact_moment_gaussian)])
    def test_raw_moments_match_exact_oracles(self, marginal, N, mode, oracle):
        rep = estimate(marginal, N, 100, p_list=(2, 3), seed=400, mode=mode)
        for p in (2, 3):
            target = float(oracle(marginal, p, N))
            assert abs(rep.raw_moment_mean[p] - target) <= 4 * rep.raw_moment_stderr[p]

    def test_exact_below_order_matches_haar_sampling(self):
        # at N = 2 the R blocks of TSRR have dimension 4, below p = 5
        marginal = cycle_graph("TSRR")
        rep = estimate(marginal, 2, 2000, p_list=(4, 5), seed=7)
        for p in (4, 5):
            target = float(exact_moment(marginal, p, 2))
            assert abs(rep.moment_mean[p] - target) <= 4 * rep.moment_stderr[p]

    def test_trials_below_one_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            estimate(one_loop(), 4, 0)

    def test_threads_clamped_to_trials_and_cpus(self, monkeypatch):
        seen = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # estimate imports the executor when it needs one, from concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        for threads, trials in ((8, 3), (8, 10), (2, 10), (1, 10)):
            estimate(one_loop(), 4, trials, p_list=(2,), seed=0, threads=threads)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        estimate(one_loop(), 4, 10, p_list=(2,), seed=0, threads=8)
        assert seen == [3, 4, 2]

    def test_threads_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            estimate(one_loop(), 4, 10, threads=0)

    def test_trial_rngs_are_independent_streams(self):
        rngs = trial_rngs(3, 4)
        draws = [r.standard_normal() for r in rngs]
        assert len(set(draws)) == len(draws)


class TestGinibreMode:
    def test_first_moment_exactly_one(self):
        rep = estimate(fc_template(2), 3, 20, p_list=(1, 2), seed=13, mode="ginibre")
        assert rep.moment_mean[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.moment_stderr[1] == pytest.approx(0.0, abs=1e-12)

    def test_one_loop_matches_haar_distribution(self):
        # a normalized Gaussian vector is a Haar vector: same ensemble
        haar = estimate(one_loop(), 64, 150, p_list=(2,), seed=21)
        gin = estimate(one_loop(), 64, 150, p_list=(2,), seed=22, mode="ginibre")
        combined = math.hypot(haar.moment_stderr[2], gin.moment_stderr[2])
        assert abs(haar.moment_mean[2] - gin.moment_mean[2]) <= 3 * combined

    def test_raw_moments_match_wick_oracle(self):
        m = cycle_graph("TSRR")
        rep = estimate(m, 3, 200, p_list=(1, 2), seed=23, mode="ginibre")
        target = float(exact_moment_gaussian(m, 2, 3))
        assert abs(rep.raw_moment_mean[2] - target) <= 3 * rep.raw_moment_stderr[2]

    def test_fc2_rescaled_trend_toward_three(self):
        # The trace-normalised N^3 tr rho^2 does not approach 3 monotonically
        # (long runs give 3.018, 3.030 and 3.024 at N = 3, 4, 6), so each N
        # is checked against the exact Wick value (3 + 1/N^2) / N^3 of the
        # raw moment, which does.
        values = []
        for N in (3, 4, 5, 6):
            rep = estimate(fc_template(2), N, 120, p_list=(1, 2), seed=300 + N,
                           mode="ginibre")
            target = float(exact_moment_gaussian(fc_template(2), 2, N))
            assert abs(rep.raw_moment_mean[2] - target) <= 3 * rep.raw_moment_stderr[2]
            values.append(N ** 3 * rep.moment_mean[2])
        assert values[-1] == pytest.approx(3.0, rel=0.05)


class TestGinibreProductSpectra:
    def test_mp_moments(self):
        means, _ = ginibre_product_spectra(1, 128, 30, seed=31)
        for p, target in zip((1, 2, 3, 4), (1, 2, 5, 14)):
            assert means[p] == pytest.approx(target, rel=0.08)

    def test_fc2_moments_and_support(self):
        means, top = ginibre_product_spectra(2, 128, 30, seed=32)
        for p, target in zip((1, 2, 3, 4), (1, 3, 12, 55)):
            assert means[p] == pytest.approx(target, rel=0.08)
        assert top <= 27 / 4 + 1.0

    def test_caps(self):
        with pytest.raises(ResourceCapError):
            ginibre_product_spectra(1, 2048, 1)
        with pytest.raises(ValueError):
            ginibre_product_spectra(5, 64, 1)
