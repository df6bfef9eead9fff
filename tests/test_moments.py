"""Moment engines: minimizers, asymptotics, exact sums, classification."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from graphstate import combinatorics, moments
from graphstate.catalog import (
    cycle_graph,
    exotic_graph,
    fc_template,
    figure_example,
    one_loop,
    star_graph,
)
from graphstate.cli import cmd_analyze
from graphstate.combinatorics import (
    _label_groups,
    catalan,
    count_poset_tuples,
    fuss_catalan,
    mp_moment,
)
from graphstate.graphs import GraphSpec
from graphstate.moments import (
    BudgetExceededError,
    DistributionId,
    MomentReport,
    asymptotic_moment,
    classify,
    classify_reports,
    exact_moment,
    exact_moment_gaussian,
    marginal_max_flow,
    minimizer_set,
    moment_table,
)
from graphstate.spectra import fc_entropy
from oracles import (
    NCPartition,
    Perm,
    all_perms,
    cycle_marginal,
    enumerate_nc,
    exotic_poset,
    f_beta,
    is_geodesic,
    law_moments,
    n_shaped_marginal,
    nc_to_geodesic,
    one_unitary_marginal,
    perm_weingarten_column,
    star_marginal,
    swap,
    with_dims,
)


class TestFBeta:
    def test_all_identity(self, corpus):
        for m in corpus[:10]:
            for p in (2, 3):
                betas = [Perm.identity(p)] * m.k
                assert f_beta(m, betas, p) == (p - 1) * len(m.kept)

    def test_all_gamma(self, corpus):
        for m in corpus[:10]:
            for p in (2, 3):
                betas = [Perm.full_cycle(p)] * m.k
                assert f_beta(m, betas, p) == (p - 1) * len(m.traced)

    def test_one_loop_both_minimize(self):
        m = one_loop()
        assert f_beta(m, [Perm.identity(2)], 2) == 1
        assert f_beta(m, [Perm.full_cycle(2)], 2) == 1

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            f_beta(one_loop(), [], 2)


class TestMinimizerSet:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_one_loop_counts(self, p):
        assert len(minimizer_set(one_loop(), p)) == catalan(p)

    @pytest.mark.parametrize("p", range(1, 6))
    def test_fc2_counts(self, p):
        assert len(minimizer_set(fc_template(2), p)) == fuss_catalan(2, p)

    @pytest.mark.parametrize("p,expected", [(1, 1), (2, 5), (3, 38), (4, 353)])
    def test_exotic_counts_match_poset_brute_force(self, p, expected):
        assert len(minimizer_set(exotic_graph(), p)) == expected
        assert count_poset_tuples(exotic_poset(), p) == expected

    @pytest.mark.parametrize("p", range(1, 6))
    def test_star_pins_leave_one_free_chain(self, p):
        ms = minimizer_set(star_graph(2, 1, 1), p)
        assert len(ms) == catalan(p)
        # satellite blocks are pinned: fully kept -> one, fully traced -> zero
        assert ms.pinned.get(0) == "one" or ms.pinned.get(1) == "one"
        assert "zero" in ms.pinned.values()

    def test_minimum_matches_flow_bound(self, corpus):
        # the enumerated minimum must equal X(p-1); minimizer_set raises otherwise
        for m in corpus:
            for p in (2, 3):
                ms = minimizer_set(m, p)
                x = marginal_max_flow(m)
                assert ms.x == x
                betas = [enumerate_nc(p)[i] for i in ms.tuples[0]]
                assert len(betas) == m.k

    @pytest.mark.parametrize("p", range(2, 6))
    def test_minimum_matches_flow_bound_curated(self, p):
        for m in (one_loop(), fc_template(2), star_graph(2, 1, 1), figure_example()):
            minimizer_set(m, p)  # raises MinimizerConsistencyError on mismatch

    def test_budget_error_carries_estimate(self):
        with pytest.raises(BudgetExceededError) as err:
            minimizer_set(exotic_graph(), 8, budget=10)
        assert err.value.estimated > 10


def test_order_below_one_refused():
    # at p = 0 the NC table has one empty label, which no search may run on
    for engine, args in ((minimizer_set, (exotic_graph(), 0)),
                         (asymptotic_moment, (exotic_graph(), 0)),
                         (exact_moment, (one_loop(), 0, 2)),
                         (exact_moment_gaussian, (one_loop(), 0, 2))):
        with pytest.raises(ValueError, match="^p must be >= 1$"):
            engine(*args)


class TestAsymptoticMoment:
    def test_normalization_on_corpus(self, corpus):
        for m in corpus:
            report = asymptotic_moment(m, 1)
            assert (report.exponent, report.coefficient) == (0, Fraction(1))

    def test_coefficient_equals_count_when_unweighted(self, corpus):
        for m in corpus[:15]:
            if any(d != 1 for d in m.graph.dim_of.values()):
                continue
            for p in (2, 3):
                r = asymptotic_moment(m, p)
                assert r.coefficient == r.minimizer_count

    def test_fc2_template_values(self):
        r = asymptotic_moment(fc_template(2), 3)
        assert (r.exponent, r.coefficient) == (-6, Fraction(12))

    def test_exotic_sequence(self):
        rows = moment_table(exotic_graph(), 3)
        assert [(r.exponent, r.coefficient) for r in rows] == [
            (0, Fraction(1)), (-5, Fraction(5)), (-10, Fraction(38))]

    def test_one_loop_weighted(self):
        # with dimension factor d the coefficients pick up d^(1-p)
        for p in (1, 2, 3, 4):
            r = asymptotic_moment(one_loop(d=3), p)
            assert r.coefficient == Fraction(3) ** (1 - p) * catalan(p)

    def test_swap_invariance(self, corpus):
        for m in corpus:
            a = [(r.exponent, r.coefficient) for r in moment_table(m, 3)]
            b = [(r.exponent, r.coefficient) for r in moment_table(swap(m), 3)]
            assert a == b


class TestExactMoment:
    def test_first_moment_is_one(self, small_corpus):
        for m in small_corpus:
            assert exact_moment(m, 1, 3) == 1

    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_one_loop_closed_form(self, N):
        assert exact_moment(one_loop(), 2, N) == Fraction(2 * N, N * N + 1)

    def test_one_loop_gap_halves(self):
        gaps = [abs(N * exact_moment(one_loop(), 2, N) - 2) for N in (2, 4, 8, 16)]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a / 2

    def test_swap_invariance_exact(self, small_corpus):
        # spectra of the two reductions differ only by zeros
        for m in small_corpus[:8]:
            assert exact_moment(m, 2, 3) == exact_moment(swap(m), 2, 3)

    def test_converges_to_asymptotic(self, small_corpus):
        for m in small_corpus[:6]:
            for p in (2, 3):
                r = asymptotic_moment(m, p)
                x = -r.exponent // (p - 1)
                gaps = []
                for N in (4, 8, 16):
                    val = exact_moment(m, p, N) * N ** (x * (p - 1))
                    gaps.append(abs(float(val - r.coefficient)) / float(r.coefficient))
                assert gaps[1] <= gaps[0] * 0.75 + 1e-12
                assert gaps[2] <= gaps[1] * 0.75 + 1e-12
                assert gaps[2] <= 16.0 / 16 / 4  # loose C/N envelope

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 3), (3, 2), (1, 2)])
    def test_bell_pair_marginal_is_exactly_flat(self, d, N):
        # two blocks joined by one weighted bond: unitary blocks leave the
        # reduced state exactly I/(dN), so the full Weingarten sum must
        # collapse to (dN)^(1-p) at every finite N; both blocks are pinned,
        # so this holds even at dN < p, where their Weingarten tables are
        # singular
        from graphstate.catalog import bell_pair
        m = bell_pair(d=d)
        for p in (1, 2, 3):
            assert exact_moment(m, p, N) == Fraction(1, (d * N) ** (p - 1))

    def test_bell_pair_gaussian_flattens_only_asymptotically(self):
        # Gaussian blocks do not preserve the flat spectrum at finite N,
        # but the rescaled second moment must drift to 1 as N grows
        from graphstate.catalog import bell_pair
        m = bell_pair()
        vals = [float(N * exact_moment_gaussian(m, 2, N)) for N in (4, 8, 16, 32)]
        gaps = [abs(v - 1.0) for v in vals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_weighted_one_loop_closed_form(self):
        # dimension factor folds into the closed form via N -> dN
        for d, N in ((2, 3), (3, 4)):
            dn = d * N
            assert exact_moment(one_loop(d=d), 2, N) == Fraction(2 * dn, dn * dn + 1)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            exact_moment(cycle_graph("TSRR"), 4, 4, budget=1000)

    @pytest.mark.parametrize("engine,args", [
        (exact_moment, (one_loop(), 3, 2)), (exact_moment_gaussian, (one_loop(), 3, 2)),
        (asymptotic_moment, (exotic_graph(), 5)), (minimizer_set, (exotic_graph(), 3))],
        ids=["exact", "gaussian", "asymptotic", "minimizer_set"])
    def test_budget_argument_checked_like_the_variable(self, engine, args):
        # the variable's rule: a non-negative integer in any integer-valued notation
        for value in (-1, 2.5, "many"):
            with pytest.raises(ValueError, match=f"^budget must be a non-negative .*{value!r}"):
                engine(*args, budget=value)
        for value in (10 ** 9, 1e9, "1e9"):
            engine(*args, budget=value)
        if engine is not asymptotic_moment:    # plans no entries on this graph
            with pytest.raises(BudgetExceededError):
                engine(*args, budget=0)

    def test_gate_refuses_before_the_label_table(self, monkeypatch):
        # patched at the table itself, since the S_p labels come straight
        # from itertools and not from all_perms
        def unbuilt(p, *args):
            raise AssertionError(f"built a label table at order {p}")
        monkeypatch.setattr(moments, "_label_table", unbuilt)
        monkeypatch.setattr(combinatorics, "_label_table", unbuilt)
        with pytest.raises(BudgetExceededError):
            exact_moment(cycle_graph("TSRR"), 12, 3)
        with pytest.raises(BudgetExceededError):
            asymptotic_moment(with_dims(n_shaped_marginal(), 2), 12)
        # exotic's residual poset is rooted, and counted with no table at
        # all, at every dimension
        count = count_poset_tuples(exotic_poset(), 12)
        assert asymptotic_moment(exotic_graph(), 12).minimizer_count == count
        r = asymptotic_moment(with_dims(exotic_graph(), 2), 12)
        assert (r.coefficient, r.minimizer_count) == (Fraction(count, 2 ** 55), count)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_integer_weingarten_column(self, p):
        # one weight per label group (#a, #(gamma a^-1)), the only weights the
        # engine passes, expanded to every label a for the oracle; dimensions
        # below p, where Wg is a pseudo-inverse, and above it.  At p = 6 the
        # Perm-product oracle checks one dimension at 64 random labels b.
        rng = random.Random(p)
        groups = _label_groups(p)
        weights = {key: rng.randrange(1, 10 ** 6) for key in zip(groups[0].tolist(), groups[1].tolist())}
        gamma = Perm.full_cycle(p)
        labels = [weights[a.num_cycles, (gamma * a.inverse()).num_cycles] for a in all_perms(p)]
        at = sorted(rng.sample(range(720), 64)) if p == 6 else None
        for dim in [36] if p == 6 else sorted({1, 2, max(p - 1, 1), p, p + 1, 36}):
            column, denominator = moments._weingarten_column(
                p, dim, np.array(list(weights.values()), dtype=object))
            assert type(denominator) is int and all(type(h) is int for h in column)
            assert [Fraction(column[b], denominator) for b in at or range(len(column))] == \
                perm_weingarten_column(p, dim, labels, at), dim

    def test_one_weingarten_row_per_order_and_dimension(self, monkeypatch):
        # a free Haar block reads its scaled Weingarten row once per (p, dim)
        # in a process: exotic at N = 4 has 8 distinct pairs over p <= 4
        # (12 blocks), fc_template(2) 5 over p <= 5 (10 blocks)
        built = []
        real = moments.wg_exact
        monkeypatch.setattr(moments, "wg_exact", lambda p, n: built.append((p, n)) or real(p, n))
        for marginal, p_max, rows in ((exotic_graph(), 4, 8), (fc_template(2), 5, 5)):
            moments._weingarten_rows.cache_clear()
            built.clear()
            for p in range(1, p_max + 1):
                exact_moment(marginal, p, 4, budget=10 ** 8)
            assert len(built) == len(set(built)) == rows
        moments._weingarten_rows.cache_clear()

    def test_scalar_state_at_dimension_one(self):
        # at N = 1 the mixed block has dimension 1 < p and the state is a scalar
        for p in range(2, 6):
            assert exact_moment(one_loop(), p, 1) == 1

    def test_gaussian_one_loop_closed_form(self):
        for N in (2, 4, 8):
            assert exact_moment_gaussian(one_loop(), 2, N) == Fraction(2, N)

    def test_gaussian_first_moment_is_one(self, small_corpus):
        for m in small_corpus[:8]:
            assert exact_moment_gaussian(m, 1, 3) == 1

    def test_gaussian_approaches_haar(self):
        # on a cycle with only mixed blocks the inter-model relative gap
        # shrinks toward 0 as N grows (0.524, 0.170, 0.064)
        m = cycle_graph("RRRR")
        rel = []
        for N in (3, 5, 8):
            haar = exact_moment(m, 2, N)
            wick = exact_moment_gaussian(m, 2, N)
            rel.append(abs(float(wick / haar - 1)))
        assert rel[1] < rel[0]
        assert rel[2] < rel[1]
        assert rel[2] < 0.1


def _coefficients(marginal, p_max):
    return [r.coefficient for r in moment_table(marginal, p_max)]


def _assert_forecast_matches_engine(report, marginal, name):
    """Family purity = the engine's p=2 row; family entropy = the CLI forecast."""
    analysis = cmd_analyze(marginal, 4)
    row = analysis["moments"][1]
    assert (report.purity_coeff, report.purity_exponent) == (
        Fraction(row["coefficient"]), row["exponent"]), name
    entropy = analysis["predictions"]["entropy"]
    assert report.entropy_log_term == entropy["log_term"], name
    assert report.entropy_constant == pytest.approx(entropy["constant"], abs=1e-12), name


class TestStarFamily:
    @pytest.mark.parametrize("m,s,t", [(m, s, t) for m in (1, 2, 3)
                                       for s in range(m + 1) for t in range(m + 1)])
    def test_against_engine(self, m, s, t):
        report = star_marginal(m, s, t)
        marginal = star_graph(m, s, t)
        if s == 0 and t == 0:
            return  # fully traced: scalar state, nothing to compare
        assert report.flow == marginal_max_flow(marginal)
        _assert_forecast_matches_engine(report, marginal, (m, s, t))

    def test_balanced_case_is_free_poisson(self):
        report = star_marginal(2, 1, 1)
        assert report.law.kind == "free_poisson" and report.law.c == 1
        assert report.entropy_constant == -0.5
        assert (report.purity_coeff, report.purity_exponent) == (2, -2)

    def test_empty_side_is_exact(self):
        report = star_marginal(2, 0, 2)
        assert report.exact_at_finite_n
        assert report.law.kind == "maximally_mixed"
        assert report.entropy(10.0) == pytest.approx(2 * __import__("math").log(10))

    def test_oversized_kept_side(self):
        report = star_marginal(2, 1, 2)
        assert report.flow == 1
        assert report.law.rank_exponent == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            star_marginal(2, 3, 0)


class TestCycleFamily:
    CASES = ["TS", "TSRR", "TRS", "TRRS", "TTSS", "TRSRT", "SRRT", "TRRT",
             "SRS", "TRSRS"]

    @pytest.mark.parametrize("types", CASES)
    def test_flow_matches_engine(self, types):
        assert cycle_marginal(types).flow == marginal_max_flow(cycle_graph(types))

    @pytest.mark.parametrize("types", CASES)
    def test_coefficients_match_minimizer_counts(self, types):
        report = cycle_marginal(types)
        for p in (1, 2, 3):
            predicted = 1
            for factor in _law_orders(report.law):
                predicted *= fuss_catalan(factor, p)
            assert len(minimizer_set(cycle_graph(types), p)) == predicted

    @pytest.mark.parametrize("m", range(2, 6))
    def test_forecast_matches_engine(self, m):
        for types in map("".join, itertools.product("SRT", repeat=m)):
            _assert_forecast_matches_engine(cycle_marginal(types), cycle_graph(types), types)

    def test_all_r_cycle_is_square_case(self):
        # no pins anywhere: labels equal but free, Catalan counts
        report = cycle_marginal("RRRR")
        assert report.law.kind == "free_poisson"
        assert report.flow == 4
        for p in (2, 3):
            assert len(minimizer_set(cycle_graph("RRRR"), p)) == catalan(p)

    def test_four_cycle_order_two(self):
        report = cycle_marginal("TSRR")
        assert report.flow == 4
        assert report.law.kind == "fuss_catalan" and report.law.s == 2
        assert report.entropy_constant == pytest.approx(float(fc_entropy(2)))

    def test_three_cycle_single_unit_arc(self):
        report = cycle_marginal("TRS")
        assert report.flow == 3
        assert report.law.kind == "free_poisson"

    def test_entropy_sums_over_arcs(self):
        report = cycle_marginal("TRSRT")  # two length-1 arcs
        assert report.entropy_constant == pytest.approx(-1.0)
        assert report.law.kind == "classical_product"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cycle_marginal("T")
        with pytest.raises(ValueError):
            cycle_marginal("TXS")


def _law_orders(law):
    if law.kind == "dirac" or law.kind == "maximally_mixed":
        return []
    if law.kind == "free_poisson":
        return [1]
    if law.kind == "fuss_catalan":
        return [law.s]
    if law.kind == "classical_product":
        out = []
        for f in law.factors:
            out.extend(_law_orders(f))
        return out
    raise AssertionError(law)


def _one_unitary_graph(loops, external, loop_dims=None, external_dims=None):
    """Central vertex with given loop bonds and bonds to traced satellites."""
    loop_dims = loop_dims or [1] * loops
    external_dims = external_dims or [1] * external
    blocks, bonds, dims = [], [], {}
    nxt = 1
    central = []
    for d in loop_dims:
        a, b = nxt, nxt + 1
        nxt += 2
        central.extend([a, b])
        bonds.append((a, b))
        dims[a] = dims[b] = d
    ext_ends = []
    for d in external_dims:
        e = nxt
        nxt += 1
        central.append(e)
        ext_ends.append(e)
        dims[e] = d
    blocks.append(central)
    satellites = []
    for e, d in zip(ext_ends, external_dims):
        s = nxt
        nxt += 1
        blocks.append([s])
        bonds.append((e, s))
        dims[s] = d
        satellites.append(s)
    return GraphSpec(vertex_blocks=blocks, bonds=bonds, dims=dims), satellites


class TestOneUnitaryFamily:
    def test_square_case_is_one_loop(self):
        report = one_unitary_marginal(1, 1, 0)
        assert report.law.kind == "free_poisson" and report.law.c == 1

    def test_case_three_rank(self):
        report = one_unitary_marginal(2, 1, 0)
        assert report.law.kind == "maximally_mixed"
        assert report.law.rank_exponent == 1

    def test_case_one_flat_on_kept(self):
        g, sat = _one_unitary_graph(loops=1, external=1)
        marginal = g.marginal({1, 2} | set(sat))   # only the external end survives
        report = one_unitary_marginal(kept=1, traced_in_block=2, external=1)
        assert report.law.kind == "maximally_mixed"
        assert report.law.rank_exponent == 1
        # flat limit: geometric coefficients d_S^(1-p), here all ones
        assert _coefficients(marginal, 3) == [1, 1, 1]

    def test_critical_case_with_weights(self):
        # two loops (d=1) plus one weighted external bond (d=2), traced ends
        # chosen so kept = traced-in-block + external with parameter c = 4
        g, sat = _one_unitary_graph(loops=2, external=1,
                                    loop_dims=[1, 1], external_dims=[2])
        marginal = g.marginal({1, 5} | set(sat))   # trace one loop end + ext end
        report = one_unitary_marginal(kept=3, traced_in_block=2, external=1,
                                      d_kept=1, d_traced=2, d_external=2)
        assert report.law.kind == "free_poisson"
        assert report.law.c == Fraction(4)
        coeffs = _coefficients(marginal, 4)
        for p in (1, 2, 3, 4):
            predicted = Fraction(4) ** -p * mp_moment(Fraction(4), p)
            assert coeffs[p - 1] == predicted
        assert classify(marginal, 4).c == Fraction(4)

    def test_projector_case(self):
        report = one_unitary_marginal(2, 0, 1, d_external=3)
        assert report.exact_at_finite_n
        assert report.law.rank_coeff == 3

    def test_rejects_empty_kept(self):
        with pytest.raises(ValueError):
            one_unitary_marginal(0, 1, 0)


class TestClassify:
    def test_one_loop(self):
        dist = classify(one_loop(), 6)
        assert dist.kind == "free_poisson" and dist.c == 1

    def test_weighted_one_loop(self):
        dist = classify(one_loop(d=3), 5)
        assert dist.kind == "free_poisson" and dist.c == 1

    @pytest.mark.parametrize("s", [2, 3, 8, 10])
    def test_fc_templates(self, s):
        dist = classify(fc_template(s), 4)
        assert dist.kind == "fuss_catalan" and dist.s == s

    def test_exotic_is_poset_law(self):
        dist = classify(exotic_graph(), 4)
        assert dist.kind == "poset_law"
        assert set(dist.poset.relations) == {(0, 1), (0, 2)}

    def test_cycle_product(self):
        dist = classify(cycle_graph("TRSRT"), 4)
        assert dist.kind == "classical_product"
        assert all(f.kind == "free_poisson" for f in dist.factors)

    def test_flat_star(self):
        dist = classify(star_graph(2, 0, 2), 4)
        assert dist.kind in ("dirac", "maximally_mixed")

    def test_never_mislabels(self, corpus):
        # whatever tag comes back must reproduce the engine sequence exactly
        for m in corpus:
            coeffs = _coefficients(m, 3)
            dist = classify(m, 3)
            if dist.kind == "unknown":
                assert list(dist.moments) == coeffs
            else:
                assert law_moments(dist, 3) == coeffs

    def test_law_moments_round_trip_families(self):
        cases = [one_loop(), one_loop(d=3), fc_template(2), exotic_graph(),
                 cycle_graph("TRSRT"), star_graph(2, 0, 2)]
        for m in cases:
            dist = classify(m, 4)
            assert dist.kind != "unknown"
            assert law_moments(dist, 4) == _coefficients(m, 4)

    def test_candidate_check_stops_at_first_mismatch(self, monkeypatch):
        # the exotic poset counts 5 at p=2, so p=3..7 must never be counted
        counted = []

        def count(poset, p):
            counted.append(p)
            return count_poset_tuples(poset, p)
        monkeypatch.setattr(moments, "count_poset_tuples", count)
        coeffs = [1, 7, 50, 400, 3000, 20000, 100000]
        reports = [MomentReport(p=p, exponent=1 - p, coefficient=Fraction(c), minimizer_count=1)
                   for p, c in enumerate(coeffs, start=1)]
        assert classify_reports(reports).kind == "unknown"
        assert counted == [1, 2]

    def test_minimizers_are_pinned_geodesics(self):
        m = cycle_graph("TSRR")
        ms = minimizer_set(m, 3)
        zero, one = NCPartition.zero(3), NCPartition.one(3)
        for t in ms.tuples:
            parts = tuple(enumerate_nc(3)[i] for i in t)
            assert all(is_geodesic(nc_to_geodesic(q)) for q in parts)
            for block, pin in ms.pinned.items():
                assert parts[block] == (zero if pin == "zero" else one)


def _fc(s):
    return DistributionId(kind="fuss_catalan", s=s)


class TestDistributionId:
    LAWS = [
        DistributionId(kind="dirac", rank_coeff=Fraction(1)),
        DistributionId(kind="maximally_mixed", rank_coeff=Fraction(3, 2)),
        DistributionId(kind="free_poisson", c=Fraction(7, 3), rank_coeff=Fraction(2)),
        DistributionId(kind="free_poisson", c=Fraction(1, 2)),
        _fc(3),
        DistributionId(kind="classical_product",
                       factors=(_fc(2), DistributionId(kind="free_poisson", c=Fraction(1)))),
        DistributionId(kind="poset_law", poset=exotic_poset()),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
    def test_moment_matches_law_moments(self, law):
        assert [law.moment(p) for p in range(1, 6)] == law_moments(law, 5)

    def test_unknown_has_no_moments(self):
        with pytest.raises(ValueError):
            DistributionId(kind="unknown", moments=(Fraction(1),)).moment(1)

    def test_entropy_constant_none_without_closed_form(self):
        poset = DistributionId(kind="poset_law", poset=exotic_poset())
        mixed = DistributionId(kind="classical_product", factors=(_fc(2), poset))
        unknown = DistributionId(kind="unknown", moments=(Fraction(1),))
        assert [law.entropy_constant() for law in (poset, mixed, unknown)] == [None] * 3
