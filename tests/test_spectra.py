"""Limit-law analytics: densities vs combinatorial moments and entropies."""

import math
from fractions import Fraction

import numpy as np
import pytest

from graphstate.catalog import exotic_poset
from graphstate.combinatorics import ConstraintPoset, catalan, enumerate_nc, fuss_catalan, mp_moment
from graphstate.moments import DistributionId
from graphstate.spectra import (
    fc2_density,
    fc_density,
    fc_entropy,
    fc_support,
    mp_density,
    mp_entropy,
)
from oracles import hankel_matrix


def _moments(law, p_max):
    return [law.moment(p) for p in range(1, p_max + 1)]


def _fc(s):
    return DistributionId(kind="fuss_catalan", s=s)


def _poset_law(poset):
    return DistributionId(kind="poset_law", poset=poset)


class TestMPDensity:
    def test_c1_support_and_atom(self):
        d = mp_density(1)
        assert (d.lo, d.hi) == (0.0, 4.0)
        assert d.atom == 0.0

    def test_subcritical_atom(self):
        assert mp_density(0.25).atom == pytest.approx(0.75)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_total_mass(self, c):
        assert mp_density(c).total_mass() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_moments_match_lattice_sum(self, c):
        d = mp_density(c)
        for p in range(1, 5):
            assert d.moment(p) == pytest.approx(float(mp_moment(c, p)), abs=1e-6)

    def test_nonnegative_on_support(self):
        d = mp_density(1)
        xs = np.linspace(0.0, 4.0, 200)
        assert np.all(d(xs) >= 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mp_density(0)


class TestMPMoments:
    def test_catalan_at_c1(self):
        assert [mp_moment(1, p) for p in (1, 2, 3)] == [1, 2, 5]

    def test_purity_formula(self):
        for c in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
            assert mp_moment(c, 2) == c * c + c

    def test_mean_is_c(self):
        assert mp_moment(Fraction(3, 7), 1) == Fraction(3, 7)

    @pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 3), Fraction(4), Fraction(7, 2)])
    def test_equals_noncrossing_sum(self, c):
        for p in range(1, 11):
            assert mp_moment(c, p) == sum(c ** q.num_blocks for q in enumerate_nc(p))

    def test_no_enumeration_cap(self):
        # catalan(20) non-crossing partitions, without enumerating them
        assert mp_moment(1, 20) == catalan(20)


class TestMPEntropy:
    def test_unit_parameter(self):
        assert mp_entropy(1) == -0.5

    def test_subcritical_branch(self):
        assert mp_entropy(Fraction(1, 2)) == pytest.approx(-0.125)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_quadrature_matches_closed_form(self, c):
        assert mp_density(c).entropy() == pytest.approx(mp_entropy(c), abs=1e-6)


class TestQuadrature:
    """The tanh-sinh rule against closed forms: mass, moments 1..6, entropy."""

    @staticmethod
    def _errors(density, moment, entropy):
        yield abs(density.total_mass() - 1.0)
        for p in range(1, 7):
            yield abs(density.moment(p) / float(moment(p)) - 1.0)
        yield abs(density.entropy() - entropy)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2),
                                   Fraction(9, 2)])
    def test_mp_to_1e_11(self, c):
        errors = self._errors(mp_density(c), lambda p: mp_moment(c, p), mp_entropy(c))
        assert max(errors) <= 1e-11

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fc2_to_1e_11(self):
        errors = self._errors(fc2_density(), lambda p: fuss_catalan(2, p), float(fc_entropy(2)))
        assert max(errors) <= 1e-11


class TestFussCatalan:
    def test_moments_are_fc_numbers(self):
        assert _moments(_fc(2), 4) == [1, 3, 12, 55]

    def test_support_edges(self):
        assert fc_support(1) == 4
        assert fc_support(2) == Fraction(27, 4)

    def test_entropies(self):
        assert fc_entropy(1) == Fraction(-1, 2)
        assert fc_entropy(2) == Fraction(-5, 6)
        assert fc_entropy(3) == Fraction(-13, 12)

    def test_entropy_decreasing_and_matches_mp(self):
        values = [fc_entropy(s) for s in range(1, 6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert float(fc_entropy(1)) == mp_entropy(1)

    def test_s1_density_is_mp(self):
        assert fc_density(1).hi == 4.0

    def test_no_closed_form_above_two(self):
        with pytest.raises(ValueError):
            fc_density(3)


class TestFC2Density:
    def test_total_mass(self):
        assert fc2_density().total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_low_moments(self):
        d = fc2_density()
        assert d.moment(1) == pytest.approx(1.0, abs=1e-6)
        assert d.moment(2) == pytest.approx(3.0, abs=1e-6)
        assert d.moment(3) == pytest.approx(12.0, abs=1e-4)

    def test_entropy_matches_harmonic_sum(self):
        assert fc2_density().entropy() == pytest.approx(float(fc_entropy(2)), abs=1e-5)

    def test_divergence_exponent_at_origin(self):
        d = fc2_density()
        slope = (math.log(d(1e-6)) - math.log(d(1e-8))) / (math.log(1e-6) - math.log(1e-8))
        assert slope == pytest.approx(-2.0 / 3.0, abs=0.01)

    def test_support(self):
        d = fc2_density()
        assert d.hi == pytest.approx(27.0 / 4.0)
        assert d(7.0) == 0.0


class TestProducts:
    def test_pointwise_product(self):
        law = DistributionId(kind="classical_product",
                             factors=(_fc(2), DistributionId(kind="free_poisson", c=1)))
        assert _moments(law, 3) == [1, 6, 60]

    def test_entropy_constant_adds_factor_constants(self):
        # each factor's constant is that of its mean-1 law: for MP(2) that is
        # -int (x/2) ln(x/2) dMP(2) = -1/4, not mp_entropy(2)
        mp2 = DistributionId(kind="free_poisson", c=Fraction(2))
        law = DistributionId(kind="classical_product", factors=(mp2, _fc(2)))
        assert law.entropy_constant() == pytest.approx(-1 / 4 - 5 / 6, abs=1e-12)
        scaled = mp_density(2).integrate(lambda x: -(x / 2) * np.log(x / 2))
        assert mp2.entropy_constant() == pytest.approx(scaled, abs=1e-12)
        assert scaled == pytest.approx(-1 / 4, abs=1e-12)
        with_poset = DistributionId(kind="classical_product",
                                    factors=(mp2, _poset_law(exotic_poset())))
        assert with_poset.entropy_constant() is None

    def test_identity_factor(self):
        dirac = DistributionId(kind="dirac", rank_coeff=Fraction(1))
        law = DistributionId(kind="classical_product", factors=(_fc(3), dirac))
        assert _moments(law, 5) == _moments(_fc(3), 5)


class TestPosetLaws:
    def test_chain_reduces_to_fc(self):
        chain = ConstraintPoset.make_chain(2)
        assert _moments(_poset_law(chain), 4) == [1, 3, 12, 55]

    def test_disjoint_union_factorizes(self):
        two_chains = ConstraintPoset(
            k=5, relations=[(0, 1), (1, 2), (3, 4)])  # lengths 3 and 2
        left = ConstraintPoset.make_chain(3)
        right = ConstraintPoset.make_chain(2)
        product = DistributionId(kind="classical_product",
                                 factors=(_poset_law(left), _poset_law(right)))
        assert _moments(_poset_law(two_chains), 3) == _moments(product, 3)

    def test_exotic_values(self):
        assert _moments(_poset_law(exotic_poset()), 3) == [1, 5, 38]


class TestMomentSequenceSanity:
    @pytest.mark.parametrize("moments", [
        [1, 2, 5, 14],                 # MP(1)
        [1, 3, 12, 55],                # order-2
        [1, 5, 38, 353],               # exotic law
    ])
    def test_hankel_positive(self, moments):
        for size in (2, 3):
            h = hankel_matrix(moments, size)
            assert np.linalg.eigvalsh(h).min() > 0

    def test_positive_moments(self):
        assert all(m > 0 for m in _moments(_poset_law(exotic_poset()), 4))

    def test_window_guard(self):
        with pytest.raises(ValueError):
            hankel_matrix([1, 2], 3)
