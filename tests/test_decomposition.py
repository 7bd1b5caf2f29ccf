import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    DegenerateMeasureError,
    DimensionMismatchError,
    InvalidFunctionError,
    ProductMeasure,
    QaryFunction,
    TableSizeError,
    conditional_expectation,
    delta_i,
    dictator,
    efron_stein,
    expectation,
    hypercontractive_sigma,
    influence,
    influence_report,
    lp_norm,
    noise_operator,
    plurality,
    prob_value,
    talagrand_report,
    verify_hypercontractivity,
    verify_level_bound,
    verify_level_bounds,
)
from threshold_lab.decomposition import _noise, _subset_sizes, _weighted_norm

from oracles import (
    dense_component_store,
    enum_component,
    enum_delta,
    enum_influence,
    enum_lp_norm,
    outer_product_weights,
    random_binary_function,
    random_positive_measure,
    random_real_function,
)

UNIFORM2 = ProductMeasure.uniform(2)


def masks_of(n):
    return range(1 << n)


class TestEfronStein:
    def test_constant_function(self):
        f = QaryFunction.from_table(2, 2, [2.5] * 4, codomain="real")
        d = efron_stein(f, UNIFORM2)
        assert np.allclose(d.components[0], 2.5)
        for mask in range(1, 4):
            assert np.allclose(d.components[mask], 0.0)

    def test_dictator_components_by_hand(self):
        # f(x) = x0 on uniform {0,1}^2: mean 1/2, one centered coordinate part
        f = dictator(2, 2, 0).as_real()
        d = efron_stein(f, UNIFORM2)
        x0 = np.array([0.0, 0.0, 1.0, 1.0])
        assert np.allclose(d.components[0], 0.5)
        assert np.allclose(d.component([0]), x0 - 0.5)
        assert np.allclose(d.component([1]), 0.0)
        assert np.allclose(d.component([0, 1]), 0.0)

    def test_xor_components_by_hand(self, xor_indicator):
        d = efron_stein(xor_indicator, UNIFORM2)
        assert np.allclose(d.components[0], 0.5)
        assert np.allclose(d.component([0]), 0.0)
        assert np.allclose(d.component([1]), 0.0)
        assert np.allclose(d.component([0, 1]), xor_indicator.table - 0.5)

    @pytest.mark.parametrize("subset", [[-1], [0, -3]])
    def test_component_refuses_a_negative_coordinate(self, xor_indicator, subset):
        d = efron_stein(xor_indicator, UNIFORM2)
        with pytest.raises(DimensionMismatchError, match=f"subset element {min(subset)} is negative"):
            d.component(subset)

    def test_defining_properties_on_corpus(self, small_corpus):
        for f, _, mu in small_corpus[:30]:
            d = efron_stein(f, mu)
            comps = d.components  # stacked on each read
            # reconstruction
            assert np.allclose(d.reconstruction(), f.table, atol=1e-9)
            # each component depends only on its subset
            for mask in masks_of(f.n):
                comp = QaryFunction.from_table(f.q, f.n, comps[mask], codomain="real")
                coords = [i for i in range(f.n) if mask >> i & 1]
                proj = conditional_expectation(comp, mu, coords)
                assert np.allclose(proj.table, comp.table, atol=1e-9)
            # vanishing conditional means for S not within S'
            for mask in masks_of(f.n):
                for other in masks_of(f.n):
                    if mask & ~other == 0:
                        continue
                    comp = QaryFunction.from_table(
                        f.q, f.n, comps[mask], codomain="real"
                    )
                    coords = [i for i in range(f.n) if other >> i & 1]
                    proj = conditional_expectation(comp, mu, coords)
                    assert np.allclose(proj.table, 0.0, atol=1e-9)

    def test_orthogonality_and_parseval(self, small_corpus):
        for f, _, mu in small_corpus[:30]:
            d = efron_stein(f, mu)
            comps = d.components  # stacked on each read
            w = outer_product_weights(mu, f.n)
            norms = d.squared_norms()
            # the norm kernel against the component store
            assert np.allclose(norms, comps**2 @ w, rtol=0.0, atol=1e-9)
            for m1 in masks_of(f.n):
                for m2 in masks_of(f.n):
                    if m1 < m2:
                        inner = float(w @ (comps[m1] * comps[m2]))
                        assert abs(inner) < 1e-9
            mean = expectation(f, mu)
            variance = float(w @ (f.table - mean) ** 2)
            assert variance == pytest.approx(norms[1:].sum(), abs=1e-9)

    def test_rejects_zero_atoms(self):
        f = QaryFunction.from_table(2, 1, [0.0, 1.0], codomain="real")
        with pytest.raises(DegenerateMeasureError):
            efron_stein(f, ProductMeasure(2, [0.0, 1.0]))

    def test_norms_and_noise_past_the_store_cap(self):
        from threshold_lab import plurality
        # 2**16 * 2**16 entries would exceed the store cap; the kernels read 2**16
        f = plurality(2, 16).as_real()
        mu = ProductMeasure(2, [0.3, 0.7])
        d = efron_stein(f, mu)
        w = outer_product_weights(mu, f.n)
        mean = float(w @ f.table)
        norms = d.squared_norms()
        assert norms.shape == (1 << 16,)
        assert norms.sum() == pytest.approx(float(w @ f.table**2), abs=1e-9)
        assert norms[1:].sum() == pytest.approx(float(w @ (f.table - mean) ** 2), abs=1e-9)
        noisy = noise_operator(d, 0.5)
        assert noisy.table.shape == (1 << 16,)
        # the noise operator keeps the mean
        assert float(w @ noisy.table) == pytest.approx(mean, abs=1e-9)
        assert np.array_equal(d.delta(3), delta_i(f, mu, 3).table)
        with pytest.raises(TableSizeError):
            d.components
        # the 3**16 factors of the whole decomposition exceed the cap; one
        # component's own steps do not
        with pytest.raises(TableSizeError):
            d.reconstruction()
        assert np.allclose(d.component(0), mean, rtol=0.0, atol=1e-12)

    def test_one_component_past_the_store_cap(self):
        # 2**13 tables of 2**13 entries exceed the store cap; S = {0} is one table
        f = plurality(2, 13).as_real()
        mu = ProductMeasure(2, [0.3, 0.7])
        d = efron_stein(f, mu)
        with pytest.raises(TableSizeError):
            d.components
        # f_{0} = E[f | x_0] - E[f], from conditional expectation's dense table
        dense = conditional_expectation(f, mu, [0]).table - expectation(f, mu)
        assert np.allclose(d.component([0]), dense, rtol=0.0, atol=1e-12)
        assert np.allclose(d.reconstruction(), f.table, rtol=0.0, atol=1e-12)

    def test_components_are_stacked_on_each_read_and_not_kept(self):
        d = efron_stein(dictator(2, 2, 0).as_real(), UNIFORM2)
        store = d.components
        assert d.components is not store
        assert vars(d).keys() == {"f", "measure"}
        assert np.array_equal(d.component(0b01), store[0b01])
        assert not np.shares_memory(d.component(0b01), store)


class TestDeltaAndInfluence:
    def test_dictator_deltas(self):
        f = dictator(2, 2, 0).as_real()
        d0 = delta_i(f, UNIFORM2, 0)
        assert np.allclose(d0.table, np.array([0, 0, 1, 1]) - 0.5)
        d1 = delta_i(f, UNIFORM2, 1)
        assert np.allclose(d1.table, 0.0)

    def test_constant_delta_zero(self):
        f = QaryFunction.from_table(3, 2, [1.0] * 9, codomain="real")
        assert np.allclose(delta_i(f, ProductMeasure.uniform(3), 1).table, 0.0)

    def test_xor_delta_from_decomposition(self, xor_indicator):
        d = delta_i(xor_indicator, UNIFORM2, 0)
        assert np.allclose(d.table, xor_indicator.table - 0.5)

    def test_delta_equals_component_sum(self, small_corpus):
        for f, _, mu in small_corpus[:20]:
            d = efron_stein(f, mu)
            for i in range(f.n):
                # the difference kernel against the component store
                store_sum = (np.arange(2**f.n) >> i & 1) @ d.components
                assert np.allclose(delta_i(f, mu, i).table, store_sum, atol=1e-9)
                assert np.allclose(d.delta(i), store_sum, atol=1e-9)

    def test_decomposition_delta_rejects_bad_coordinates(self):
        d = efron_stein(dictator(2, 2, 0).as_real(), UNIFORM2)
        for i in (-1, 2):
            with pytest.raises(DimensionMismatchError):
                d.delta(i)

    def test_dictator_influences(self):
        f = dictator(2, 2, 0).as_real()
        assert influence(f, UNIFORM2, 0) == pytest.approx(0.25, abs=1e-12)
        assert influence(f, UNIFORM2, 1) == pytest.approx(0.0, abs=1e-12)

    def test_majority_influences(self, majority3):
        ind = majority3.indicator(0)
        for i in range(3):
            assert influence(ind, UNIFORM2, i) == pytest.approx(0.125, abs=1e-12)
            assert enum_influence(ind, UNIFORM2, i) == pytest.approx(0.125, abs=1e-12)

    def test_influence_identities_on_corpus(self, small_corpus):
        for f, fb, mu in small_corpus[:30]:
            for i in range(f.n):
                # two independent routes: conditional variance vs squared L2 of delta
                value = influence(f, mu, i)
                l2 = lp_norm(delta_i(f, mu, i), mu, 2.0)
                assert value == pytest.approx(l2 * l2, abs=1e-9)
                # binary lemma: L1 norm of delta is twice the influence
                bin_value = influence(fb, mu, i)
                l1 = lp_norm(delta_i(fb, mu, i), mu, 1.0)
                assert l1 == pytest.approx(2.0 * bin_value, abs=1e-9)

    def test_influence_matches_enumeration(self, rng):
        for _ in range(10):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            f = random_real_function(q, n, rng)
            mu = random_positive_measure(q, rng)
            for i in range(n):
                assert influence(f, mu, i) == pytest.approx(
                    enum_influence(f, mu, i), abs=1e-10
                )

    def test_report_fields(self, majority3):
        rep = influence_report(majority3.indicator(0), UNIFORM2)
        assert rep.total == pytest.approx(0.375, abs=1e-12)
        assert len(rep.influences) == 3
        assert rep.as_dict()["delta_l2"][0] == pytest.approx(math.sqrt(0.125), abs=1e-12)


    def test_reports_equal_per_coordinate_norms(self, rng):
        # the reports build the weights once; each value must be exactly the
        # one that influence and lp_norm give coordinate by coordinate
        f = random_real_function(3, 4, rng)
        mu = random_positive_measure(3, rng)
        rep = influence_report(f, mu)
        for i in range(f.n):
            d = delta_i(f, mu, i)
            assert rep.influences[i] == influence(f, mu, i)
            assert rep.delta_l1[i] == lp_norm(d, mu, 1.0)
            assert rep.delta_l32[i] == lp_norm(d, mu, 1.5)
            assert rep.delta_l2[i] == lp_norm(d, mu, 2.0)
        tal = talagrand_report(f, mu)
        centered = QaryFunction.from_table(3, 4, f.table - expectation(f, mu), codomain="real")
        assert tal.variance == lp_norm(centered, mu, 2.0) ** 2
        for term in tal.terms:
            d = delta_i(f, mu, term.coord)
            assert (term.l1, term.l2) == (lp_norm(d, mu, 1.0), lp_norm(d, mu, 2.0))


class TestLpNorm:
    def test_plus_minus_one(self):
        g = QaryFunction.from_table(2, 1, [-1.0, 1.0], codomain="real")
        for p in (1.0, 1.5, 2.0, 7.0):
            assert lp_norm(g, UNIFORM2, p) == pytest.approx(1.0)

    def test_centered_dictator(self):
        g = QaryFunction.from_table(2, 1, [-0.5, 0.5], codomain="real")
        assert lp_norm(g, UNIFORM2, 1.0) == pytest.approx(0.5)
        assert lp_norm(g, UNIFORM2, 2.0) == pytest.approx(0.5)

    def test_cauchy_schwarz_step_on_majority_delta(self, majority3):
        d = delta_i(majority3.indicator(0), UNIFORM2, 0)
        l1 = lp_norm(d, UNIFORM2, 1.0)
        l32 = lp_norm(d, UNIFORM2, 1.5)
        l2 = lp_norm(d, UNIFORM2, 2.0)
        assert l32**3 <= l1 * l2**2 + 1e-9

    def test_matches_enumeration(self, rng):
        f = random_real_function(3, 2, rng)
        mu = random_positive_measure(3, rng)
        for p in (1.0, 1.5, 2.0):
            assert lp_norm(f, mu, p) == pytest.approx(enum_lp_norm(f, mu, p), abs=1e-10)

    def test_rejects_p_below_one(self):
        g = QaryFunction.from_table(2, 1, [0.0, 1.0], codomain="real")
        with pytest.raises(DimensionMismatchError):
            lp_norm(g, UNIFORM2, 0.5)

    def test_indicator_l1_is_the_table_probability(self):
        # the L1 norm contracts the indicator, prob_value reads the composition
        # histogram: each is checked against the exact sum
        f = plurality(2, 20).tabulate()
        for p in (0.3, 0.45, 0.5, 0.55, 0.7):
            mu = ProductMeasure(2, [1.0 - p, p])
            p0, p1 = (Fraction(float(x)) for x in mu.atoms)
            # more ones than zeros, or a 10-10 tie with a one at coordinate 0
            ones = sum(math.comb(20, k) * p1**k * p0 ** (20 - k) for k in range(11, 21))
            ones += math.comb(19, 9) * p1**10 * p0**10
            for a, want in ((0, (p0 + p1) ** 20 - ones), (1, ones)):
                assert abs(lp_norm(f.indicator(a), mu, 1.0) - float(want)) <= 2e-15
                assert abs(prob_value(f, mu, a) - float(want)) <= 2e-15


@pytest.mark.parametrize(
    "compute, tables",
    [(lambda g, mu: lp_norm(g, mu, 1.5), 2), (verify_hypercontractivity, 3)],
    ids=["lp_norm", "verify_hypercontractivity"],
)
def test_peak_memory_builds_no_weight_table(compute, tables):
    # |g|**p (and the check's noised table) plus the contraction's partial sums,
    # which take half a table
    g = plurality(2, 18).indicator(1)
    mu = ProductMeasure(2, [0.45, 0.55])
    tracemalloc.start()
    try:
        compute(g, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= tables * g.table.nbytes


class TestNoiseOperator:
    def test_identity_at_one(self, majority3):
        ind = majority3.indicator(0)
        d = efron_stein(ind, UNIFORM2)
        assert np.allclose(noise_operator(d, 1.0).table, ind.table, atol=1e-12)

    def test_collapse_at_zero(self, majority3):
        ind = majority3.indicator(0)
        d = efron_stein(ind, UNIFORM2)
        assert np.allclose(noise_operator(d, 0.0).table, 0.5, atol=1e-12)

    def test_dictator_halfway(self):
        f = dictator(2, 1, 0).as_real()
        d = efron_stein(f, UNIFORM2)
        out = noise_operator(d, 0.5)
        expected = 0.5 + 0.5 * (np.array([0.0, 1.0]) - 0.5)
        assert np.allclose(out.table, expected)

    def test_equals_attenuated_component_sum(self, small_corpus):
        # the noise kernel against the component store
        for f, _, mu in small_corpus[:30]:
            d = efron_stein(f, mu)
            for theta in (0.0, 0.3, 1.0):
                store_sum = (theta ** _subset_sizes(f.n)) @ d.components
                assert np.allclose(noise_operator(d, theta).table, store_sum, rtol=0.0, atol=1e-9)

    def test_rejects_out_of_range(self, majority3):
        d = efron_stein(majority3.indicator(0), UNIFORM2)
        with pytest.raises(DimensionMismatchError):
            noise_operator(d, 1.5)
        with pytest.raises(DimensionMismatchError):
            noise_operator(d, -0.1)


class TestHypercontractiveSigma:
    def test_half_gives_one_twenty_fourth(self):
        assert hypercontractive_sigma(0.5) == pytest.approx(1 / 24)
        # exact mode falls back at the removable singularity
        assert hypercontractive_sigma(0.5, exact=True) == pytest.approx(1 / 24)

    def test_quarter(self):
        assert hypercontractive_sigma(0.25) == pytest.approx(1 / 96)
        exact = hypercontractive_sigma(0.25, exact=True)
        assert exact >= 1 / 96
        # direct evaluation of the two-point expression
        num = 0.75 ** (2 / 3) - 0.25 ** (2 / 3)
        den = 0.75 * 0.25 ** (-1 / 3) - 0.25 * 0.75 ** (-1 / 3)
        assert exact == pytest.approx(math.sqrt(num / den), rel=1e-12)

    def test_vanishes_at_zero(self):
        assert hypercontractive_sigma(1e-9) == pytest.approx(0.0, abs=1e-17)

    def test_exact_dominates_fallback_on_grid(self):
        for alpha in np.linspace(0.01, 0.499, 50):
            assert hypercontractive_sigma(alpha, exact=True) >= alpha**2 / 6

    def test_domain(self):
        with pytest.raises(DegenerateMeasureError):
            hypercontractive_sigma(0.0)
        with pytest.raises(DegenerateMeasureError):
            hypercontractive_sigma(0.6)

    def test_exact_mode_still_contracts(self, rng):
        # the sharper rate must itself satisfy the norm inequality
        for _ in range(100):
            q = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            g = random_real_function(q, n, rng)
            mu = random_positive_measure(q, rng)
            sigma = hypercontractive_sigma(mu.min_atom(), exact=True)
            d = efron_stein(g, mu)
            lhs = lp_norm(noise_operator(d, sigma), mu, 2.0)
            assert lhs <= lp_norm(g, mu, 1.5) + 1e-9


class TestVerifyHypercontractivity:
    def test_centered_dictator_n1(self):
        g = QaryFunction.from_table(2, 1, [-1.0, 1.0], codomain="real")
        rep = verify_hypercontractivity(g, UNIFORM2)
        assert rep.sigma == pytest.approx(1 / 24)
        assert rep.lhs == pytest.approx(1 / 24)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.ok

    def test_constant(self):
        g = QaryFunction.from_table(2, 2, [1.5] * 4, codomain="real")
        rep = verify_hypercontractivity(g, UNIFORM2)
        assert rep.lhs == pytest.approx(1.5)
        assert rep.rhs == pytest.approx(1.5)
        assert rep.ok

    def test_holds_on_random_sample(self, rng):
        for _ in range(100):
            q = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            g = random_real_function(q, n, rng)
            mu = random_positive_measure(q, rng)
            assert verify_hypercontractivity(g, mu).ok

    def test_lhs_is_the_l2_norm_of_the_noised_table(self, rng):
        for _ in range(200):
            q = int(rng.integers(2, 5))
            g = random_real_function(q, int(rng.integers(1, {2: 11, 3: 7, 4: 6}[q])), rng)
            mu = random_positive_measure(q, rng)
            rep = verify_hypercontractivity(g, mu)
            assert rep.lhs == _weighted_norm(_noise(g, mu, rep.sigma), mu.atoms, 2.0)

    def test_squares_the_noised_table_in_place(self, rng):
        # the noised table and, while _noise averages one axis at q = 2, two half
        # tables; no |.| copy of the noised table beside them
        g = random_real_function(2, 18, rng)
        tracemalloc.start()
        try:
            verify_hypercontractivity(g, ProductMeasure(2, [0.3, 0.7]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.125 * g.table.nbytes


class TestVerifyLevelBound:
    def test_centered_dictator_level_one(self):
        g = QaryFunction.from_table(2, 1, [-0.5, 0.5], codomain="real")
        rep = verify_level_bound(g, UNIFORM2, 1)
        assert rep.lhs == pytest.approx(0.25, abs=1e-12)
        assert rep.rhs == pytest.approx(6.0, abs=1e-12)
        assert rep.ok

    def test_empty_level_mass(self):
        # a one-coordinate function has no level-2 mass
        g = QaryFunction.from_table(
            2, 2, np.array([-0.5, -0.5, 0.5, 0.5]), codomain="real"
        )
        rep = verify_level_bound(g, UNIFORM2, 2)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.ok

    def test_rejects_nonzero_mean(self):
        g = QaryFunction.from_table(2, 1, [0.0, 1.0], codomain="real")
        with pytest.raises(InvalidFunctionError):
            verify_level_bound(g, UNIFORM2, 1)

    def test_holds_on_centered_corpus(self, small_corpus):
        for f, _, mu in small_corpus[:40]:
            mean = float(outer_product_weights(mu, f.n) @ f.table)
            g = QaryFunction.from_table(f.q, f.n, f.table - mean, codomain="real")
            for k in range(1, f.n + 1):
                assert verify_level_bound(g, mu, k).ok

    def test_all_levels_are_each_level_bitwise(self, small_corpus):
        for f, _, mu in small_corpus[:40]:
            mean = float(outer_product_weights(mu, f.n) @ f.table)
            g = QaryFunction.from_table(f.q, f.n, f.table - mean, codomain="real")
            each = [verify_level_bound(g, mu, k) for k in range(1, f.n + 1)]
            assert verify_level_bounds(g, mu) == each
        g = QaryFunction.from_table(2, 1, [0.0, 1.0], codomain="real")
        with pytest.raises(InvalidFunctionError):
            verify_level_bounds(g, UNIFORM2)


class TestTalagrandReport:
    def test_dictator_degenerate_term(self):
        rep = talagrand_report(dictator(2, 2, 0).as_real(), UNIFORM2)
        assert rep.variance == pytest.approx(0.25, abs=1e-12)
        # the only active coordinate has equal L1 and L2 norms
        assert len(rep.terms) == 1
        assert rep.terms[0].degenerate
        assert rep.rhs_no_constant is None
        assert rep.empirical_c is None

    def test_majority(self, majority3):
        rep = talagrand_report(majority3.indicator(0), UNIFORM2)
        assert rep.variance == pytest.approx(0.25, abs=1e-12)
        assert not rep.constant_function
        assert rep.empirical_c is not None and rep.empirical_c > 0
        # hand computation: each delta is +-1/2 on half the space
        term = rep.terms[0]
        assert term.l2 == pytest.approx(math.sqrt(0.125), abs=1e-12)
        assert term.l1 == pytest.approx(0.25, abs=1e-12)
        assert rep.empirical_c == pytest.approx(
            0.25 / (math.log(2) * 3 * (0.125 / math.log(math.sqrt(2)))), rel=1e-9
        )

    def test_constant_function_degenerate_report(self):
        f = QaryFunction.from_table(2, 2, [1.0] * 4, codomain="real")
        rep = talagrand_report(f, UNIFORM2)
        assert rep.constant_function
        assert rep.variance == pytest.approx(0.0, abs=1e-15)


@st.composite
def tables_and_measures(draw):
    """A random real table with q in {2, 3}, n <= 3, and atoms of at least 1e-3."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(-10, 10), min_size=q**n, max_size=q**n))
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=q, max_size=q)))
    shares = weights / weights.sum() if weights.sum() > 0 else np.full(q, 1.0 / q)
    floor = 1e-3
    measure = ProductMeasure(q, floor + (1.0 - q * floor) * shares)
    return QaryFunction.from_table(q, n, values, codomain="real"), measure


class TestAgainstEnumeration:
    @settings(max_examples=40)
    @given(tables_and_measures())
    def test_components_deltas_and_influences(self, case):
        f, mu = case
        pts = list(itertools.product(range(f.q), repeat=f.n))
        comps = efron_stein(f, mu).components
        for mask in masks_of(f.n):
            expected = [enum_component(f, mu, mask, x) for x in pts]
            assert np.allclose(comps[mask], expected, rtol=0.0, atol=1e-9)
        for i in range(f.n):
            expected = [enum_delta(f, mu, i, x) for x in pts]
            assert np.allclose(delta_i(f, mu, i).table, expected, rtol=0.0, atol=1e-9)
            assert influence(f, mu, i) == pytest.approx(enum_influence(f, mu, i), abs=1e-9)


@st.composite
def factor_cases(draw):
    """A real table with q in 2..5 and n <= 6 (at most 625 entries) whose
    entries include signed zeros, and a Dirichlet measure."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(1, {2: 6, 3: 5, 4: 4, 5: 4}[q]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.standard_normal(q**n)
    table[rng.random(q**n) < 0.2] = -0.0
    table[rng.random(q**n) < 0.1] = 0.0
    atoms = rng.dirichlet(np.full(q, draw(st.sampled_from([0.5, 1.0, 5.0]))))
    atoms = np.maximum(atoms, 1e-6)
    atoms /= atoms.sum()
    return QaryFunction.from_table(q, n, table, codomain="real"), ProductMeasure(q, atoms)


@settings(max_examples=60)
@given(factor_cases())
def test_factors_are_the_dense_store_bit_for_bit(case):
    f, mu = case
    q, n = f.q, f.n
    store = dense_component_store(f.table, mu.atoms, q, n)
    d = efron_stein(f, mu)
    factors = d.factors()
    assert len(factors) == 1 << n
    for mask, factor in enumerate(factors):
        assert factor.shape == tuple(q if mask >> i & 1 else 1 for i in range(n))
        dense = np.broadcast_to(factor, (q,) * n).ravel()
        # int64 views compare the bits, so -0.0 differs from 0.0 and NaN equals itself
        assert np.array_equal(dense.view(np.int64), store[mask].view(np.int64))
        assert np.array_equal(d.component(mask).view(np.int64), store[mask].view(np.int64))
    assert np.array_equal(d.components.view(np.int64), store.view(np.int64))
    assert np.array_equal(d.reconstruction().view(np.int64), store.sum(axis=0).view(np.int64))
