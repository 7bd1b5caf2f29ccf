import dataclasses
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
    MeasurePath,
    ProductMeasure,
    QaryFunction,
    SimplexSampler,
    TableSizeError,
    conditional_expectation,
    expectation,
    permute_input_symbols,
    prob_value,
)
from threshold_lab import core
from threshold_lab.core import (
    Oracle,
    _axis_mean,
    _axis_view,
    _relabel_symbols,
    _table_index,
    all_points,
    index_of,
    table_size,
)
from threshold_lab.decomposition import _delta, _noise, delta_i, efron_stein, noise_operator

from oracles import (
    enum_expectation,
    enum_histogram,
    enum_prob,
    ix_relabel,
    points,
    random_positive_measure,
    random_real_function,
)


class TestProductMeasure:
    @pytest.mark.parametrize("q", [0, -2])
    def test_uniform_refuses_an_empty_alphabet(self, q):
        with pytest.raises(DimensionMismatchError, match="alphabet size must be >= 1"):
            ProductMeasure.uniform(q)

    def test_atoms_validated(self):
        with pytest.raises(DegenerateMeasureError):
            ProductMeasure(2, [0.5, 0.6])
        with pytest.raises(DegenerateMeasureError):
            ProductMeasure(2, [-0.1, 1.1])
        with pytest.raises(DimensionMismatchError):
            ProductMeasure(3, [0.5, 0.5])

    @pytest.mark.parametrize("atoms", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [np.nan, np.nan]])
    def test_non_finite_atoms_refused(self, atoms):
        with pytest.raises(DegenerateMeasureError, match="finite"):
            ProductMeasure(2, atoms)

    @pytest.mark.parametrize(
        "q, atoms, error, message",
        [
            (0, [], DimensionMismatchError, "alphabet size must be >= 1"),
            (3, [0.5, 0.5], DimensionMismatchError, "expected 3 atoms, got shape (2,)"),
            (2, [[0.5, 0.5]], DimensionMismatchError, "expected 2 atoms, got shape (1, 2)"),
            (2, [-0.25, 1.25], DegenerateMeasureError, "atoms must be nonnegative"),
            (3, [0.5, np.nan, 0.5], DegenerateMeasureError,
             "atoms must be finite, got [0.5, nan, 0.5]"),
            (2, [np.inf, 0.5], DegenerateMeasureError, "atoms must be finite, got [inf, 0.5]"),
            (2, [0.5, -np.inf], DegenerateMeasureError, "atoms must be nonnegative"),
            (2, [0.5, 0.5 + 1e-11], DegenerateMeasureError,
             "atoms must sum to 1 within 1e-12, got np.float64(1.00000000001)"),
            (3, [0.2, 0.3, 0.5 - 1e-11], DegenerateMeasureError,
             "atoms must sum to 1 within 1e-12, got np.float64(0.99999999999)"),
        ],
        ids=["q0", "short", "2d", "negative", "nan", "inf", "-inf", "sum-high", "sum-low"],
    )
    def test_refusals_keep_their_type_and_message(self, q, atoms, error, message):
        with pytest.raises(error) as raised:
            ProductMeasure(q, atoms)
        assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("atoms", [[0.25, 0.75], np.array([0.25, 0.75])])
    def test_atoms_are_a_read_only_copy(self, atoms):
        mu = ProductMeasure(2, atoms)
        assert not mu.atoms.flags.writeable and mu.atoms.dtype == float
        assert not np.shares_memory(mu.atoms, np.asarray(atoms))
        atoms[0] = 0.5
        assert mu.atoms.tolist() == [0.25, 0.75]

    def test_degenerate_flagged_but_accepted(self):
        mu = ProductMeasure(3, [0.0, 0.5, 0.5])
        assert mu.degenerate
        assert mu.min_atom() == 0.0
        with pytest.raises(DegenerateMeasureError):
            mu.require_positive()

    def test_condition_off(self):
        mu = ProductMeasure(3, [0.5, 0.2, 0.3])
        off = mu.condition_off(0)
        assert off.atoms[0] == 0.0
        assert np.allclose(off.atoms, [0.0, 0.4, 0.6])


class TestFromTable:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64, bool])
    @pytest.mark.parametrize("codomain", ["alphabet", "real"])
    def test_array_loads_as_its_list(self, rng, dtype, codomain):
        values = rng.integers(0, 2, size=8).astype(dtype)
        if codomain == "real" and dtype == np.float64:
            values = rng.standard_normal(8)
        from_array = QaryFunction.from_table(2, 3, values, codomain=codomain)
        from_list = QaryFunction.from_table(2, 3, list(values), codomain=codomain)
        assert from_array.table.dtype == from_list.table.dtype
        assert from_array.table.tobytes() == from_list.table.tobytes()
        # the function owns a copy: the caller's array stays writable and apart
        values[0] = 1
        assert values.flags.writeable and not np.shares_memory(values, from_array.table)

    def test_generator_loads(self):
        f = QaryFunction.from_table(2, 2, (x % 2 for x in range(4)))
        assert f.table.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("codomain", ["alphabet", "real"])
    def test_non_finite_values_refused(self, bad, codomain):
        with pytest.raises(InvalidFunctionError, match="finite"):
            QaryFunction.from_table(2, 2, [0.0, bad, 1.0, 1.0], codomain=codomain)

    def test_fractional_alphabet_values_refused(self):
        with pytest.raises(InvalidFunctionError, match="integers"):
            QaryFunction.from_table(2, 2, [0, 0.9, 1.5, 1])
        # integral floats are symbols
        assert QaryFunction.from_table(2, 2, [0.0, 1.0, 1.0, 0.0]).table.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize(
    "values, codomain, binary",
    [([0, 1, 1, 0], "alphabet", True), ([1, 1, 1, 1], "alphabet", True),
     ([0, 2, 1, 0], "alphabet", False), ([0.0, 1.0, 1.0, 0.0], "real", True),
     ([0.0, 0.5, 1.0, 0.0], "real", False), ([-1.0, 0.0, 1.0, 0.0], "real", False)],
)
def test_is_binary(values, codomain, binary):
    out_q = 3 if codomain == "alphabet" else None
    f = QaryFunction.from_table(2, 2, values, codomain=codomain, out_q=out_q)
    assert f.is_binary() is binary


class TestOutQ:
    def test_alphabet_defaults_to_q(self):
        table = np.array([0, 1, 2])
        assert QaryFunction.from_table(3, 1, table).out_q == 3
        built = QaryFunction(q=3, n=1, codomain="alphabet", out_q=None, table=table)
        assert built.out_q == 3
        assert dataclasses.replace(built, out_q=None).out_q == 3

    def test_real_codomain_refuses_out_q(self):
        with pytest.raises(InvalidFunctionError, match="real codomain takes no out_q"):
            QaryFunction.from_table(2, 1, [0.5, 1.5], codomain="real", out_q=7)
        assert QaryFunction.from_table(2, 1, [0.5, 1.5], codomain="real").out_q is None


class TestTableIndexing:
    def test_index_order_first_coordinate_most_significant(self):
        # index(x) = sum x_j q^(n-1-j)
        assert index_of((1, 0), 2) == 2
        assert index_of((0, 1), 2) == 1
        assert index_of((2, 1, 0), 3) == 2 * 9 + 1 * 3

    def test_all_points_round_trip(self):
        pts = all_points(3, 2)
        assert [index_of(p, 3) for p in pts] == list(range(9))

    def test_table_length_enforced(self):
        with pytest.raises(InvalidFunctionError):
            QaryFunction.from_table(2, 2, [0, 1, 0])

    def test_size_cap(self):
        with pytest.raises(TableSizeError):
            all_points(2, 25)

    def test_size_error_shows_a_short_size_in_full(self):
        with pytest.raises(TableSizeError, match=r"2\*\*30 = 1073741824 exceeds"):
            table_size(2, 30)

    def test_size_error_shows_a_long_size_by_its_magnitude(self):
        with pytest.raises(TableSizeError) as err:
            table_size(3, 729)  # 348 digits
        assert "3**729 ~ 10**347.8 exceeds" in str(err.value)
        assert len(str(err.value)) < 100

    def test_table_batch_rejects_out_of_range_points(self):
        f = QaryFunction.from_table(2, 2, [0, 1, 1, 0])
        for point in ([0, 2], [0, -1]):
            with pytest.raises(DimensionMismatchError):
                f.batch(np.array([point]))
            with pytest.raises(DimensionMismatchError):
                f(point)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64, np.uint64])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("block_digits", [core._ENCODE_DIGITS, 40])
    def test_table_batch_encodes_like_ravel_multi_index(
        self, dtype, order, block_digits, rng, monkeypatch
    ):
        # 40 digits puts 300 rows in many blocks, the last one short
        monkeypatch.setattr(core, "_ENCODE_DIGITS", block_digits)
        for q, n in ((2, 1), (2, 9), (3, 6), (5, 4), (300, 2)):
            f = QaryFunction.from_table(q, n, rng.integers(0, q, size=q**n))
            X = np.asarray(rng.integers(0, q, size=(300, n)), dtype=dtype, order=order)
            want = f.table[np.ravel_multi_index(tuple(X.T.astype(np.int64)), (q,) * n)]
            assert np.array_equal(f.batch(X), want)
            assert f.batch(X[:0]).shape == (0,)


class TestExpectation:
    def test_constant(self):
        f = QaryFunction.from_table(2, 2, [3.0] * 4, codomain="real")
        for atoms in ([0.5, 0.5], [0.2, 0.8]):
            assert expectation(f, ProductMeasure(2, atoms)) == pytest.approx(3.0)

    def test_dictator_expectation_is_second_atom(self):
        f = QaryFunction.from_table(2, 1, [0.0, 1.0], codomain="real")
        assert expectation(f, ProductMeasure(2, [0.3, 0.7])) == pytest.approx(0.7)

    def test_majority_indicator_value(self, majority3):
        ind = majority3.indicator(0)
        mu = ProductMeasure(2, [0.6, 0.4])
        # enumerate all 8 outcomes: 0.6^3 + 3 * 0.6^2 * 0.4
        assert expectation(ind, mu) == pytest.approx(0.648, abs=1e-12)
        assert enum_expectation(ind, mu) == pytest.approx(0.648, abs=1e-12)

    def test_matches_enumeration_on_random_instances(self, rng):
        for _ in range(20):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            f = random_real_function(q, n, rng)
            mu = random_positive_measure(q, rng)
            assert expectation(f, mu) == pytest.approx(enum_expectation(f, mu), abs=1e-10)

    @settings(max_examples=30)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 2**31))
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        t1, t2 = rng.standard_normal(8), rng.standard_normal(8)
        mu = random_positive_measure(2, rng)
        f = QaryFunction.from_table(2, 3, t1, codomain="real")
        g = QaryFunction.from_table(2, 3, t2, codomain="real")
        combo = QaryFunction.from_table(2, 3, alpha * t1 + beta * t2, codomain="real")
        assert expectation(combo, mu) == pytest.approx(
            alpha * expectation(f, mu) + beta * expectation(g, mu), abs=1e-10
        )

    def test_accurate_at_two_to_the_twenty(self):
        from threshold_lab import plurality

        f = plurality(2, 20).tabulate()
        g = f.indicator(1)
        for p in (0.3, 0.45, 0.5, 0.55, 0.7):
            mu = ProductMeasure(2, [1.0 - p, p])
            p0, p1 = (Fraction(float(x)) for x in mu.atoms)
            # P[plurality = 1], as in TestProbValue's test at this size
            want = sum(math.comb(20, k) * p1**k * p0 ** (20 - k) for k in range(11, 21))
            want += math.comb(19, 9) * p1**10 * p0**10
            # the indicator's mean by contraction, P[f = 1] by composition histogram
            assert abs(expectation(g, mu) - float(want)) <= 2e-15
            assert abs(prob_value(f, mu, 1) - float(want)) <= 2e-15

    def test_real_table_against_a_fraction_sum(self, rng):
        q, n = 3, 8
        f = QaryFunction.from_table(q, n, rng.random(q**n), codomain="real")
        mu = random_positive_measure(q, rng)
        atoms = [Fraction(float(x)) for x in mu.atoms]
        want = sum(
            Fraction(float(v)) * math.prod(atoms[d] for d in x)
            for v, x in zip(f.table, points(q, n))
        )
        assert abs(expectation(f, mu) - float(want)) <= 2e-15


class TestProbValue:
    def test_constant_function(self):
        f = QaryFunction.from_table(3, 2, [1] * 9)
        assert prob_value(f, ProductMeasure.uniform(3), 1) == pytest.approx(1.0)

    def test_dictator(self):
        f = QaryFunction.from_table(2, 1, [0, 1])
        assert prob_value(f, ProductMeasure(2, [0.3, 0.7]), 0) == pytest.approx(0.3)

    def test_plurality_uniform_is_fair_split(self):
        from threshold_lab import plurality

        f = plurality(3, 3).tabulate()
        mu = ProductMeasure.uniform(3)
        for a in range(3):
            assert prob_value(f, mu, a) == pytest.approx(1 / 3, abs=1e-10)
            assert enum_prob(f, mu, a) == pytest.approx(1 / 3, abs=1e-10)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            f = QaryFunction.from_table(q, n, rng.integers(0, q, size=q**n))
            mu = random_positive_measure(q, rng)
            total = sum(prob_value(f, mu, a) for a in range(q))
            assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=60)
    @given(
        st.integers(2, 4), st.integers(0, 7), st.integers(0, 2**32 - 1), st.booleans(),
        st.booleans(),
    )
    def test_contraction_matches_enumeration(self, q, k, seed, zero_atom, real):
        # a bool or real table over [q]**k; at k = 0 it has one entry
        rng = np.random.default_rng(seed)
        atoms = rng.dirichlet(np.ones(q))
        if zero_atom:
            atoms[rng.integers(q)] = 0.0
            atoms /= atoms.sum()
        table = rng.uniform(-1.0, 1.0, size=q**k) if real else rng.integers(0, 2, q**k) == 1
        want = math.fsum(
            float(table[index_of(x, q)]) * math.prod(atoms[v] for v in x) for x in points(q, k)
        )
        got = core._table_mean(table, atoms)
        assert abs(got - want) <= 1e-14
        if k:
            mu = ProductMeasure(q, atoms)
            f = QaryFunction.from_table(q, k, table, codomain="real" if real else "alphabet")
            if real:
                assert expectation(f, mu) == got
            else:  # P[f = 1] comes from the composition histogram, not the contraction
                assert abs(prob_value(f, mu, 1) - want) <= 1e-14
            # a [q]-valued table, every symbol against the enumeration
            f = QaryFunction.from_table(q, k, rng.integers(0, q, q**k))
            a = int(rng.integers(q))
            assert abs(prob_value(f, mu, a) - enum_prob(f, mu, a)) <= 1e-14

    def test_accurate_at_two_to_the_twenty(self):
        from threshold_lab import plurality

        f = plurality(2, 20).tabulate()
        for p in (0.3, 0.45, 0.5, 0.55, 0.7):
            mu = ProductMeasure(2, [1.0 - p, p])
            p0, p1 = (Fraction(float(x)) for x in mu.atoms)
            # more ones than zeros, or a 10-10 tie with a one at coordinate 0,
            # which first_occurrence hands the tie
            want = sum(math.comb(20, k) * p1**k * p0 ** (20 - k) for k in range(11, 21))
            want += math.comb(19, 9) * p1**10 * p0**10
            assert abs(prob_value(f, mu, 1) - float(want)) <= 2e-15

    def test_symbol_out_of_range(self):
        f = QaryFunction.from_table(2, 1, [0, 1])
        with pytest.raises(DimensionMismatchError):
            prob_value(f, ProductMeasure.uniform(2), 5)

    def test_measure_mismatch(self):
        f = QaryFunction.from_table(2, 1, [0, 1])
        with pytest.raises(DimensionMismatchError):
            prob_value(f, ProductMeasure.uniform(3), 0)


def _histogram_measures(q):
    """Atoms on ``[q]`` with zero atoms and point masses among them."""
    weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=q, max_size=q)
    return weights.filter(lambda w: sum(w) > 0).map(lambda w: np.array(w) / sum(w))


class TestHistogram:
    """``P[f = a]`` of a table from its composition histogram ``h_a``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    def test_matches_the_contraction(self, q, n, seed, data):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, q, q**n)
        rows = data.draw(st.lists(_histogram_measures(q), min_size=1, max_size=4))
        point_mass = np.eye(q)[rng.integers(q)]
        atoms = np.array(rows + [point_mass])
        for a in range(q):
            law = core._Histogram(table == a, q, n)
            want = [core._table_mean(table == a, row) for row in atoms]
            assert np.abs(law(atoms) - want).max() <= 4e-15

    @pytest.mark.parametrize("q, n", [(2, 9), (3, 6), (4, 4), (5, 3), (3, 1)])
    def test_counts_are_the_hits_per_composition(self, rng, q, n):
        table = rng.integers(0, q, q**n)
        for a in range(q):
            law = core._Histogram(table == a, q, n)
            got = {tuple(s): int(c) for s, c in zip(law.symbols.tolist(), law.counts)}
            assert got == enum_histogram(table, q, n, a)
            assert int(law.counts.sum()) == int((table == a).sum())

    @pytest.mark.parametrize(
        "atoms",
        [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5], [0.0, 0.75, 0.25], [0.2, 0.3, 0.5],
         [0.0, 0.4, 0.6], [1 / 3, 1 / 3, 1 / 3]],
    )
    def test_rational_measure_against_fractions(self, atoms):
        # dyadic atoms make every power, product and partial sum exact; other
        # rationals are read as their float's exact value and may end 1 ulp away
        from threshold_lab import plurality

        q, n = 3, 7
        table = plurality(q, n).tabulate().table
        exact = [Fraction(x) for x in atoms]
        dyadic = all(x.denominator <= 8 for x in exact)
        for a in range(q):
            want = sum(
                math.prod(exact[v] for v in x)
                for x, value in zip(itertools.product(range(q), repeat=n), table)
                if value == a
            )
            got = core._Histogram(table == a, q, n)(np.array([atoms]))[0]
            assert abs(Fraction(got) - want) <= (1e-16 if dyadic else 2 * math.ulp(got))

    @pytest.mark.parametrize("q, n", [(32, 4), (1024, 2)])
    def test_large_alphabets(self, rng, q, n):
        # mixed-radix codes of q counts in base n + 1 overflow int64 here
        table = rng.integers(0, q, q**n)
        atoms = np.vstack([rng.dirichlet(np.ones(q), size=3), np.eye(q)[:1]])
        atoms[0, rng.integers(q)] = 0.0
        atoms[0] /= atoms[0].sum()
        sorted_points = np.sort(all_points(q, n), axis=1)
        for a in (0, q - 1):
            law = core._Histogram(table == a, q, n)
            assert law.symbols.shape == (len(law.counts), n)
            want, counts = np.unique(sorted_points[table == a], axis=0, return_counts=True)
            order = np.lexsort(law.symbols.T[::-1])
            assert np.array_equal(law.symbols[order], want)
            assert np.array_equal(law.counts[order], counts)
            want = [core._table_mean(table == a, row) for row in atoms]
            assert np.abs(law(atoms) - want).max() <= 4e-15

    def test_build_holds_one_int32_table_beside_the_hits(self):
        from threshold_lab import plurality

        q, n = 2, 18
        hits = plurality(q, n).tabulate().table == 1
        tracemalloc.start()
        try:
            law = core._Histogram(hits, q, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(law.counts.sum()) == int(hits.sum())
        assert peak <= 4 * q**n

    def test_rows_do_not_depend_on_their_block(self, monkeypatch):
        # three-row blocks give each row the value it has alone
        from threshold_lab import plurality

        atoms = SimplexSampler(3, seed=2).draw(10)
        law = core._Histogram(plurality(3, 6).tabulate().table == 0, 3, 6)
        monkeypatch.setattr(law, "_rows", 3)
        assert law(atoms).tolist() == [law(row[None])[0] for row in atoms]


class TestConditionalExpectation:
    def test_full_set_is_identity(self, xor_indicator):
        mu = ProductMeasure.uniform(2)
        g = conditional_expectation(xor_indicator, mu, [0, 1])
        assert np.allclose(g.table, xor_indicator.table)

    def test_empty_set_is_constant_mean(self, xor_indicator):
        mu = ProductMeasure(2, [0.3, 0.7])
        g = conditional_expectation(xor_indicator, mu, [])
        assert np.allclose(g.table, expectation(xor_indicator, mu))

    def test_xor_on_one_coordinate_is_half(self, xor_indicator):
        g = conditional_expectation(xor_indicator, ProductMeasure.uniform(2), [0])
        assert np.allclose(g.table, 0.5)

    def test_projection_idempotent(self, rng):
        for _ in range(10):
            q, n = 3, 3
            f = random_real_function(q, n, rng)
            mu = random_positive_measure(q, rng)
            coords = [0, 2]
            once = conditional_expectation(f, mu, coords)
            twice = conditional_expectation(once, mu, coords)
            assert np.allclose(once.table, twice.table, atol=1e-12)

    def test_tower_property(self, rng):
        for _ in range(10):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 5))
            f = random_real_function(q, n, rng)
            mu = random_positive_measure(q, rng)
            coords = [i for i in range(n) if rng.random() < 0.5]
            g = conditional_expectation(f, mu, coords)
            assert expectation(g, mu) == pytest.approx(expectation(f, mu), abs=1e-10)

    def test_bad_subset(self, xor_indicator):
        with pytest.raises(DimensionMismatchError):
            conditional_expectation(xor_indicator, ProductMeasure.uniform(2), [5])


class TestSimplexSampler:
    def test_dimension_one_is_point(self):
        mu = SimplexSampler(1, seed=3).sample()
        assert mu.atoms.tolist() == [1.0]

    def test_uniform_mean_on_two_atoms(self):
        sampler = SimplexSampler(2, seed=99)
        vals = [sampler.sample().atoms[0] for _ in range(100_000)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.01)

    def test_seed_determinism(self):
        a = SimplexSampler(3, seed=12)
        b = SimplexSampler(3, seed=12)
        for _ in range(5):
            assert np.array_equal(a.sample().atoms, b.sample().atoms)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 13, 40])
    def test_draw_is_bitwise_k_samples(self, q):
        block, one_by_one = SimplexSampler(q, seed=q), SimplexSampler(q, seed=q)
        atoms = block.draw(37)
        assert atoms.shape == (37, q)
        samples = np.array([one_by_one.sample().atoms for _ in range(37)])
        assert atoms.tobytes() == samples.tobytes()
        # the stream is left in the same state
        following = np.array([one_by_one.sample().atoms for _ in range(3)])
        assert block.draw(3).tobytes() == following.tobytes()

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_draw_is_the_normalized_exponential_stream(self, q):
        rng = np.random.default_rng(11)
        former = []
        for _ in range(20):
            draws = rng.exponential(size=q)
            former.append(draws / draws.sum())
        assert SimplexSampler(q, seed=11).draw(20).tobytes() == np.array(former).tobytes()

    @pytest.mark.parametrize(
        "draws, message",
        [
            ([[1.0, 2.0], [3.0, -1.0]], "nonnegative"),  # the second row's atoms are 1.5, -0.5
            ([[1.0, 2.0], [np.nan, 1.0]], "finite"),
        ],
    )
    def test_draw_checks_every_row(self, draws, message):
        sampler = SimplexSampler(2, seed=0)
        sampler._rng = type("Stub", (), {"exponential": lambda self, size: np.array(draws)})()
        with pytest.raises(DegenerateMeasureError, match=message):
            sampler.draw(2)

    @pytest.mark.parametrize("q, seed", [(0, 1), (2, -1), (3, -7)])
    def test_bad_dimension_or_seed_is_refused(self, q, seed):
        with pytest.raises(DimensionMismatchError):
            SimplexSampler(q, seed)


class TestMeasurePath:
    def test_requires_zero_anchor_mass(self):
        with pytest.raises(DegenerateMeasureError):
            MeasurePath(anchor=0, base=ProductMeasure(2, [0.5, 0.5]))

    def test_endpoints_and_affinity(self):
        base = ProductMeasure(3, [0.0, 0.4, 0.6])
        path = MeasurePath(anchor=0, base=base)
        assert np.allclose(path.measure_at(0.0).atoms, base.atoms)
        assert np.allclose(path.measure_at(1.0).atoms, [1.0, 0.0, 0.0])
        mid = path.measure_at(0.5).atoms
        assert np.allclose(mid, 0.5 * base.atoms + 0.5 * np.array([1.0, 0.0, 0.0]))

    def test_direction_sums_to_zero(self):
        path = MeasurePath(anchor=1, base=ProductMeasure(3, [0.3, 0.0, 0.7]))
        assert path.direction().sum() == pytest.approx(0.0, abs=1e-15)

    def test_from_measure_round_trip(self):
        mu = ProductMeasure(3, [0.2, 0.5, 0.3])
        path, t = MeasurePath.from_measure(mu, anchor=1)
        assert t == pytest.approx(0.5)
        assert np.allclose(path.measure_at(t).atoms, mu.atoms)

    @pytest.mark.parametrize("anchor", [-1, 2, 5])
    def test_from_measure_refuses_an_anchor_outside_the_alphabet(self, anchor):
        with pytest.raises(DimensionMismatchError, match=rf"anchor {anchor} outside \[0, 2\)"):
            MeasurePath.from_measure(ProductMeasure(2, [0.5, 0.5]), anchor)


class TestPermuteInputSymbols:
    def test_swap_on_dictator(self):
        f = QaryFunction.from_table(3, 1, [0, 1, 2])
        g = permute_input_symbols(f, [2, 1, 0])
        assert g.table.tolist() == [2, 1, 0]

    def test_round_trip(self, rng):
        f = QaryFunction.from_table(3, 2, rng.integers(0, 3, size=9))
        perm = [1, 2, 0]
        inv = np.argsort(perm)
        g = permute_input_symbols(permute_input_symbols(f, perm), inv.tolist())
        assert np.array_equal(g.table, f.table)


class TestDigitBuilders:
    """The axis-by-axis relabelling against the ``np.ix_`` form it replaced,
    compared with ``==``."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_relabelling_bitwise(self, q, rng):
        for n in range(1, 5):
            f = QaryFunction.from_table(q, n, rng.integers(0, q, size=q**n))
            for perm in itertools.permutations(range(q)):
                perm = np.array(perm)
                expected = ix_relabel(f.table, q, n, perm)
                assert np.array_equal(_relabel_symbols(f.table, perm, q, n), expected)
                assert np.array_equal(permute_input_symbols(f, perm).table, expected)


def _spelled_out(f, codomain, table):
    """A table function built field by field, as the derivations used to build them."""
    out_q = f.out_q if codomain == "alphabet" else None
    return QaryFunction(q=f.q, n=f.n, codomain=codomain, out_q=out_q, table=table)


def _old_tabulate(f, values, mu):
    table = np.empty(f.q**f.n, dtype=np.int64 if f.codomain == "alphabet" else float)
    table[:] = values  # what the batches wrote, in index order
    return _spelled_out(f, f.codomain, table)


def _old_conditional_expectation(f, values, mu):
    table = np.array(f.table)
    for i in range(1, f.n):
        view = _axis_view(table, f.q, f.n, i)
        view[...] = _axis_mean(view, mu.atoms)
    return _spelled_out(f, "real", table)


#: name -> (codomain of the source, or None for the source's own, the
#: derivation, the construction it replaced), each taking ``(f, values, mu)``.
DERIVATIONS = {
    "tabulate": (
        None,
        lambda f, values, mu: QaryFunction.from_oracle(
            f.q, f.n, Oracle("values", {}, lambda X: values[_table_index(X, f.q)]),
            codomain=f.codomain, out_q=f.out_q,
        ).tabulate(),
        _old_tabulate,
    ),
    "as_real": (
        "alphabet",
        lambda f, values, mu: f.as_real(),
        lambda f, values, mu: _spelled_out(f, "real", f.table.astype(float)),
    ),
    "indicator": (
        "alphabet",
        lambda f, values, mu: f.indicator(1),
        lambda f, values, mu: _spelled_out(f, "real", (f.table == 1).astype(float)),
    ),
    "permute_input_symbols": (
        None,
        lambda f, values, mu: permute_input_symbols(f, np.roll(np.arange(f.q), 1)),
        lambda f, values, mu: _spelled_out(
            f, f.codomain, ix_relabel(f.table, f.q, f.n, np.roll(np.arange(f.q), 1))
        ),
    ),
    "conditional_expectation": (
        "real",
        lambda f, values, mu: conditional_expectation(f, mu, [0]),
        _old_conditional_expectation,
    ),
    "delta_i": (
        "real",
        lambda f, values, mu: delta_i(f, mu, 1),
        lambda f, values, mu: _spelled_out(f, "real", _delta(f, mu, 1)),
    ),
    "noise_operator": (
        "real",
        lambda f, values, mu: noise_operator(efron_stein(f, mu), 0.3),
        lambda f, values, mu: _spelled_out(f, "real", _noise(f, mu, 0.3)),
    ),
}


def _derivation_cases():
    for name, (codomain, _, _) in DERIVATIONS.items():
        for kind in ("alphabet", "real", "bool"):
            if codomain == "alphabet" and kind == "real":
                continue  # a real table has no alphabet values to derive from
            for q in (2, 3, 4):
                yield pytest.param(name, kind, q, id=f"{name}-{kind}-q{q}")


class TestDerivedTables:
    """Every derived table is its source with some fields replaced: the table it
    holds is the one the field-by-field construction held, frozen and owned."""

    @pytest.mark.parametrize("name, kind, q", _derivation_cases())
    def test_equals_the_spelled_out_construction(self, name, kind, q, rng):
        codomain, derive, old = DERIVATIONS[name]
        n = 3
        values = {
            "alphabet": rng.integers(0, q, size=q**n),
            "real": rng.standard_normal(q**n),
            "bool": rng.random(q**n) < 0.5,
        }[kind]
        codomain = codomain or ("real" if kind == "real" else "alphabet")
        out_q = None if codomain == "real" else (2 if kind == "bool" else q)
        f = QaryFunction.from_table(q, n, values, codomain=codomain, out_q=out_q)
        mu = random_positive_measure(q, rng)
        got, want = derive(f, values, mu), old(f, values, mu)
        assert (got.q, got.n, got.codomain, got.out_q) == (want.q, want.n, want.codomain, want.out_q)
        assert got.oracle is None
        assert got.table.dtype == want.table.dtype
        assert got.table.tobytes() == want.table.tobytes()
        assert not got.table.flags.writeable
        assert not np.shares_memory(got.table, f.table)
        assert not np.shares_memory(got.table, values)

    @pytest.mark.parametrize("name", ["as_real", "indicator"])
    def test_allocates_one_float_and_one_bool_table(self, name):
        size = 1 << 18
        f = QaryFunction.from_table(2, 18, np.arange(size) % 2)
        derive = DERIVATIONS[name][1]
        tracemalloc.start()
        try:
            g = derive(f, None, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.table.dtype == np.float64
        # a float64 and a bool table, and a few objects
        assert peak <= 9 * size + (1 << 16)

    def test_adopts_only_a_read_only_array_that_owns_its_memory(self):
        # an alphabet table is kept in the narrowest unsigned dtype, so only
        # a uint8 array can be adopted as is
        owned = (np.arange(8) % 2).astype(np.uint8)
        owned.setflags(write=False)
        assert QaryFunction.from_table(2, 3, owned).table is owned
        view = np.repeat(owned, 2)[::2]
        view.setflags(write=False)
        for table in (np.arange(8) % 2, view):
            assert not np.shares_memory(QaryFunction.from_table(2, 3, table).table, table)


def _real_valued(q, n):
    # elementwise per row, so its values cannot depend on how rows are batched
    oracle = Oracle(name="real", params={}, batch=lambda X: X[:, 0] / 3 + 0.25 * X[:, -1])
    return QaryFunction.from_oracle(q, n, oracle, codomain="real")


def _tabulate_cases():
    from threshold_lab import families as fam

    return [
        fam.plurality(3, 1),
        fam.plurality(2, 5),
        fam.plurality(3, 4, "smallest_index"),
        fam.recursive_plurality(2, 3, 1),
        fam.recursive_plurality(3, 2, 2),
        *(fam.graph_property(2, 3, kind) for kind in fam.GRAPH_PROPERTIES),
        *(fam.graph_property(4, 2, kind) for kind in fam.GRAPH_PROPERTIES),
        fam.antisym_majority(1),
        fam.antisym_majority(3),
        fam.dictator(3, 1),
        fam.dictator(2, 6, 4),
        _real_valued(2, 1),
        _real_valued(3, 4),
    ]


class TestTabulate:
    @pytest.mark.parametrize("f", _tabulate_cases(), ids=lambda f: f"{f.oracle.name}-{f.q}-{f.n}")
    @pytest.mark.parametrize("rows", ["one", "below", "at", "above"])
    def test_matches_enumeration(self, f, rows, monkeypatch):
        size = f.q**f.n
        # point-buffer rows of 1, just below, at and just above the table size
        budget = {"one": 1, "below": size - 1, "at": size, "above": size + 1}[rows]
        monkeypatch.setattr(core, "_TABULATE_COORDS", max(1, budget) * f.n)
        expected = [f(x) for x in points(f.q, f.n)]
        tab = f.tabulate()
        assert tab.table.dtype == (np.uint8 if f.codomain == "alphabet" else np.float64)
        assert tab.table.tolist() == expected

    def test_blocks_at_the_default_budget(self):
        from threshold_lab import dictator

        # 2**18 points exceed the 4_000_000 // 18 rows, so two blocks of 2**17
        enumerated = np.array(list(points(2, 18)), dtype=np.int64)
        for coord in (0, 17):
            f = dictator(2, 18, coord)
            calls = []

            def batch(X, inner=f.oracle.batch):
                calls.append(len(X))
                return inner(X)

            traced = QaryFunction.from_oracle(2, 18, Oracle("dictator", {}, batch))
            assert np.array_equal(traced.tabulate().table, enumerated[:, coord])
            assert calls == [2**17, 2**17]

    @pytest.mark.parametrize("q, n", [(2, 5), (3, 4), (4, 3), (257, 2)])
    def test_batch_sees_read_only_one_byte_columns(self, q, n, monkeypatch):
        monkeypatch.setattr(core, "_TABULATE_COORDS", q * n)  # blocks of q points
        seen = []

        def batch(X):
            seen.append((X.dtype, X.flags.writeable, X.strides, X.shape))
            return np.asarray(X)[:, -1].astype(np.int64)

        f = QaryFunction.from_oracle(q, n, Oracle("spy", {}, batch))
        assert f.tabulate().table.tolist() == [x[-1] for x in points(q, n)]
        assert len(seen) > 1
        for dtype, writeable, strides, shape in seen:
            # each coordinate one contiguous column: uint8 up to q = 256, then uint16
            assert dtype == np.min_scalar_type(q - 1) and not writeable
            assert strides == (dtype.itemsize, dtype.itemsize * shape[0])

    def test_peak_memory_is_the_table_it_returns(self, monkeypatch):
        from threshold_lab import plurality

        # with small point blocks the filled values are the one table held: the
        # function adopts them, where a copy of them made a second table
        monkeypatch.setattr(core, "_TABULATE_COORDS", 18 * 1024)
        f = plurality(2, 18)
        tracemalloc.start()
        try:
            tab = f.tabulate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tab.table.nbytes + (1 << 17)

    def test_batch_may_not_write_its_points(self):
        def batch(X):
            X[:, 0] = 0
            return X[:, 0]

        f = QaryFunction.from_oracle(2, 3, Oracle(name="writer", params={}, batch=batch))
        with pytest.raises(ValueError):
            f.tabulate()

    @pytest.mark.parametrize("value, out_q", [(257, 3), (-1, 256), (2**63 - 1, 2)])
    def test_refuses_a_value_the_narrow_table_would_wrap(self, value, out_q):
        # stored unchecked in uint8, 257 would read as 1 and -1 as 255
        constant = Oracle("constant", {}, lambda X: np.full(len(X), value, dtype=np.int64))
        f = QaryFunction.from_oracle(2, 2, constant, out_q=out_q)
        with pytest.raises(InvalidFunctionError, match=rf"\[0, {out_q}\)"):
            f.tabulate()

    def test_refuses_a_fractional_batch_value(self):
        half = Oracle("half", {}, lambda X: X[:, 0] / 2)
        with pytest.raises(InvalidFunctionError, match="must be integers"):
            QaryFunction.from_oracle(3, 2, half).tabulate()

    def test_three_hundred_symbols_keep_their_values(self, tmp_path):
        from threshold_lab import dictator, fileio

        tab = dictator(300, 1).tabulate()
        assert tab.table.dtype == np.uint16
        assert tab.table.tolist() == list(range(300))
        built = QaryFunction.from_table(300, 1, range(300))
        assert built.table.dtype == np.uint16 and np.array_equal(built.table, tab.table)
        fileio.save_function(tab, tmp_path / "d.json")
        loaded = fileio.load_function(tmp_path / "d.json")
        assert loaded.out_q == 300 and loaded.table.tolist() == list(range(300))
        # no numpy integer holds more than uint64, whatever out_q says
        huge = QaryFunction.from_table(2, 1, np.array([0, 2**64 - 1], np.uint64), out_q=2**70)
        assert huge.table.dtype == np.uint64 and huge.table.tolist() == [0, 2**64 - 1]


def test_oracle_batch_and_scalar_agree(rng):
    from threshold_lab import plurality

    f = plurality(3, 4)
    pts = all_points(3, 4)
    batch = f.batch(pts)
    scalars = [f(p) for p in pts]
    assert batch.tolist() == scalars
    tab = f.tabulate()
    assert np.array_equal(tab.table, batch)
