import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    DimensionMismatchError,
    ProductMeasure,
    QaryFunction,
    antisym_majority,
    check_fair,
    check_monotone,
    dictator,
    expectation,
    graph_property,
    influence,
    plurality,
    prob_value,
    recursive_plurality,
    resolve_oracle,
    scan_path,
)
from threshold_lab.families import TIE_BREAKS, _compositions, edge_list, plurality_winners

from oracles import (
    enum_compositions,
    enum_prob,
    int64_plurality_winners,
    random_positive_measure,
    reshape_recursive_plurality,
)


class TestPlurality:
    def test_strict_majority(self):
        f = plurality(2, 3)
        assert f((0, 0, 1)) == 0

    def test_three_way_tie_first_occurrence(self):
        f = plurality(3, 3)
        assert f((0, 1, 2)) == 0
        assert f((1, 0, 2)) == 1

    def test_tie_first_position_wins(self):
        f = plurality(3, 4)
        assert f((2, 1, 1, 2)) == 2

    def test_smallest_index_tie_break(self):
        f = plurality(3, 3, "smallest_index")
        assert f((2, 1, 0)) == 0

    def test_exact_evaluator_matches_enumeration(self, rng):
        for q, n in [(2, 3), (2, 6), (3, 3), (3, 5), (3, 7)]:
            for tie_break in ("first_occurrence", "smallest_index"):
                f = plurality(q, n, tie_break)
                tab = f.tabulate()
                for _ in range(3):
                    mu = random_positive_measure(q, rng)
                    for a in range(q):
                        exact = f.oracle.exact_prob(mu, a)
                        assert exact == pytest.approx(
                            prob_value(tab, mu, a), abs=1e-10
                        )

    def test_exact_evaluator_with_zero_atom(self):
        f = plurality(2, 9)
        mu = ProductMeasure(2, [0.0, 1.0])
        assert f.oracle.exact_prob(mu, 0) == pytest.approx(0.0, abs=1e-15)
        assert f.oracle.exact_prob(mu, 1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_atom_scan_does_not_overflow(self):
        # at n = 729 the multinomial coefficient of a composition that puts a
        # count on a zero atom overflows exp unless it is masked first
        # (the pytest configuration turns the RuntimeWarning into an error)
        f = plurality(3, 729)
        curve = scan_path(f, 0, ProductMeasure(3, [0.0, 0.5, 0.5]), grid_size=3)
        assert curve.values[0] == 0.0
        assert curve.values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_exact_evaluator_agrees_with_mc_at_large_n(self):
        from threshold_lab import mc_estimate

        f = plurality(3, 501)
        mu = ProductMeasure(3, [0.4, 0.35, 0.25])
        exact = f.oracle.exact_prob(mu, 0)
        est = mc_estimate(f, mu, 0, 20_000, seed=11)
        assert abs(est.p_hat - exact) <= 3 * est.half_width + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 15))
def test_compositions_match_enumeration(q, n):
    got = _compositions(n, q)
    want = enum_compositions(n, q)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert (got == want).all()  # same rows in the same order


def _enumerated_exact_prob(q, n, tie_break, measure, a):
    """``P[plurality = a]`` from enumerated compositions: int64 counts times log
    atoms and ``gammaln(counts + 1)``, the same float operations in the same
    order as the evaluator."""
    from scipy.special import gammaln

    counts = enum_compositions(n, q)
    log_coeff = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    if tie_break == "smallest_index":
        share = np.zeros(counts.shape)
        share[np.arange(counts.shape[0]), tied.argmax(axis=1)] = 1.0
    else:
        share = tied / tied.sum(axis=1, keepdims=True)
    positive = measure.atoms > 0
    exponent = log_coeff + counts @ np.log(np.where(positive, measure.atoms, 1.0))
    if positive.all():
        p = np.exp(exponent)
    else:
        possible = ~(counts[:, ~positive] > 0).any(axis=1)
        p = np.exp(exponent, out=np.zeros_like(exponent), where=possible)
    return float(p @ share[:, a])


@pytest.mark.parametrize("q,n", [(3, 61), (4, 21), (5, 13)])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_exact_prob_is_bitwise_the_enumerated_formula(q, n, tie_break):
    f = plurality(q, n, tie_break)
    atoms = np.linspace(1.0, 2.0, q)
    zeroed = atoms.copy()
    zeroed[1] = 0.0
    for mu in (ProductMeasure(q, atoms / atoms.sum()), ProductMeasure(q, zeroed / zeroed.sum())):
        for a in range(q):
            assert f.oracle.exact_prob(mu, a) == _enumerated_exact_prob(q, n, tie_break, mu, a)


def test_smallest_index_keeps_one_winner_per_composition(rng):
    # the one-hot share matrix became an integer winner per composition; the
    # values must keep every bit of the matrix-column formula.  Both sides are
    # a BLAS ddot over a strided column, so this pins that the evaluator still
    # reads its column through a stride.  It relies on the BLAS summing two
    # strided dots of one length in one order, whatever the stride (OpenBLAS
    # does); under a BLAS that does not, it can fail by a last bit although
    # the evaluator is right
    q, n = 3, 61
    f = plurality(q, n, "smallest_index")
    evaluator = f.oracle.exact_prob
    assert evaluator._share is None
    assert evaluator._winner.shape == (math.comb(n + q - 1, q - 1),)
    assert evaluator._winner.itemsize == 1
    measures = [ProductMeasure.uniform(q), ProductMeasure(q, [0.5, 0.0, 0.5])]
    measures += [ProductMeasure(q, rng.dirichlet(np.ones(q))) for _ in range(6)]
    for mu in measures:
        for a in range(q):
            assert evaluator(mu, a) == _enumerated_exact_prob(q, n, "smallest_index", mu, a)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_exact_prob_rejects_a_symbol_outside_the_alphabet(tie_break):
    evaluator = plurality(3, 5, tie_break).oracle.exact_prob
    for a in (-1, 3):
        with pytest.raises(DimensionMismatchError):
            evaluator(ProductMeasure.uniform(3), a)


class TestRecursivePlurality:
    def test_depth_one_equals_plurality(self):
        a = recursive_plurality(3, 3, 1).tabulate()
        b = plurality(3, 3).tabulate()
        assert np.array_equal(a.table, b.table)

    def test_nine_bit_example(self):
        f = recursive_plurality(2, 3, 2)
        x = (0, 0, 1, 0, 1, 1, 1, 1, 1)  # block winners (0, 1, 1)
        assert f(x) == 1

    def test_binary_tree_is_fair_and_monotone(self):
        f = recursive_plurality(2, 3, 2).tabulate()
        assert check_fair(f).passed
        assert check_monotone(f).passed


class TestGraphProperty:
    def test_monochromatic(self):
        f = graph_property(4, 3, "most_popular_color")
        assert f((1,) * 6) == 1

    def test_triangle_count(self):
        f = graph_property(3, 2, "most_popular_color")
        assert f((0, 0, 1)) == 0

    def test_max_clique_triangle_wins(self):
        # K4: color 2 on the triangle {0,1,2}; the star at vertex 3 gets color 0
        edges = edge_list(4)
        coloring = []
        for (u, w) in edges:
            if u < 3 and w < 3:
                coloring.append(2)
            else:
                coloring.append(0 if w % 2 else 1)
        f = graph_property(4, 3, "max_clique_color")
        assert f(tuple(coloring)) == 2

    def test_min_independent_set_prefers_denser_color(self):
        # all edges color 0: its independence number is 1, color 1's is v
        f = graph_property(4, 2, "min_independent_set_color")
        assert f((0,) * 6) == 0
        assert f((1,) * 6) == 1

    @pytest.mark.parametrize("kind", ["most_popular_color", "max_clique_color",
                                      "min_independent_set_color"])
    def test_monotone_small(self, kind):
        f = graph_property(3, 2, kind).tabulate()
        assert check_monotone(f).passed


class TestAntisymMajority:
    def test_all_ones_beats_all_zeros(self):
        f = antisym_majority(3)
        assert f((1, 1, 1, 0, 0, 0)) == 1
        assert f((0, 0, 0, 1, 1, 1)) == 0

    def test_block_swap_flips_output_when_blocks_differ(self):
        f = antisym_majority(2)
        for x in itertools.product((0, 1), repeat=4):
            left, right = x[:2], x[2:]
            if left == right:
                continue
            assert f(x) != f(right + left)

    def test_uniform_mean_exact(self):
        # the lex tie rule splits balanced inputs exactly, and the diagonal
        # residue is itself balanced, so the uniform mean is exactly 1/2
        for n in (1, 2, 3, 4, 5, 6):
            f = antisym_majority(n).tabulate().as_real()
            mu = ProductMeasure.uniform(2)
            assert expectation(f, mu) == pytest.approx(0.5, abs=1e-12)

    def test_biased_mean_closed_form(self):
        # |E_p - 1/2| = rho^(n-1) |2p - 1| / 2 with rho = p^2 + (1-p)^2
        n = 4
        f = antisym_majority(n).tabulate().as_real()
        for p in (0.2, 0.35, 0.5, 0.7, 0.9):
            mu = ProductMeasure(2, [p, 1 - p])
            rho = p * p + (1 - p) ** 2
            expected = rho ** (n - 1) * abs(2 * p - 1) / 2
            assert abs(expectation(f, mu) - 0.5) == pytest.approx(expected, abs=1e-12)
            assert expected <= rho**n / 2 + 1e-15

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_influences_small(self, n):
        f = antisym_majority(n).tabulate().as_real()
        mu = ProductMeasure.uniform(2)
        bound = 2 / math.sqrt(2 * n)
        for i in range(2 * n):
            assert influence(f, mu, i) <= bound

    @pytest.mark.slow
    def test_influences_small_at_table_cap(self):
        # 24 bits, 2^24 entries: the largest exact instance
        f = antisym_majority(12).tabulate().as_real()
        mu = ProductMeasure.uniform(2)
        bound = 2 / math.sqrt(24)
        for i in range(24):
            assert influence(f, mu, i) <= bound


class TestDictator:
    def test_returns_coordinate(self):
        f = dictator(3, 4, 2)
        assert f((0, 1, 2, 0)) == 2

    def test_fair_but_not_symmetric(self):
        from threshold_lab import SymmetryGroup, check_symmetric

        f = dictator(2, 3, 0).tabulate()
        assert check_fair(f).passed
        assert not check_symmetric(f, SymmetryGroup.cyclic(3)).passed

    def test_outcome_law_is_the_atom(self, rng):
        f = dictator(3, 5, 1)
        mu = random_positive_measure(3, rng)
        for a in range(3):
            assert prob_value(f, mu, a) == pytest.approx(mu.atoms[a])


class TestOracleRegistry:
    def test_round_trip_plurality(self):
        f = resolve_oracle("plurality", {"q": 2, "n": 3})
        assert f.oracle.name == "plurality"
        assert f((0, 1, 0)) == 0

    def test_unknown_family(self):
        from threshold_lab import InvalidFunctionError

        with pytest.raises(InvalidFunctionError):
            resolve_oracle("nope", {})


def test_plurality_winners_matches_scalar_rule(rng):
    X = rng.integers(0, 3, size=(200, 5))
    winners = plurality_winners(X, 3)
    for row, w in zip(X, winners):
        counts = [list(row).count(v) for v in range(3)]
        best = max(counts)
        tied = [v for v in range(3) if counts[v] == best]
        first = min(tied, key=lambda v: list(row).index(v))
        assert w == first


def _symbol_rows(rng, q, n, rows=300):
    """Random points in one-byte symbols, plus every constant row, whose count
    is n: past 255 it overflows a one-byte counter."""
    X = rng.integers(0, q, size=(rows, n)).astype(np.uint8)
    constant = np.repeat(np.arange(q, dtype=np.uint8)[:, None], n, axis=1)
    return np.concatenate([X, constant])


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_plurality_winners_match_the_int64_kernel(rng, q, tie_break):
    for n in (1, 2, 3, 4, 7, 10, 300):
        X = _symbol_rows(rng, q, n)
        want = int64_plurality_winners(X, q, tie_break)
        got = plurality_winners(X, q, tie_break)
        assert got.dtype == want.dtype
        assert (got == want).all()


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("arity,depth", [(2, 4), (3, 3), (4, 2), (5, 2), (256, 1), (300, 1)])
def test_recursive_plurality_matches_the_reshape_kernel(rng, q, tie_break, arity, depth):
    f = recursive_plurality(q, arity, depth, tie_break)
    X = _symbol_rows(rng, q, f.n)
    want = reshape_recursive_plurality(X, q, arity, tie_break)
    got = f.batch(X)
    assert got.dtype == want.dtype
    assert (got == want).all()


FAMILIES = [
    plurality(3, 7),
    plurality(3, 6, "smallest_index"),
    plurality(2, 9),
    recursive_plurality(2, 3, 2),
    recursive_plurality(3, 2, 3),
    recursive_plurality(4, 3, 2, "smallest_index"),
    graph_property(4, 3, "most_popular_color"),
    graph_property(4, 2, "max_clique_color"),
    graph_property(4, 3, "min_independent_set_color"),
    antisym_majority(5),
    dictator(5, 4, coord=2),
    plurality(3, 5).tabulate(),
]


@pytest.mark.parametrize(
    "f", FAMILIES, ids=lambda f: f"{f.oracle.name}-{f.oracle.params}" if f.oracle else "table"
)
def test_batch_is_the_same_on_every_integer_dtype(rng, f):
    X = rng.integers(0, f.q, size=(500, f.n))
    want = f.batch(X)
    assert want.dtype == np.int64
    for dtype in (np.uint8, np.uint16, np.int32, np.int64, np.uint64):
        points = X.astype(dtype)
        points.setflags(write=False)
        got = f.batch(points)
        assert got.dtype == np.int64
        assert (got == want).all()
    # a non-integer array is cast, as before
    assert (f.batch(X.astype(float)) == want).all()
