import ast
import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threshold_lab
from threshold_lab import (
    DimensionMismatchError,
    MeasurePath,
    ProductMeasure,
    QaryFunction,
    antisym_majority,
    check_fair,
    check_monotone,
    dictator,
    expectation,
    graph_property,
    influence,
    mc_estimate,
    plurality,
    prob_value,
    recursive_plurality,
    resolve_oracle,
    scan_path,
)
from threshold_lab import core, families
from threshold_lab.core import Oracle, all_points
from threshold_lab.families import (
    _COLUMN_COUNT_MAX_ARITY,
    TIE_BREAKS,
    edge_list,
    plurality_winners,
)

from oracles import (
    enum_antisym_majority,
    enum_compositions,
    enum_plurality,
    enum_prob,
    int64_plurality_winners,
    points,
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
        f = plurality(3, 501)
        mu = ProductMeasure(3, [0.4, 0.35, 0.25])
        exact = f.oracle.exact_prob(mu, 0)
        est = mc_estimate(f, mu, 0, 20_000, seed=11)
        assert abs(est.p_hat - exact) <= 3 * est.half_width + 1e-9


def _enumerated_exact_prob(q, n, tie_break, measure, a):
    """``P[plurality = a]`` summed over enumerated compositions: multinomial
    coefficients from ``gammaln``, times the atoms' powers, times the share of
    ``a`` among the tied maxima."""
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


def _law(f, measure):
    return np.array([f.oracle.exact_prob(measure, a) for a in range(f.q)])


@st.composite
def _small_plurality_cases(draw):
    """q 2-6, n 1-15, either tie break; atoms random, with zeros, or a point mass."""
    q, n = draw(st.integers(2, 6)), draw(st.integers(1, 15))
    tie_break = draw(st.sampled_from(TIE_BREAKS))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=q, max_size=q)))
    zeroed = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    weights[np.array(zeroed)] = 0.0
    if draw(st.integers(0, 3)) == 0 or not weights.any():
        weights = np.eye(q)[draw(st.integers(0, q - 1))]
    return q, n, tie_break, ProductMeasure(q, weights / weights.sum())


@settings(max_examples=80)
@given(_small_plurality_cases())
def test_exact_prob_matches_the_enumerated_formula(case):
    q, n, tie_break, mu = case
    f = plurality(q, n, tie_break)
    law = _law(f, mu)
    want = [_enumerated_exact_prob(q, n, tie_break, mu, a) for a in range(q)]
    assert law == pytest.approx(want, abs=1e-12)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)


# these pinned every bit while the evaluator summed enumerated compositions in
# the reference's float order; the Poissonized evaluator sums in another
# order, so they compare at 1e-12
@pytest.mark.parametrize("q,n", [(3, 61), (4, 21), (5, 13)])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_exact_prob_is_bitwise_the_enumerated_formula(q, n, tie_break):
    f = plurality(q, n, tie_break)
    atoms = np.linspace(1.0, 2.0, q)
    zeroed = atoms.copy()
    zeroed[1] = 0.0
    for mu in (ProductMeasure(q, atoms / atoms.sum()), ProductMeasure(q, zeroed / zeroed.sum())):
        for a in range(q):
            want = _enumerated_exact_prob(q, n, tie_break, mu, a)
            assert f.oracle.exact_prob(mu, a) == pytest.approx(want, abs=1e-12)


def test_smallest_index_keeps_one_winner_per_composition(rng):
    # the smallest tied symbol wins outright, composition by composition
    q, n = 3, 61
    evaluator = plurality(q, n, "smallest_index").oracle.exact_prob
    measures = [ProductMeasure.uniform(q), ProductMeasure(q, [0.5, 0.0, 0.5])]
    measures += [ProductMeasure(q, rng.dirichlet(np.ones(q))) for _ in range(6)]
    for mu in measures:
        for a in range(q):
            want = _enumerated_exact_prob(q, n, "smallest_index", mu, a)
            assert evaluator(mu, a) == pytest.approx(want, abs=1e-12)


# each more than 2,000,000 compositions, where no enumeration is cheap
PAST_THE_ENUMERATION = [(5, 83), (6, 45), (4, 227), (3, 1999)]


@pytest.mark.parametrize("q,n", PAST_THE_ENUMERATION)
def test_exact_prob_past_the_enumeration(rng, q, n):
    assert math.comb(n + q - 1, q - 1) > 2_000_000
    f = plurality(q, n)
    assert _law(f, ProductMeasure.uniform(q)) == pytest.approx(np.full(q, 1 / q), abs=1e-12)
    perm = rng.permutation(q)
    for concentration in (50.0, 1.0):
        mu = ProductMeasure(q, rng.dirichlet(np.full(q, concentration)))
        law = _law(f, mu)
        assert law.sum() == pytest.approx(1.0, abs=1e-11)
        for tie_break in TIE_BREAKS:
            assert _law(plurality(q, n, tie_break), mu).sum() == pytest.approx(1.0, abs=1e-11)
        # first occurrence is fair: relabelling the atoms relabels the law
        moved = np.empty(q)
        moved[perm] = mu.atoms
        assert _law(f, ProductMeasure(q, moved))[perm] == pytest.approx(law, abs=1e-12)
        a = int(law.argmax())
        est = mc_estimate(f, mu, a, 2000, seed=q * n)
        assert abs(est.p_hat - law[a]) <= 5 * est.half_width / 1.96 + 1 / 2000


@pytest.mark.parametrize("q,n", [(2, 3051), (3, 729)])
def test_laws_sum_to_one_at_large_n(rng, q, n):
    # log-factorials from a cumulative sum of logs miss this by 4e-11 at (2, 3051)
    for mu in [ProductMeasure.uniform(q)] + [
        ProductMeasure(q, rng.dirichlet(np.full(q, 30.0))) for _ in range(3)
    ]:
        for tie_break in TIE_BREAKS:
            assert _law(plurality(q, n, tie_break), mu).sum() == pytest.approx(1.0, abs=1e-11)


@st.composite
def _law_cases(draw):
    """A plurality (q 2-6, n 1-60, either tie break) or dictator law, at a point mass,
    at a Dirichlet draw (some near-degenerate) or at one with atoms zeroed."""
    q, n = draw(st.integers(2, 6)), draw(st.integers(1, 60))
    f = draw(st.sampled_from([plurality(q, n, tie) for tie in TIE_BREAKS] + [dictator(q, n)]))
    kind = draw(st.sampled_from(["point", "dirichlet", "zeroed"]))
    if kind == "point":
        return f, ProductMeasure(q, np.eye(q)[draw(st.integers(0, q - 1))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.dirichlet(np.full(q, draw(st.sampled_from([0.02, 0.3, 1.0, 50.0]))))
    if kind == "zeroed":
        atoms[draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q - 1))] = 0.0
        if not atoms.any():
            atoms[0] = 1.0
    return f, ProductMeasure(q, atoms / atoms.sum())


@settings(max_examples=150, deadline=None)
@given(_law_cases())
def test_laws_are_probabilities(case):
    # near certainty the plurality law's log-pmf rounding once carried it to
    # 1 + 1.9e-14, as at every point mass for q = 5 and 6
    f, mu = case
    law = _law(f, mu)
    assert ((0.0 <= law) & (law <= 1.0)).all(), law


@pytest.mark.parametrize(
    "q, n, tie_break, atoms, a",
    [
        (4, 13, "first_occurrence",
         [1.1351543348473021e-05, 0.00023882881151796086, 3.039800388282835e-08,
          0.9997497892471296], 0),
        (6, 23, "smallest_index",
         [0.028809552395164816, 0.11756087870011664, 0.0, 0.11103246115818002,
          0.00010689866734340006, 0.742490209079195], 4),
    ],
)
def test_a_vanishing_law_is_not_negative(q, n, tie_break, atoms, a):
    # the FFT product's rounding once left these at -1.0e-35 and -1.7e-32
    law = plurality(q, n, tie_break).oracle.exact_prob(ProductMeasure(q, np.array(atoms)), a)
    assert 0.0 <= law <= 1e-30


def test_point_masses_give_exactly_one():
    assert prob_value(plurality(5, 9), ProductMeasure(5, [1, 0, 0, 0, 0]), 0) == 1.0


def test_atoms_short_of_one_still_give_a_law():
    # conditioning on the total count normalises the atoms; summing the
    # unnormalised multinomial instead misses 1 by 3.6e-10 here
    atoms = np.array([0.3, 0.3, 0.4 - 5e-13])
    mu = ProductMeasure(3, atoms)
    assert 1.0 - mu.atoms.sum() == pytest.approx(5e-13, rel=0.01)
    assert _law(plurality(3, 729), mu).sum() == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_exact_prob_rejects_a_symbol_outside_the_alphabet(tie_break):
    evaluator = plurality(3, 5, tie_break).oracle.exact_prob
    for a in (-1, 3):
        with pytest.raises(DimensionMismatchError):
            evaluator(ProductMeasure.uniform(3), a)


def _path(q, a, atoms):
    """The path anchored at ``a`` from ``atoms`` with the anchor's atom zeroed, normalized."""
    atoms = np.array(atoms, dtype=float)
    atoms[a] = 0.0
    return MeasurePath(a, ProductMeasure(q, atoms / atoms.sum()))


@functools.lru_cache(maxsize=None)
def _tabulated(kind, q, m):
    """Plurality over ``m`` voters under the tie break ``kind``, or the
    ``most_popular_color`` property of the graph on ``m`` vertices, with its table."""
    if kind == "most_popular_color":
        f = graph_property(m, q, kind)
    else:
        f = plurality(q, m, kind)
    return f, f.tabulate()


@st.composite
def _path_law_cases(draw):
    """A plurality (q 2-5, n 1-8, either tie break) or ``most_popular_color`` (up to 6
    edges), its table, an anchor, a path whose base may zero atoms off the anchor,
    and a few points of it, the ends included."""
    kind = draw(st.sampled_from([*TIE_BREAKS, "most_popular_color"]))
    q = draw(st.integers(2, 5))
    m = draw(st.integers(2, 4) if kind == "most_popular_color" else st.integers(1, 8))
    f, table = _tabulated(kind, q, m)
    a = draw(st.integers(0, q - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.dirichlet(np.full(q, draw(st.sampled_from([0.3, 1.0, 30.0]))))
    atoms[draw(st.lists(st.integers(0, q - 1), max_size=q - 2))] = 0.0
    atoms[a] = 0.0
    if not atoms.any():
        atoms[(a + 1) % q] = 1.0
    ts = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)) + [0.0, 1.0]
    return f, table, _path(q, a, atoms), ts


class TestPluralityPathLaw:
    """``G(t) = sum_c Bin(n, t)(c) H(c)`` along a path anchored at ``a``, with
    ``H(c) = P[plurality = a | N_a = c]``."""

    @settings(max_examples=120, deadline=None)
    @given(_path_law_cases())
    def test_matches_the_table(self, case):
        f, table, path, ts = case
        G = f.oracle.law.along(path)
        for t in ts:
            want = prob_value(table, path.measure_at(t), path.anchor)
            assert abs(G(t) - want) <= 1e-13, (t, G(t), want)

    @pytest.mark.parametrize(
        "q,n", [(2, 10), (2, 111), (3, 8), (3, 301), (3, 729), (4, 61), (5, 31), (5, 83), (2, 3051)]
    )
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_conditional_law_is_a_nondecreasing_probability(self, rng, q, n, tie_break):
        law = plurality(q, n, tie_break).oracle.law.along
        for _ in range(3):
            a = int(rng.integers(q))
            for atoms in (np.ones(q), rng.dirichlet(np.ones(q)), np.eye(q)[(a + 1) % q]):
                G = law(_path(q, a, atoms))
                H = G.conditional
                assert ((0.0 <= H) & (H <= 1.0)).all()
                assert np.diff(H).min() >= -1e-15
                assert G(0.0) == 0.0 and G(1.0) == 1.0

    # the exact windows and the scan of the exact-threshold benchmark
    @pytest.mark.parametrize(
        "q,n", [(2, 111), (3, 301), (3, 729), (4, 61), (5, 31), (5, 83), (2, 3051)]
    )
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_matches_the_per_measure_law(self, rng, q, n, tie_break):
        f = plurality(q, n, tie_break)
        a = int(rng.integers(q))
        path = _path(q, a, rng.dirichlet(np.ones(q)))
        G = f.oracle.law.along(path)
        for t in np.linspace(0.0, 1.0, 21):
            assert abs(G(t) - f.oracle.exact_prob(path.measure_at(t), a)) <= 1e-11

    def test_binomial_tail_at_3051_voters(self):
        # P[Bin(n, t) > n/2] exactly, at dyadic t near 1/2 so the integers stay small
        n = 3051
        G = plurality(2, n).oracle.law.along(_path(2, 0, [0.0, 1.0]))
        for t in (63 / 128, 1 / 2, 33 / 64):
            p, r = Fraction(t).numerator, Fraction(t).denominator - Fraction(t).numerator
            tail = sum(math.comb(n, c) * p**c * r ** (n - c) for c in range(n // 2 + 1, n + 1))
            assert abs(Fraction(G(t)) - Fraction(tail, (p + r) ** n)) <= 2e-12

    def test_most_popular_color_reads_the_plurality_law(self):
        f = graph_property(8, 3, "most_popular_color")
        path = _path(3, 1, [0.2, 0.0, 0.8])
        G = f.oracle.law.along(path)
        want = plurality(3, 28, "smallest_index").oracle.law.along(path)
        assert [G(t) for t in (0.3, 0.5)] == [want(t) for t in (0.3, 0.5)]


@st.composite
def _enclosure_cases(draw):
    """A plurality (q 2-5, n 1-8, either tie break) or ``most_popular_color`` (up to 6
    edges), its table, a symbol, and rows of atoms that may zero any atom, the
    symbol's included, or be point masses."""
    kind = draw(st.sampled_from([*TIE_BREAKS, "most_popular_color"]))
    q = draw(st.integers(2, 5))
    m = draw(st.integers(2, 4) if kind == "most_popular_color" else st.integers(1, 8))
    f, table = _tabulated(kind, q, m)
    a = draw(st.integers(0, q - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.dirichlet(np.full(q, draw(st.sampled_from([0.3, 1.0, 30.0]))), size=6)
    for row in atoms:
        row[draw(st.lists(st.integers(0, q - 1), max_size=q - 1))] = 0.0
    atoms = np.vstack([atoms, np.eye(q)])
    atoms = atoms[atoms.sum(axis=1) > 0]
    return f, table, a, atoms / atoms.sum(axis=1, keepdims=True)


class TestEnclosure:
    """``law.bounds(atoms, a)`` encloses ``P[f = a]`` at every row of ``atoms``."""

    @settings(max_examples=150, deadline=None)
    @given(_enclosure_cases())
    def test_plurality_encloses_the_table(self, case):
        f, table, a, atoms = case
        lo, hi = f.oracle.law.bounds(atoms, a)
        assert ((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)).all()
        for row, low, high in zip(atoms, lo, hi):
            # the table's mean rounds: at (4 colours, K4) and a near point mass it
            # reads 1 - 7e-16 where lo is 1.0 and the law is 1 - 7e-27
            p = prob_value(table, ProductMeasure(f.q, row), a)
            assert low - 1e-13 <= p <= high + 1e-13, (row, low, p, high)

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_decides_point_masses_and_empty_symbols(self, tie_break):
        f = plurality(4, 7, tie_break)
        atoms = np.vstack([np.eye(4), [[0.0, 0.5, 0.5, 0.0]]])
        lo, hi = f.oracle.law.bounds(atoms, 0)
        assert lo.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert hi[:4].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert hi[4] == pytest.approx(0.5**7, rel=1e-14)  # P[N_1 = 0], a's rival left empty

    def test_is_a_chernoff_bound_on_each_rival(self):
        # mu_a leads, so lo is 1 minus the two tails; hi is 1 with no rival at or above mu_a
        atoms = np.array([[0.5, 0.3, 0.2]])
        lo, hi = plurality(3, 40).oracle.law.bounds(atoms, 0)
        tails = [(1 - (math.sqrt(0.5) - math.sqrt(b)) ** 2) ** 40 for b in (0.3, 0.2)]
        assert hi[0] == 1.0 and lo[0] == pytest.approx(1 - sum(tails), abs=1e-15)
        # a trailing symbol's hi is its tail against the leader, the least of the two
        lo, hi = plurality(3, 40).oracle.law.bounds(atoms, 2)
        assert lo[0] == 0.0
        assert hi[0] == pytest.approx((1 - (math.sqrt(0.2) - math.sqrt(0.5)) ** 2) ** 40)

    def test_most_popular_color_has_the_plurality_enclosure(self):
        atoms = np.random.default_rng(3).dirichlet(np.ones(3), size=20)
        got = graph_property(8, 3, "most_popular_color").oracle.law.bounds(atoms, 1)
        want = plurality(3, 28, "smallest_index").oracle.law.bounds(atoms, 1)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_dictator_is_its_law_bit_for_bit(self, rng):
        f = dictator(4, 6, 2)
        atoms = np.vstack([rng.dirichlet(np.ones(4), size=50), np.eye(4)])
        for a in range(4):
            lo, hi = f.oracle.law.bounds(atoms, a)
            law = [f.oracle.exact_prob(ProductMeasure(4, row), a) for row in atoms]
            assert lo.tolist() == hi.tolist() == law

    @pytest.mark.parametrize("f", [plurality(3, 5), dictator(3, 2)], ids=["plurality", "dictator"])
    def test_refuses_a_symbol_outside_the_alphabet(self, f):
        for a in (-1, 3):
            with pytest.raises(DimensionMismatchError, match=rf"symbol {a} outside \[0, 3\)"):
                f.oracle.law.bounds(np.full((2, 3), 1 / 3), a)

    def test_a_replaced_oracle_keeps_its_enclosure(self):
        # a benchmark tracer wraps exact_prob by dataclasses.replace
        f = plurality(3, 311)
        wrapped = dataclasses.replace(
            f.oracle, exact_prob=lambda measure, a: f.oracle.exact_prob(measure, a)
        )
        assert wrapped.law is f.oracle.law
        evaluator = core._exact_prob(QaryFunction.from_oracle(3, 311, wrapped), 0)
        atoms = np.full((1, 3), 1 / 3)
        assert evaluator.bounds(atoms) == f.oracle.law.bounds(atoms, 0)

    def test_an_oracle_holds_one_law(self):
        fields = [field.name for field in dataclasses.fields(Oracle)]
        assert fields == ["name", "params", "batch", "exact_prob", "law"]
        for f in (plurality(3, 5), dictator(3, 2), graph_property(4, 3, "most_popular_color")):
            assert f.oracle.law is not None and f.oracle.exact_prob is f.oracle.law

    def test_builds_nothing_before_the_first_read(self):
        G = plurality(3, 301).oracle.law.along(_path(3, 0, [0.0, 0.5, 0.5]))
        assert "conditional" not in vars(G)
        G(0.4)
        assert "conditional" in vars(G)


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

    @pytest.mark.parametrize("vertices,q", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_most_popular_color_is_plurality_with_its_exact_law(self, rng, vertices, q):
        f = graph_property(vertices, q, "most_popular_color")
        table = f.tabulate()
        assert (table.table == plurality(q, f.n, "smallest_index").tabulate().table).all()
        for k in range(10):
            atoms = rng.dirichlet(np.ones(q))
            if k % 2:
                atoms[rng.integers(q)] = 0.0
                atoms /= atoms.sum()
            mu = ProductMeasure(q, atoms)
            for a in range(q):
                assert prob_value(f, mu, a) == pytest.approx(prob_value(table, mu, a), abs=1e-12)

    @pytest.mark.parametrize("kind", ["max_clique_color", "min_independent_set_color"])
    @pytest.mark.parametrize("vertices,q", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_subset_kinds_match_brute_force(self, vertices, q, kind):
        f = graph_property(vertices, q, kind)
        want = [brute_graph_property(x, vertices, q, kind) for x in points(q, f.n)]
        assert f.tabulate().table.tolist() == want

    @pytest.mark.parametrize("kind", ["max_clique_color", "min_independent_set_color"])
    @pytest.mark.parametrize("rows", [101, 2000])
    def test_batch_on_random_rows_in_both_layouts(self, rng, kind, rows):
        # the batch reads one row per edge, whether the points come in rows (as
        # Monte Carlo draws them) or in columns (as tabulate passes them)
        f = graph_property(5, 3, kind)
        X = rng.integers(0, 3, size=(rows, 10)).astype(np.uint8)
        want = [brute_graph_property(x, 5, 3, kind) for x in X]
        for points_dtype in (np.uint8, np.int64):
            points = X.astype(points_dtype)
            for layout in (points, np.asfortranarray(points)):
                got = f.batch(layout)
                assert got.dtype == np.int64 and got.tolist() == want


def brute_graph_property(x, vertices, q, kind):
    """The colour whose largest clique is largest (or largest independent set
    smallest), smaller colour on ties, by listing every vertex subset."""
    colour = dict(zip(edge_list(vertices), x))
    scores = []
    for c in range(q):
        best = 1
        for size in range(2, vertices + 1):
            for vs in itertools.combinations(range(vertices), size):
                same = [colour[e] == c for e in itertools.combinations(vs, 2)]
                if all(same) if kind == "max_clique_color" else not any(same):
                    best = size
        scores.append(best)
    return int(np.argmax(scores) if kind == "max_clique_color" else np.argmin(scores))


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

    @pytest.mark.parametrize("family", [dictator, plurality])
    @pytest.mark.parametrize("q,n", [(3, 0), (1, 3)])
    def test_dimensions_are_checked_first(self, family, q, n):
        # dictator once refused (3, 0) as "coordinate 0 outside [0, 0)"
        with pytest.raises(DimensionMismatchError, match=r"^need q >= 2 and n >= 1$"):
            family(q, n)

    def test_coordinate_outside_the_inputs(self):
        with pytest.raises(DimensionMismatchError, match=r"coordinate 5 outside \[0, 2\)"):
            dictator(3, 2, 5)

    def test_exact_prob_rejects_a_symbol_outside_the_alphabet(self):
        # -1 once read the last atom and 3 raised a bare IndexError
        evaluator = dictator(3, 2).oracle.exact_prob
        for a in (-1, 3):
            with pytest.raises(DimensionMismatchError, match=rf"symbol {a} outside \[0, 3\)"):
                evaluator(ProductMeasure(3, [0.2, 0.3, 0.5]), a)


@pytest.mark.parametrize("f", [plurality(3, 5), dictator(3, 2)], ids=["plurality", "dictator"])
def test_exact_prob_rejects_another_alphabet(f):
    with pytest.raises(DimensionMismatchError, match="function alphabet 3 != measure alphabet 2"):
        f.oracle.exact_prob(ProductMeasure.uniform(2), 0)


# (function, passes check_fair, passes check_monotone), exhaustively at small sizes
FAIR_MONOTONE_VERDICTS = [
    ("plurality-3-5-first_occurrence", lambda: plurality(3, 5), True, True),
    ("dictator-3-4", lambda: dictator(3, 4, 1), True, True),
    ("recursive_plurality-2-3-2", lambda: recursive_plurality(2, 3, 2), True, True),
    ("recursive_plurality-2-3-2-smallest_index",
     lambda: recursive_plurality(2, 3, 2, "smallest_index"), True, True),
    ("plurality-3-5-smallest_index", lambda: plurality(3, 5, "smallest_index"), False, True),
    *[(f"graph_property-4-3-{kind}", lambda kind=kind: graph_property(4, 3, kind), False, True)
      for kind in families.GRAPH_PROPERTIES],
    ("recursive_plurality-3-3-2", lambda: recursive_plurality(3, 3, 2), True, False),
    ("antisym_majority-3", lambda: antisym_majority(3), True, False),
]


@pytest.mark.parametrize(
    "build,fair,monotone", [case[1:] for case in FAIR_MONOTONE_VERDICTS],
    ids=[case[0] for case in FAIR_MONOTONE_VERDICTS],
)
def test_fair_and_monotone_verdicts(build, fair, monotone):
    # the built-ins jury_experiment's docstring names as fair and monotone, and the rest
    f = build().tabulate()
    assert (check_fair(f).passed, check_monotone(f).passed) == (fair, monotone)


def test_laws_import_only_core_numpy_and_the_stdlib():
    # laws.py stays a leaf, so no law pulls in another package module or scipy
    path = os.path.join(os.path.dirname(threshold_lab.__file__), "laws.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert ".core" in imported
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [m for m in imported if m != ".core" and m.split(".")[0] not in allowed]
    assert outside == [], outside


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
    assert winners.tolist() == [enum_plurality(row, 3, "first_occurrence") for row in X.tolist()]


def _symbol_rows(rng, q, n, rows=300):
    """Random points in one-byte symbols, plus every constant row, whose count
    is n: past 255 it overflows a one-byte counter."""
    X = rng.integers(0, q, size=(rows, n)).astype(np.uint8)
    constant = np.repeat(np.arange(q, dtype=np.uint8)[:, None], n, axis=1)
    return np.concatenate([X, constant])


@pytest.mark.parametrize("q", [1, 2, 3, 4])  # with one symbol, every row's winner is 0
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_plurality_winners_match_the_int64_kernel(rng, q, tie_break):
    for n in (1, 2, 3, 4, 7, _COLUMN_COUNT_MAX_ARITY, _COLUMN_COUNT_MAX_ARITY + 1, 10, 300):
        X = _symbol_rows(rng, q, n)
        want = int64_plurality_winners(X, q, tie_break)
        got = plurality_winners(X, q, tie_break)
        assert got.dtype == want.dtype
        assert (got == want).all()


@pytest.mark.parametrize(
    "q, n", [(9, 18), (33, 33), (64, 128), (65, 65), (256, 256), (257, 257), (256, 512), (300, 300)]
)
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_plurality_winners_with_many_tied_symbols(rng, q, n, tie_break):
    # top symbols are bits of one two- or eight-byte word at q = 9, 33 and 64,
    # and of several words past q = 64.  The first rows hold every symbol
    # n // q times, so all q tie; 256 and 257 tied symbols overflow a one-byte
    # tie count.  Random rows tie fewer symbols.
    reversed_row = np.arange(n - 1, -1, -1) % q
    X = np.concatenate([
        reversed_row[None],
        rng.permuted(np.tile(reversed_row, (20, 1)), axis=1),
        rng.integers(0, q, size=(100, n)),
    ])
    for dtype in (np.uint16, np.int64):
        got = plurality_winners(X.astype(dtype), q, tie_break)
        want = int64_plurality_winners(X, q, tie_break)
        assert got.dtype == np.int64 and (got == want).all()
    assert got[0] == (reversed_row[0] if tie_break == "first_occurrence" else 0)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize(
    "arity,depth",
    [(2, 4), (3, 3), (4, 2), (5, 2), (_COLUMN_COUNT_MAX_ARITY, 2),
     (_COLUMN_COUNT_MAX_ARITY + 1, 2), (256, 1), (300, 1)],
)
def test_recursive_plurality_matches_the_reshape_kernel(rng, q, tie_break, arity, depth):
    f = recursive_plurality(q, arity, depth, tie_break)
    X = _symbol_rows(rng, q, f.n)
    want = reshape_recursive_plurality(X, q, arity, tie_break)
    got = f.batch(X)
    assert got.dtype == want.dtype
    assert (got == want).all()


@st.composite
def _gate_cases(draw):
    """Points for every plurality gate kernel: q 2-5, gates on both sides of
    ``_COLUMN_COUNT_MAX_ARITY`` and past 255 inputs (a two-byte counter), depth
    1-3, both tie breaks, one- and two-byte and int64 symbols in C and F order.
    Rows draw from a random prefix of the symbols, which makes ties common, and
    every constant row is added; at q = 2 and even arity, so are rows with a
    tie at every first-level gate."""
    q = draw(st.integers(2, 5))
    arity = draw(st.sampled_from(
        [2, 3, 4, 5, 8, _COLUMN_COUNT_MAX_ARITY, _COLUMN_COUNT_MAX_ARITY + 1, 256, 300]
    ))
    depth = draw(st.integers(1, 3 if arity <= _COLUMN_COUNT_MAX_ARITY + 1 else 1))
    tie_break = draw(st.sampled_from(TIE_BREAKS))
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    order = draw(st.sampled_from("CF"))
    rows = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = arity**depth
    parts = [
        rng.integers(0, q, size=(rows, n)) % rng.integers(1, q + 1, size=(rows, 1)),
        np.repeat(np.arange(q)[:, None], n, axis=1),
    ]
    if q == 2 and arity % 2 == 0:
        half = np.tile(np.repeat([0, 1], arity // 2), (rows, n // arity, 1))
        parts.append(rng.permuted(half, axis=2).reshape(rows, n))
    X = np.concatenate(parts).astype(dtype)
    return q, arity, depth, tie_break, np.asarray(X, order=order)


@settings(max_examples=120, deadline=None)
@given(_gate_cases())
def test_gate_kernel_matches_the_int64_kernels(case):
    q, arity, depth, tie_break, X = case
    got = recursive_plurality(q, arity, depth, tie_break).batch(X)
    want = reshape_recursive_plurality(X, q, arity, tie_break)
    assert got.dtype == np.int64 and (got == want).all()
    got = plurality_winners(X, q, tie_break)
    want = int64_plurality_winners(X, q, tie_break)
    assert got.dtype == np.int64 and (got == want).all()


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("q, n_max", [(2, 12), (3, 7), (4, 5)])
def test_plurality_tables_follow_the_counting_rule(q, n_max, tie_break):
    for n in range(1, n_max + 1):
        table = plurality(q, n, tie_break).tabulate().table
        assert table.tolist() == [enum_plurality(x, q, tie_break) for x in points(q, n)]


@pytest.mark.parametrize("n", [1, 2, 5, 60, 61, 127, 128])
def test_antisym_batch_follows_the_pointwise_rule(rng, n):
    # tied sums by permuting the first block into the second, or copying it;
    # 127 and 128 ones are the widest sums of one- and two-byte signed counters
    X = rng.integers(0, 2, size=(100, 2 * n))
    first = X[:, :n]
    ones, zeros = np.ones((1, n), dtype=X.dtype), np.zeros((1, n), dtype=X.dtype)
    points = np.concatenate([
        X,
        np.concatenate([first, rng.permuted(first, axis=1)], axis=1),
        np.concatenate([first, first], axis=1),
        np.block([[ones, zeros], [zeros, ones], [ones, ones], [zeros, zeros]]),
    ])
    want = [enum_antisym_majority(x, n) for x in points.tolist()]
    f = antisym_majority(n)
    for dtype in (np.uint8, np.int64):
        for order in "CF":
            got = f.batch(np.asarray(points.astype(dtype), order=order))
            assert got.dtype == np.int64 and got.tolist() == want


FAMILIES = [
    plurality(3, 7),
    plurality(3, 6, "smallest_index"),
    plurality(2, 9),
    recursive_plurality(2, 3, 2),
    recursive_plurality(3, 2, 3),
    recursive_plurality(4, 3, 2, "smallest_index"),
    # wider than _COLUMN_COUNT_MAX_ARITY: counted by one reduction per symbol
    plurality(3, 2 * _COLUMN_COUNT_MAX_ARITY),
    recursive_plurality(3, _COLUMN_COUNT_MAX_ARITY + 1, 2),
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
    # a family batch answers in int64, a table in its own one-byte dtype
    assert want.dtype == (np.int64 if f.table is None else np.uint8)
    for dtype in (np.uint8, np.uint16, np.int32, np.int64, np.uint64):
        points = X.astype(dtype)
        points.setflags(write=False)
        got = f.batch(points)
        assert got.dtype == want.dtype
        assert (got == want).all()
    # a non-integer array is cast, as before
    assert (f.batch(X.astype(float)) == want).all()


def _weighted_sum_mod_q(q, n):
    # a user oracle: reads every column, widens nothing itself
    weights = np.arange(1, n + 1)
    oracle = Oracle("weighted_sum", {}, lambda X: (np.asarray(X) @ weights) % q)
    return QaryFunction.from_oracle(q, n, oracle)


TABLE_FAMILIES = [
    *(plurality(q, n, tie) for q, n in [(2, 13), (3, 7), (4, 5)] for tie in TIE_BREAKS),
    *(recursive_plurality(q, 3, 2, tie) for q in (2, 3, 4) for tie in TIE_BREAKS),
    *(graph_property(4, q, kind) for q in (2, 3) for kind in families.GRAPH_PROPERTIES),
    graph_property(3, 4, "max_clique_color"),
    antisym_majority(5),
    *(dictator(q, 4, 3) for q in (2, 3, 4)),
    *(_weighted_sum_mod_q(q, 5) for q in (2, 3, 4)),
]


@pytest.mark.parametrize(
    "f", TABLE_FAMILIES, ids=lambda f: f"{f.oracle.name}-{f.q}-{f.n}-{f.oracle.params}"
)
def test_tabulate_equals_batch_on_all_points(f, monkeypatch):
    # int64 row-major points against tabulate's one-byte columns, over several blocks
    monkeypatch.setattr(core, "_TABULATE_COORDS", 300 * f.n)
    assert np.array_equal(f.tabulate().table, f.batch(all_points(f.q, f.n)))


def test_building_plurality_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre nodes are made on the first first_occurrence evaluation
    src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
    code = (
        "import sys\n"
        "from threshold_lab import ProductMeasure, plurality, prob_value\n"
        "f = plurality(3, 501)\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "prob_value(f, ProductMeasure.uniform(3), 0)\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["False", "True"]
