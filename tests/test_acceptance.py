"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here and nowhere else.
"""

import itertools
import math

import numpy as np
import pytest

from threshold_lab import (
    ChoiceFunction,
    MeasurePath,
    ProductMeasure,
    QaryFunction,
    SimplexSampler,
    SymmetryGroup,
    Tournament,
    antisym_majority,
    check_fair,
    check_monotone,
    check_symmetric,
    check_zero_monotone,
    delta_i,
    dictator,
    efron_stein,
    expectation,
    graph_property,
    influence,
    jury_experiment,
    lp_norm,
    mc_estimate,
    mcgarvey_profile,
    plurality,
    plurality_choice,
    russo_derivative,
    russo_report,
    saari_search,
    scan_path,
    simplex_sweep,
    threshold_window,
    verify_hypercontractivity,
    verify_level_bound,
)
from threshold_lab.families import vertex_action_generators
from threshold_lab.social_choice import (
    indeterminacy_experiment,
    majority_relation,
    nonempty_subsets,
)

from oracles import outer_product_weights, random_positive_measure, zero_monotone_closure


def _pass(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS: {message}")


@pytest.fixture(scope="module")
def es_corpus():
    """100 random (real f, binary f, measure) with q in {2,3}, n <= 4."""
    rng = np.random.default_rng(424242)
    corpus = []
    for _ in range(100):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        mu = random_positive_measure(q, rng)
        real = QaryFunction.from_table(q, n, rng.standard_normal(q**n), codomain="real")
        binary = QaryFunction.from_table(
            q, n, rng.integers(0, 2, size=q**n).astype(float), codomain="real"
        )
        corpus.append((real, binary, mu))
    return corpus


@pytest.fixture(scope="module")
def hyper_corpus():
    """1000 random real functions with q <= 4, n <= 3."""
    rng = np.random.default_rng(31337)
    corpus = []
    for _ in range(1000):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        mu = random_positive_measure(q, rng)
        g = QaryFunction.from_table(q, n, rng.standard_normal(q**n), codomain="real")
        corpus.append((g, mu))
    return corpus


def test_criterion_01_efron_stein_suite(es_corpus):
    tol = 1e-9
    for f, _, mu in es_corpus:
        d = efron_stein(f, mu)
        assert np.max(np.abs(d.reconstruction() - f.table)) <= tol
        w = outer_product_weights(mu, f.n)
        comps = d.components
        gram = (comps * w) @ comps.T
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diagonal)) <= tol
        mean = expectation(f, mu)
        variance = float(w @ (f.table - mean) ** 2)
        assert abs(variance - d.squared_norms()[1:].sum()) <= tol
    _pass(1, "reconstruction, orthogonality, Parseval on 100 instances at 1e-9")


def test_criterion_02_influence_identities(es_corpus):
    tol = 1e-9
    for f, fb, mu in es_corpus:
        for i in range(f.n):
            for g in (f, fb):
                value = influence(g, mu, i)
                l2 = lp_norm(delta_i(g, mu, i), mu, 2.0)
                assert abs(value - l2 * l2) <= tol
            l1 = lp_norm(delta_i(fb, mu, i), mu, 1.0)
            assert abs(l1 - 2.0 * influence(fb, mu, i)) <= tol
    _pass(2, "influence = squared L2 of delta; binary L1 = 2I on the corpus at 1e-9")


def test_criterion_03_hypercontractivity(hyper_corpus):
    violations = 0
    for g, mu in hyper_corpus:
        rep = verify_hypercontractivity(g, mu)
        if not rep.ok:
            violations += 1
    assert violations == 0
    _pass(3, "noise contraction at sigma = alpha^2/6 on 1000 instances, 0 violations")


def test_criterion_04_level_bound_and_cauchy_schwarz(hyper_corpus):
    violations = 0
    for g, mu in hyper_corpus:
        mean = float(outer_product_weights(mu, g.n) @ g.table)
        centered = QaryFunction.from_table(g.q, g.n, g.table - mean, codomain="real")
        for k in range(1, g.n + 1):
            if not verify_level_bound(centered, mu, k).ok:
                violations += 1
        l1 = lp_norm(centered, mu, 1.0)
        l32 = lp_norm(centered, mu, 1.5)
        l2 = lp_norm(centered, mu, 2.0)
        if l32**3 > l1 * l2**2 + 1e-9:
            violations += 1
    assert violations == 0
    _pass(4, "level-k bound and the L_{3/2}^3 <= L_1 L_2^2 step on the centered corpus")


def _finite_difference(f, path, t, h=1e-4):
    w_lo = outer_product_weights(path.measure_at(t - h), f.n)
    w_hi = outer_product_weights(path.measure_at(t + h), f.n)
    return float((w_hi - w_lo) @ f.table) / (2 * h)


def _zero_monotone_tables_exhaustive(q):
    for bits in itertools.product((0.0, 1.0), repeat=q * q):
        f = QaryFunction.from_table(q, 2, bits, codomain="real")
        if check_zero_monotone(f).passed:
            yield f


def test_criterion_05_russo_formula():
    checked = 0
    for q in (2, 3):
        base_atoms = np.zeros(q)
        base_atoms[1:] = 1.0 / (q - 1)
        path = MeasurePath(anchor=0, base=ProductMeasure(q, base_atoms))
        for f in _zero_monotone_tables_exhaustive(q):
            for t in (0.2, 0.5, 0.8):
                derivative = russo_derivative(f, path, t)
                assert abs(derivative - _finite_difference(f, path, t)) <= 1e-5
                rep = russo_report(f, path, t)
                assert rep.derivative >= rep.influence_sum_path_measure - 1e-9
                checked += 1
    rng = np.random.default_rng(90210)
    for _ in range(40):
        q = int(rng.integers(2, 4))
        table = zero_monotone_closure(rng.integers(0, 2, size=q**3), q, 3)
        f = QaryFunction.from_table(q, 3, table.astype(float), codomain="real")
        base_atoms = np.zeros(q)
        base_atoms[1:] = rng.dirichlet(np.ones(q - 1))
        path = MeasurePath(anchor=0, base=ProductMeasure(q, base_atoms))
        t = float(rng.uniform(0.05, 0.95))
        derivative = russo_derivative(f, path, t)
        assert abs(derivative - _finite_difference(f, path, t)) <= 1e-5
        rep = russo_report(f, path, t)
        assert rep.derivative >= rep.influence_sum_path_measure - 1e-9
        checked += 1
    _pass(5, f"derivative matches finite differences and dominates influence sums "
             f"({checked} instances)")


def test_criterion_06_threshold_shrinkage():
    base = ProductMeasure(2, [0.0, 1.0])
    widths = []
    for n in (9, 81, 729):
        curve = scan_path(plurality(2, n), 0, base, grid_size=101)
        widths.append(threshold_window(curve, 0.1).width)
    assert widths[0] > widths[1] > widths[2]
    _pass(6, f"exact window widths at n = 9, 81, 729 strictly decrease: "
             f"{[round(w, 4) for w in widths]}")


def test_criterion_07_simplex_sweep_calibration():
    dictator_rep = simplex_sweep(
        dictator(2, 1), 0, 0.1, SimplexSampler(2, seed=2026), 10_000
    )
    assert abs(dictator_rep.estimate - 0.8) <= 0.02
    plurality_rep = simplex_sweep(
        plurality(2, 729), 0, 0.1, SimplexSampler(2, seed=2026), 10_000
    )
    assert plurality_rep.estimate < dictator_rep.estimate
    _pass(7, f"dictator critical mass {dictator_rep.estimate:.4f} (closed form 0.8); "
             f"plurality(729) mass {plurality_rep.estimate:.4f} is smaller")


def test_criterion_08_jury_direction():
    mu = ProductMeasure(3, [0.45, 0.275, 0.275])
    rep = jury_experiment(plurality(3, 501), mu, 0, 10_000, seed=1)
    assert rep.p_hat >= 0.95
    _pass(8, f"leader elected with frequency {rep.p_hat:.4f} >= 0.95 at n = 501")


def test_criterion_09_counterexample_family():
    n = 50
    f = antisym_majority(n)
    for p in np.linspace(0.1, 0.9, 9):
        mu = ProductMeasure(2, [p, 1 - p])
        est = mc_estimate(f, mu, 1, 20_000, seed=int(round(p * 100)))
        rho = p * p + (1 - p) ** 2
        assert abs(est.p_hat - 0.5) <= rho**n / 2 + 3 * est.half_width
    small = antisym_majority(6).tabulate().as_real()
    mu = ProductMeasure.uniform(2)
    bound = 2 / math.sqrt(12)
    for i in range(12):
        assert influence(small, mu, i) <= bound
    _pass(9, "no threshold at n = 50 despite all influences <= 2/sqrt(12) at 12 bits")


def test_criterion_10_mcgarvey():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        target = Tournament.random(m, rng)
        profile = mcgarvey_profile(target)
        assert np.array_equal(majority_relation(profile), target.beats)
    _pass(10, "200 random tournaments (m <= 6) realized exactly by strict majority")


def _all_choice_functions_m3():
    for p01 in (0, 1):
        for p12 in (1, 2):
            for p02 in (0, 2):
                for triple in (0, 1, 2):
                    yield ChoiceFunction(
                        3,
                        {
                            0b001: 0, 0b010: 1, 0b100: 2,
                            0b011: p01, 0b110: p12, 0b101: p02,
                            0b111: triple,
                        },
                    )


def test_criterion_11_saari_and_indeterminacy():
    realized = 0
    for c0 in _all_choice_functions_m3():
        profile = saari_search(c0)
        assert profile is not None
        for mask in nonempty_subsets(3):
            assert plurality_choice(profile, mask) == c0.get(mask)
        realized += 1
    assert realized == 24
    cyclic = ChoiceFunction(
        3, {0b001: 0, 0b010: 1, 0b100: 2, 0b011: 0, 0b110: 1, 0b101: 2, 0b111: 0}
    )
    from threshold_lab import is_rational

    assert is_rational(cyclic) is None
    profile = saari_search(cyclic)
    small = indeterminacy_experiment(cyclic, 100, 200, seed=77, profile=profile)
    large = indeterminacy_experiment(cyclic, 10_000, 200, seed=77, profile=profile)
    assert large.min_subset > small.min_subset
    _pass(11, f"all 24 choice functions realized; agreement trend "
              f"{small.min_subset:.3f} -> {large.min_subset:.3f} as voters grow")


def test_criterion_12_structural_checks():
    for q in (2, 3):
        for n in range(1, 5):
            f = plurality(q, n).tabulate()
            assert check_monotone(f).passed
            assert check_fair(f).passed
    for q in (2, 3):
        for vertices in (3, 4, 5):
            group = None
            for kind in ("most_popular_color", "max_clique_color",
                         "min_independent_set_color"):
                f = graph_property(vertices, q, kind).tabulate()
                if group is None:
                    group = SymmetryGroup(f.n, tuple(vertex_action_generators(vertices)))
                result = check_symmetric(f, group)
                assert result.passed and result.group_transitive
                if vertices <= 4:
                    assert check_monotone(f).passed
    _pass(12, "plurality monotone+fair (q <= 3, n <= 4); graph properties symmetric "
              "(v <= 5) and monotone (v <= 4)")
