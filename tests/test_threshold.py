import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    DimensionMismatchError,
    InvalidFunctionError,
    MeasurePath,
    Oracle,
    ProductMeasure,
    QaryFunction,
    SimplexSampler,
    WindowUndefinedError,
    dictator,
    influence,
    jury_experiment,
    mc_estimate,
    plurality,
    russo_derivative,
    russo_report,
    scan_path,
    simplex_sweep,
    threshold_window,
)
from threshold_lab import threshold
from threshold_lab.threshold import NoStrictLeaderError, critical_bound_shape

from oracles import zero_monotone_closure

BASE2 = ProductMeasure(2, [0.0, 1.0])


def majority3_indicator():
    pts = itertools.product((0, 1), repeat=3)
    f = QaryFunction.from_table(2, 3, [0 if x.count(0) >= 2 else 1 for x in pts])
    return f.indicator(0)


def random_zero_monotone(q, n, rng):
    raw = rng.integers(0, 2, size=q**n)
    table = zero_monotone_closure(raw, q, n)
    return QaryFunction.from_table(q, n, table.astype(float), codomain="real")


class TestRussoDerivative:
    def test_single_coordinate_indicator(self):
        # n=1, f = 1[x = anchor]: derivative is 1 everywhere on the path
        f = QaryFunction.from_table(3, 1, [1.0, 0.0, 0.0], codomain="real")
        path = MeasurePath(anchor=0, base=ProductMeasure(3, [0.0, 0.5, 0.5]))
        for t in (0.0, 0.3, 1.0):
            assert russo_derivative(f, path, t) == pytest.approx(1.0, abs=1e-12)

    def test_majority_halfway(self):
        path = MeasurePath(anchor=0, base=BASE2)
        # G(t) = 3t^2 - 2t^3, so G'(1/2) = 3/2
        assert russo_derivative(majority3_indicator(), path, 0.5) == pytest.approx(1.5)

    def test_constant_function(self):
        f = QaryFunction.from_table(2, 2, [1.0] * 4, codomain="real")
        path = MeasurePath(anchor=0, base=BASE2)
        assert russo_derivative(f, path, 0.3) == pytest.approx(0.0)

    def test_refuses_non_monotone(self):
        f = QaryFunction.from_table(2, 1, [0.0, 1.0], codomain="real")  # 1[x != 0]
        path = MeasurePath(anchor=0, base=BASE2)
        with pytest.raises(InvalidFunctionError):
            russo_derivative(f, path, 0.5)

    def test_matches_finite_difference_exhaustive_n2(self):
        # every 0-monotone {0,1} table at q <= 3, n = 2
        for q in (2, 3):
            base_atoms = np.zeros(q)
            base_atoms[1:] = 1.0 / (q - 1)
            path = MeasurePath(anchor=0, base=ProductMeasure(q, base_atoms))
            count = 0
            for bits in itertools.product((0.0, 1.0), repeat=q**2):
                f = QaryFunction.from_table(q, 2, bits, codomain="real")
                from threshold_lab import check_zero_monotone

                if not check_zero_monotone(f).passed:
                    continue
                count += 1
                for t in (0.25, 0.5, 0.75):
                    h = 1e-4
                    lo = float(
                        np.dot(
                            _weights(path.measure_at(t - h), 2), f.table
                        )
                    )
                    hi = float(
                        np.dot(
                            _weights(path.measure_at(t + h), 2), f.table
                        )
                    )
                    fd = (hi - lo) / (2 * h)
                    assert russo_derivative(f, path, t) == pytest.approx(fd, abs=1e-5)
            assert count > 2  # the filter must keep nontrivial instances

    def test_matches_finite_difference_sampled_n3(self, rng):
        for _ in range(25):
            q = int(rng.integers(2, 4))
            f = random_zero_monotone(q, 3, rng)
            base_atoms = np.zeros(q)
            rest = rng.dirichlet(np.ones(q - 1))
            base_atoms[1:] = rest
            path = MeasurePath(anchor=0, base=ProductMeasure(q, base_atoms))
            t = float(rng.uniform(0.1, 0.9))
            h = 1e-4
            w_lo = _weights(path.measure_at(t - h), 3)
            w_hi = _weights(path.measure_at(t + h), 3)
            fd = float((w_hi - w_lo) @ f.table) / (2 * h)
            assert russo_derivative(f, path, t) == pytest.approx(fd, abs=1e-5)

    def test_dominates_influence_sum_at_path_measure(self, rng):
        for _ in range(25):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            f = random_zero_monotone(q, n, rng)
            base_atoms = np.zeros(q)
            base_atoms[1:] = rng.dirichlet(np.ones(q - 1))
            path = MeasurePath(anchor=0, base=ProductMeasure(q, base_atoms))
            t = float(rng.uniform(0.0, 1.0))
            rep = russo_report(f, path, t)
            assert rep.derivative >= rep.influence_sum_path_measure - 1e-9
            assert rep.derivative >= rep.conditional_variance_sum - 1e-9

    def test_influence_sums_equal_per_coordinate_influences(self, rng):
        f = random_zero_monotone(3, 4, rng)
        path = MeasurePath(anchor=0, base=ProductMeasure(3, [0.0, 0.3, 0.7]))
        rep = russo_report(f, path, 0.4)
        real = f.as_real()
        mu_t = path.measure_at(0.4)
        assert rep.influence_sum_path_measure == sum(influence(real, mu_t, i) for i in range(4))
        assert rep.influence_sum_base_measure == sum(
            influence(real, path.base, i) for i in range(4)
        )

    def test_base_measure_influence_sum_can_exceed_derivative(self):
        # q=3 OR-style function: far along the path the derivative drops
        # below the base-measure influence sum, which is why the report
        # records that sum without asserting it as a bound
        pts = list(itertools.product(range(3), repeat=2))
        f = QaryFunction.from_table(
            3, 2, [1.0 if (x[0] != 2 or x[1] != 2) else 0.0 for x in pts],
            codomain="real",
        )
        path = MeasurePath(anchor=0, base=ProductMeasure(3, [0.0, 0.5, 0.5]))
        rep = russo_report(f, path, 0.9)
        assert rep.derivative == pytest.approx(0.05, abs=1e-12)
        assert rep.influence_sum_base_measure == pytest.approx(0.25, abs=1e-12)
        assert rep.influence_sum_base_measure > rep.derivative


def _weights(measure, n):
    from threshold_lab.core import product_weights

    return product_weights(measure, n)


class TestScanPath:
    def test_plurality_endpoints(self):
        f = plurality(3, 5)
        base = ProductMeasure(3, [0.0, 0.5, 0.5])
        curve = scan_path(f, 0, base, grid_size=11)
        assert curve.values[0] == pytest.approx(0.0, abs=1e-12)
        assert curve.values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_majority_grid_values(self):
        curve = scan_path(majority3_indicator_alphabet(), 0, BASE2, grid_size=5)
        expected = [3 * t**2 - 2 * t**3 for t in (0, 0.25, 0.5, 0.75, 1.0)]
        assert np.allclose(curve.values, expected, atol=1e-12)

    def test_exact_curve_nondecreasing_for_monotone(self, rng):
        f = plurality(2, 7)
        curve = scan_path(f, 0, BASE2, grid_size=51)
        assert np.all(np.diff(curve.values) >= -1e-10)

    def test_mc_mode_seed_determinism(self):
        f = plurality(2, 9)
        c1 = scan_path(f, 0, BASE2, grid_size=5, method="mc", samples=500, seed=3)
        c2 = scan_path(f, 0, BASE2, grid_size=5, method="mc", samples=500, seed=3)
        assert np.array_equal(c1.values, c2.values)
        assert c1.half_widths is not None

    def test_mc_close_to_exact(self):
        f = plurality(2, 9)
        exact = scan_path(f, 0, BASE2, grid_size=5)
        mc = scan_path(f, 0, BASE2, grid_size=5, method="mc", samples=4000, seed=1)
        assert np.all(np.abs(mc.values - exact.values) <= 3 * mc.half_widths + 1e-9)

    def test_rejects_bad_base(self):
        f = plurality(2, 3)
        with pytest.raises(Exception):
            scan_path(f, 0, ProductMeasure(2, [0.5, 0.5]), grid_size=5)


def majority3_indicator_alphabet():
    pts = itertools.product((0, 1), repeat=3)
    return QaryFunction.from_table(2, 3, [0 if x.count(0) >= 2 else 1 for x in pts])


class TestThresholdWindow:
    def test_half_level_gives_zero_width(self):
        curve = scan_path(majority3_indicator_alphabet(), 0, BASE2, grid_size=21)
        window = threshold_window(curve, 0.5)
        assert window.width == pytest.approx(0.0, abs=1e-12)
        assert window.t_lo == pytest.approx(0.5, abs=1e-6)

    def test_majority_crossings_match_polynomial_roots(self):
        curve = scan_path(majority3_indicator_alphabet(), 0, BASE2, grid_size=101)
        window = threshold_window(curve, 0.1)
        # root of 3t^2 - 2t^3 = 0.1 in (0, 0.5), found independently by bisection
        lo, hi = 0.0, 0.5
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2
            if 3 * mid**2 - 2 * mid**3 < 0.1:
                lo = mid
            else:
                hi = mid
        t_root = (lo + hi) / 2
        assert window.t_lo == pytest.approx(t_root, abs=1e-5)
        assert window.t_hi == pytest.approx(1 - t_root, abs=1e-5)
        assert window.width == pytest.approx(1 - 2 * t_root, abs=1e-5)

    def test_widths_shrink_with_population(self):
        widths = []
        for n in (9, 81, 729):
            curve = scan_path(plurality(2, n), 0, BASE2, grid_size=101)
            widths.append(threshold_window(curve, 0.1).width)
        assert widths[0] > widths[1] > widths[2]

    def test_error_when_curve_does_not_cross(self):
        f = QaryFunction.from_table(2, 2, [1, 1, 1, 1])
        curve = scan_path(f, 1, ProductMeasure(2, [1.0, 0.0]), grid_size=5)
        with pytest.raises(WindowUndefinedError):
            threshold_window(curve, 0.1)

    def test_width_invariant_under_relabeling_off_anchor(self):
        # for a fair function, swapping the non-anchor symbols of the base
        # measure relabels inputs and cannot move the curve
        f = plurality(3, 5)
        w1 = threshold_window(
            scan_path(f, 0, ProductMeasure(3, [0.0, 0.3, 0.7]), grid_size=51), 0.2
        )
        w2 = threshold_window(
            scan_path(f, 0, ProductMeasure(3, [0.0, 0.7, 0.3]), grid_size=51), 0.2
        )
        assert w1.width == pytest.approx(w2.width, abs=1e-9)

    def test_mc_mode_interpolates(self):
        f = plurality(2, 81)
        curve = scan_path(f, 0, BASE2, grid_size=41, method="mc", samples=2000, seed=9)
        window = threshold_window(curve, 0.1)
        exact = threshold_window(scan_path(f, 0, BASE2, grid_size=41), 0.1)
        assert window.width == pytest.approx(exact.width, abs=0.1)


class TestMCEstimate:
    def test_constant(self):
        f = QaryFunction.from_table(2, 2, [1, 1, 1, 1])
        est = mc_estimate(f, ProductMeasure.uniform(2), 1, 100, seed=0)
        assert est.p_hat == 1.0
        assert est.half_width == 0.0

    def test_majority_value(self):
        f = majority3_indicator_alphabet()
        est = mc_estimate(f, ProductMeasure(2, [0.6, 0.4]), 0, 100_000, seed=5)
        assert abs(est.p_hat - 0.648) <= 3 * est.half_width

    def test_seed_determinism(self):
        f = majority3_indicator_alphabet()
        mu = ProductMeasure(2, [0.6, 0.4])
        a = mc_estimate(f, mu, 0, 1000, seed=42)
        b = mc_estimate(f, mu, 0, 1000, seed=42)
        assert a.p_hat == b.p_hat

    def test_needs_samples(self):
        f = majority3_indicator_alphabet()
        with pytest.raises(DimensionMismatchError):
            mc_estimate(f, ProductMeasure.uniform(2), 0, 0, seed=1)


class TestSimplexSweep:
    def test_constant_function_never_critical(self):
        f = QaryFunction.from_table(2, 2, [0, 0, 0, 0])
        rep = simplex_sweep(f, 0, 0.1, SimplexSampler(2, seed=8), 500)
        assert rep.estimate == 0.0

    def test_dictator_calibration(self):
        rep = simplex_sweep(dictator(2, 1), 0, 0.1, SimplexSampler(2, seed=42), 10_000)
        assert rep.estimate == pytest.approx(0.8, abs=0.02)

    def test_plurality_sharper_than_dictator(self):
        dict_rep = simplex_sweep(
            dictator(2, 1), 0, 0.1, SimplexSampler(2, seed=42), 4000
        )
        plur_rep = simplex_sweep(
            plurality(2, 729), 0, 0.1, SimplexSampler(2, seed=42), 4000
        )
        assert plur_rep.estimate < dict_rep.estimate

    def test_report_diagnostics(self):
        rep = simplex_sweep(plurality(2, 81), 0, 0.1, SimplexSampler(2, seed=1), 1000)
        assert rep.eta == pytest.approx(
            (math.log(0.9) - math.log(0.1)) / math.log(81)
        )
        assert 0.0 <= rep.noninterior_fraction <= 1.0
        assert rep.bound_shape == pytest.approx(critical_bound_shape(0.1, 81))

    def test_nested_mc_for_structureless_oracle(self):
        from threshold_lab import recursive_plurality

        f = recursive_plurality(2, 3, 5)  # 243 inputs, no table, no exact evaluator
        rep = simplex_sweep(
            f, 0, 0.1, SimplexSampler(2, seed=2), 50, inner_samples=200
        )
        assert 0.0 <= rep.estimate <= 1.0


class TestJuryExperiment:
    def test_strongly_biased_three_way(self):
        mu = ProductMeasure(3, [0.45, 0.275, 0.275])
        rep = jury_experiment(plurality(3, 501), mu, 0, 2000, seed=13)
        assert rep.p_hat >= 0.95
        assert rep.margin == pytest.approx(0.175)

    def test_point_mass_always_wins(self):
        mu = ProductMeasure(3, [1.0, 0.0, 0.0])
        rep = jury_experiment(plurality(3, 21), mu, 0, 500, seed=3)
        assert rep.p_hat == 1.0

    def test_single_voter_dictator(self):
        rep = jury_experiment(dictator(2, 1), ProductMeasure(2, [0.6, 0.4]), 0,
                              50_000, seed=17)
        assert rep.p_hat == pytest.approx(0.6, abs=3 * rep.half_width)

    def test_requires_strict_leader(self):
        mu = ProductMeasure(3, [0.4, 0.4, 0.2])
        with pytest.raises(NoStrictLeaderError):
            jury_experiment(plurality(3, 9), mu, 0, 100, seed=0)

    def test_perturbation_diagnostic_reported(self):
        mu = ProductMeasure(3, [0.45, 0.275, 0.275])
        rep = jury_experiment(plurality(3, 501), mu, 0, 1000, seed=4)
        assert rep.perturbed_atoms is not None
        log_n = math.log(501)
        assert rep.perturbed_atoms[1] == pytest.approx(0.275 + 1 / log_n)
        assert rep.perturbed_atoms[0] == pytest.approx(0.45 - 2 / log_n)
        # dominance direction, with generous statistical slack
        slack = 3 * (rep.half_width + rep.half_width_perturbed)
        assert rep.p_hat >= rep.p_hat_perturbed - slack


class TestCounterexampleFamily:
    def test_no_sharp_threshold_despite_small_influences(self):
        from threshold_lab import antisym_majority

        f = antisym_majority(50)
        n = 50
        for p in np.linspace(0.1, 0.9, 9):
            mu = ProductMeasure(2, [p, 1 - p])
            est = mc_estimate(f, mu, 1, 20_000, seed=int(p * 1000))
            rho = p * p + (1 - p) ** 2
            bound = rho**n / 2 + 3 * est.half_width
            assert abs(est.p_hat - 0.5) <= bound


def _recorded_draws(measure, n, samples, seed, chunk_entries):
    """The point chunks ``mc_estimate`` hands to ``batch``, with chunks of
    ``chunk_entries`` coordinates."""
    drawn = []

    def record(X):
        drawn.append(X.copy())
        return np.zeros(X.shape[0], dtype=np.int64)

    f = QaryFunction.from_oracle(measure.q, n, Oracle(name="record", params={}, batch=record))
    with mock.patch.object(threshold, "_MC_CHUNK_ENTRIES", chunk_entries):
        mc_estimate(f, measure, 0, samples, seed)
    return drawn


def _choice_draws(measure, n, samples, seed, chunk_entries):
    rng = np.random.default_rng(seed)
    rows = max(1, chunk_entries // n)
    return [
        rng.choice(measure.q, size=(min(rows, samples - start), n), p=measure.atoms)
        for start in range(0, samples, rows)
    ]


@settings(max_examples=150, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=2, max_size=6
    ).filter(lambda w: sum(w) > 0),
    n=st.integers(1, 6),
    samples=st.integers(1, 40),
    chunk_entries=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_draws_are_rng_choice_bitwise(weights, n, samples, chunk_entries, seed):
    # zero atoms repeat a cdf entry; small chunks make several draws per estimate
    atoms = np.array(weights) / sum(weights)
    measure = ProductMeasure(len(atoms), atoms)
    drawn = _recorded_draws(measure, n, samples, seed, chunk_entries)
    want = _choice_draws(measure, n, samples, seed, chunk_entries)
    assert len(drawn) == len(want)
    for got, expected in zip(drawn, want):
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)


def test_mc_draws_past_one_byte_alphabets():
    q = 300
    atoms = np.linspace(0.0, 1.0, q)
    measure = ProductMeasure(q, atoms / atoms.sum())
    drawn = _recorded_draws(measure, 7, 500, 3, 1000)
    want = _choice_draws(measure, 7, 500, 3, 1000)
    assert [X.dtype for X in drawn] == [np.dtype(np.uint16)] * len(want)
    assert all(np.array_equal(got, expected) for got, expected in zip(drawn, want))


def test_mc_draws_match_rng_choice_on_cdf_entries():
    # a uniform equal to a cdf entry is where ">=" and ">" part; with atoms
    # summing to 1 - 5e-13, within the measure's tolerance, dividing the cdf
    # by its last entry moves the entry past that uniform
    for seed in range(40):
        u = np.random.default_rng(seed).random()
        for atoms in ([u, 1.0 - u], [u, 1.0 - u - 5e-13]):
            measure = ProductMeasure(len(atoms), atoms)
            drawn = _recorded_draws(measure, 1, 1, seed, 1)
            assert np.array_equal(drawn[0], _choice_draws(measure, 1, 1, seed, 1)[0])
