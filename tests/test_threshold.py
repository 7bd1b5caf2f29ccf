import dataclasses
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
    TableSizeError,
    ThresholdCurve,
    WindowUndefinedError,
    antisym_majority,
    dictator,
    graph_property,
    influence,
    jury_experiment,
    mc_estimate,
    permute_input_symbols,
    plurality,
    prob_value,
    recursive_plurality,
    russo_derivative,
    russo_report,
    scan_path,
    simplex_sweep,
    threshold_window,
)
from threshold_lab import core, fileio, threshold
from threshold_lab.threshold import NoStrictLeaderError, critical_bound_shape

from oracles import full_grid_window, outer_product_weights, zero_monotone_closure

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
            # the one-entry restriction tables are their own means
            rep = russo_report(f, path, t)
            assert rep.derivative == pytest.approx(1.0, abs=1e-12)
            assert rep.influence_sum_path_measure == pytest.approx(t * (1 - t), abs=1e-12)
            assert rep.influence_sum_base_measure == 0.0
            assert rep.conditional_variance_sum == 0.0

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
                            outer_product_weights(path.measure_at(t - h), 2), f.table
                        )
                    )
                    hi = float(
                        np.dot(
                            outer_product_weights(path.measure_at(t + h), 2), f.table
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
            w_lo = outer_product_weights(path.measure_at(t - h), 3)
            w_hi = outer_product_weights(path.measure_at(t + h), 3)
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

    def test_exact_needs_a_table_or_structured_evaluator(self):
        with pytest.raises(TableSizeError):
            scan_path(recursive_plurality(2, 3, 2), 0, BASE2, grid_size=5)


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


def _up_set_table(q, n, a, rng):
    """An alphabet table that is ``a`` on a random up-set of ``<=_a`` and
    ``(a + 1) mod q`` elsewhere, so ``P[f = a]`` is non-decreasing toward ``a``."""
    closed = zero_monotone_closure(rng.integers(0, 2, size=q**n), q, n)
    swap = np.arange(q)
    swap[[0, a]] = swap[[a, 0]]
    up = permute_input_symbols(QaryFunction.from_table(q, n, closed, out_q=2), swap)
    return QaryFunction.from_table(q, n, np.where(up.table == 1, a, (a + 1) % q))


def _window_or_error(window, curve, eps):
    try:
        return window(curve, eps)
    except WindowUndefinedError as err:
        return str(err)


def _spied(f):
    """``f`` with its oracle's ``exact_prob`` counting its calls in ``calls``."""
    calls = []
    exact = f.oracle.exact_prob

    def counted(measure, a):
        calls.append(a)
        return exact(measure, a)

    oracle = Oracle(f.oracle.name, f.oracle.params, f.oracle.batch, counted)
    return QaryFunction.from_oracle(f.q, f.n, oracle), calls


class TestLazyWindow:
    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["first_occurrence", "smallest_index", "dictator", "table"]),
        q=st.integers(2, 5),
        n=st.integers(1, 40),
        anchor_seed=st.integers(0, 2**32 - 1),
        eps=st.floats(1e-3, 0.5),
        grid=st.one_of(st.sampled_from([2, 3]), st.integers(2, 101)),
    )
    def test_equals_the_full_grid_window(self, kind, q, n, anchor_seed, eps, grid):
        rng = np.random.default_rng(anchor_seed)
        a = int(rng.integers(q))
        if kind == "dictator":
            f = dictator(q, n, int(rng.integers(n)))
        elif kind == "table":
            n = min(n, {2: 6, 3: 4, 4: 3, 5: 3}[q])
            f = _up_set_table(q, n, a, rng)
        else:
            f = plurality(q, n, kind)
        atoms = rng.dirichlet(np.ones(q))
        atoms[a] = 0.0
        base = ProductMeasure(q, atoms / atoms.sum())
        lazy = _window_or_error(threshold_window, scan_path(f, a, base, grid_size=grid), eps)
        full = _window_or_error(full_grid_window, scan_path(f, a, base, grid_size=grid), eps)
        assert lazy == full

    def test_grid_101_window_reads_few_nodes(self):
        f, calls = _spied(plurality(3, 45))
        curve = scan_path(f, 0, ProductMeasure(3, [0.0, 0.4, 0.6]))
        assert calls == []
        threshold_window(curve, 0.1)
        assert 0 < len(calls) <= 44

    def test_values_evaluate_only_the_nodes_not_read_yet(self):
        f, calls = _spied(plurality(3, 45))
        curve = scan_path(f, 0, ProductMeasure(3, [0.0, 0.4, 0.6]), grid_size=21)
        threshold_window(curve, 0.1)
        before = len(calls)
        values = curve.values
        first_read = len(calls) - before
        assert 0 < first_read < 21
        assert np.array_equal(curve.values, values)
        assert len(calls) == before + first_read

    def test_non_monotone_crossing_lies_in_a_bracketing_cell(self):
        # G(t) = n t (1 - t)^(n - 1) + t^n rises to about 0.39, falls, then
        # rises to 1, so the level 0.2 is crossed three times
        n = 10
        f = QaryFunction.from_table(
            2, n, [int(sum(x) in (1, n)) for x in itertools.product((0, 1), repeat=n)]
        )
        curve = scan_path(f, 1, ProductMeasure(2, [1.0, 0.0]), grid_size=101)
        t_lo = threshold_window(curve, 0.2).t_lo
        i = int(np.searchsorted(curve.grid, t_lo))
        G = [prob_value(f, curve.path.measure_at(t), 1) for t in curve.grid[i - 1 : i + 1]]
        assert G[0] < 0.2 <= G[1]
        # the bisection's first probe, at t = 0.5, lies past the first crossing
        assert t_lo > 0.5 > full_grid_window(curve, 0.2).t_lo

    def test_undefined_window_names_the_range_of_every_node(self):
        # G(t) = 5 t (1 - t)^4 is 0 at both ends and peaks inside
        f = QaryFunction.from_table(
            2, 5, [int(sum(x) == 1) for x in itertools.product((0, 1), repeat=5)]
        )
        curve = scan_path(f, 1, ProductMeasure(2, [1.0, 0.0]), grid_size=11)
        peak = max(prob_value(f, curve.path.measure_at(t), 1) for t in curve.grid)
        with pytest.raises(WindowUndefinedError) as err:
            threshold_window(curve, 0.1)
        assert str(err.value) == f"curve does not cross level 0.1: range [0, {peak:.6g}]"


def _point_mass(a):
    """The base measure on {0, 1} that puts all its mass off the anchor ``a``."""
    return ProductMeasure(2, [float(a), 1.0 - a])


@pytest.fixture
def mc_calls(monkeypatch):
    """The ``mc_estimate`` calls the curves make, one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[4])
        return mc_estimate(*args, **kwargs)

    monkeypatch.setattr(threshold, "mc_estimate", counted)
    return calls


class TestLazyMCCurve:
    def test_window_samples_only_the_nodes_up_to_its_crossings(self, mc_calls):
        f = recursive_plurality(2, 3, 4)
        curve = scan_path(f, 0, _point_mass(0), grid_size=21, method="mc", samples=500, seed=11)
        assert mc_calls == []
        threshold_window(curve, 0.1)
        read = len(mc_calls)
        assert 0 < read <= 16  # a full scan would sample all 21 nodes
        values = curve.values
        assert len(mc_calls) == 21
        assert sorted(stream[1] for stream in mc_calls) == list(range(21))
        assert np.array_equal(curve.values, values) and len(mc_calls) == 21

    @pytest.mark.parametrize("a", [0, 1])
    def test_nodes_are_the_per_node_estimates(self, a):
        f = plurality(2, 15)
        curve = scan_path(f, a, _point_mass(a), grid_size=9, method="mc", samples=300, seed=4)
        threshold_window(curve, 0.2)  # reads some nodes first, in its own order
        estimates = [
            mc_estimate(f, curve.path.measure_at(t), a, 300, [4, i])
            for i, t in enumerate(curve.grid)
        ]
        assert curve.values.tobytes() == np.array([e.p_hat for e in estimates]).tobytes()
        assert curve.half_widths.tobytes() == np.array([e.half_width for e in estimates]).tobytes()

    def test_exact_curve_has_no_half_widths(self):
        assert scan_path(plurality(2, 5), 0, BASE2, grid_size=3).half_widths is None

    @settings(max_examples=80)
    @given(
        kind=st.sampled_from(["plurality", "antisym_majority", "recursive_plurality", "dictator"]),
        n=st.integers(1, 12),
        a=st.sampled_from([0, 1]),
        grid=st.integers(2, 31),
        # levels a node can equal exactly, at a few samples per node
        eps=st.one_of(st.floats(1e-3, 0.5), st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5])),
        samples=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_full_grid_window(self, kind, n, a, grid, eps, samples, seed):
        f = {
            "plurality": lambda: plurality(2, n),
            "antisym_majority": lambda: antisym_majority(max(1, n // 2)),
            "recursive_plurality": lambda: recursive_plurality(2, 3, 2),
            "dictator": lambda: dictator(2, n, n // 2),
        }[kind]()

        def fresh():
            return scan_path(
                f, a, _point_mass(a), grid_size=grid, method="mc", samples=samples, seed=seed
            )

        lazy = _window_or_error(threshold_window, fresh(), eps)
        assert lazy == _window_or_error(full_grid_window, fresh(), eps)

    @pytest.mark.parametrize(
        "f, a, samples, error",
        [
            (plurality(2, 5), 0, 0, DimensionMismatchError),
            (QaryFunction.from_table(3, 2, [0, 1, 0, 1, 1, 0, 0, 0, 1], out_q=2), 2, 10,
             DimensionMismatchError),
            (QaryFunction.from_table(2, 2, [0.5, 1.0, 0.0, 0.25], codomain="real"), 0, 10,
             InvalidFunctionError),
        ],
        ids=["no-samples", "symbol-out-of-range", "real-codomain"],
    )
    def test_argument_errors_surface_when_the_curve_is_built(
        self, mc_calls, f, a, samples, error
    ):
        base = ProductMeasure(f.q, np.eye(f.q)[(a + 1) % f.q])
        with pytest.raises(error):
            scan_path(f, a, base, grid_size=5, method="mc", samples=samples)
        assert mc_calls == []


@pytest.fixture
def resolved(monkeypatch):
    """``(name, streams)`` of each evaluator ``threshold`` or ``core`` resolves,
    ``streams`` growing by the stream of each call of its ``prob``."""
    evaluators = []

    def spy(resolve):
        def spied(*args):
            evaluator = resolve(*args)
            if evaluator is None:
                return None
            streams = []
            evaluators.append((evaluator.name, streams))

            def prob(measure, stream=None):
                streams.append(stream)
                return evaluator.prob(measure, stream)

            return dataclasses.replace(evaluator, prob=prob)

        return spied

    monkeypatch.setattr(threshold, "_exact_prob", spy(core._exact_prob))
    monkeypatch.setattr(core, "_exact_prob", spy(core._exact_prob))
    monkeypatch.setattr(threshold, "_mc_evaluator", spy(threshold._mc_evaluator))
    return evaluators


class TestEvaluator:
    """Every ``P[f = a]`` is read through one resolved evaluator's ``prob``: each
    law or Monte Carlo call below is one ``prob`` call of the one evaluator."""

    def test_exact_scan(self, resolved):
        f, calls = _spied(plurality(3, 21))
        values = scan_path(f, 0, ProductMeasure(3, [0.0, 0.5, 0.5]), grid_size=11).values
        assert resolved == [("exact:plurality", list(range(11)))] and len(calls) == 11
        assert values[-1] == 1.0

    def test_mc_scan(self, resolved, mc_calls):
        f = recursive_plurality(2, 3, 2)
        scan_path(f, 0, _point_mass(0), grid_size=6, method="mc", samples=50, seed=7).values
        assert resolved == [("mc", list(range(6)))]
        assert mc_calls == [[7, i] for i in range(6)]

    def test_window_with_its_refinement(self, resolved):
        f, calls = _spied(plurality(3, 45))
        curve = scan_path(f, 0, ProductMeasure(3, [0.0, 0.5, 0.5]))
        threshold_window(curve, 0.1)
        [(name, streams)] = resolved
        assert name == "exact:plurality" and len(streams) == len(calls)
        nodes = [i for i in streams if i is not None]
        assert len(set(nodes)) == len(nodes) < len(streams)  # off-grid reads are None

    def test_exact_sweep(self, resolved):
        f, calls = _spied(plurality(3, 21))
        simplex_sweep(f, 0, 0.1, SimplexSampler(3, seed=1), 20)
        assert resolved == [("exact:plurality", list(range(20)))] and len(calls) == 20

    def test_nested_mc_sweep(self, resolved, mc_calls):
        f = recursive_plurality(2, 3, 2)
        simplex_sweep(f, 0, 0.1, SimplexSampler(2, seed=3), 10, inner_samples=30)
        assert resolved == [("mc", list(range(10)))]
        assert mc_calls == [[3, i] for i in range(10)]

    def test_jury(self, resolved, mc_calls):
        f, mu = recursive_plurality(2, 3, 2), ProductMeasure(2, [0.7, 0.3])
        report = jury_experiment(f, mu, 0, 40, seed=5)
        assert resolved == [("mc", [0, 1])]
        assert mc_calls == [[5, 0], [5, 1]]
        perturbed = ProductMeasure(2, report.perturbed_atoms)
        for p_hat, half_width, measure, stream in (
            (report.p_hat, report.half_width, mu, 0),
            (report.p_hat_perturbed, report.half_width_perturbed, perturbed, 1),
        ):
            est = mc_estimate(f, measure, 0, 40, [5, stream])
            assert (p_hat, half_width) == (est.p_hat, est.half_width)

    @pytest.mark.parametrize(
        "build, atoms, name",
        [
            (lambda tmp: plurality(3, 21), [0.8, 0.1, 0.1], "exact:plurality"),
            (lambda tmp: dictator(3, 1000, 7), [0.8, 0.15, 0.05], "exact:dictator"),
            (lambda tmp: graph_property(8, 3, "most_popular_color"), [0.8, 0.1, 0.1],
             "exact:graph_property"),
            (lambda tmp: _table_file(plurality(2, 9), tmp), [0.8, 0.2], "table"),
        ],
        ids=["plurality", "dictator", "most_popular_color", "table-file"],
    )
    def test_exact_jury(self, resolved, mc_calls, tmp_path, build, atoms, name):
        f, mu = build(tmp_path), ProductMeasure(len(atoms), atoms)
        report = jury_experiment(f, mu, 0, 40, seed=5)
        assert resolved == [(name, [0, 1])] and mc_calls == []
        assert report.perturbed_atoms is not None and report.samples == 40
        perturbed = ProductMeasure(f.q, report.perturbed_atoms)
        assert report.p_hat == prob_value(f, mu, 0)
        assert report.p_hat_perturbed == prob_value(f, perturbed, 0)
        assert report.half_width == report.half_width_perturbed == 0.0

    def test_prob_value(self, resolved):
        f, calls = _spied(plurality(3, 5))
        mu = ProductMeasure(3, [0.2, 0.3, 0.5])
        assert prob_value(f, mu, 1) == plurality(3, 5).oracle.exact_prob(mu, 1)
        assert resolved == [("exact:plurality", [None])] and calls == [1]

    @pytest.mark.parametrize(
        "f, name",
        [
            (plurality(3, 3).tabulate(), "table"),
            (plurality(3, 5), "exact:plurality"),
            (dictator(3, 4), "exact:dictator"),
            (graph_property(4, 3, "most_popular_color"), "exact:graph_property"),
            (recursive_plurality(2, 3, 2), None),
        ],
        ids=["table", "plurality", "dictator", "most_popular_color", "recursive_plurality"],
    )
    def test_names(self, f, name):
        evaluator = core._exact_prob(f, 0)
        assert (evaluator and evaluator.name) == name

    def test_mc_curve_is_named_mc(self):
        curve = scan_path(plurality(2, 5), 0, BASE2, method="mc", samples=10, seed=2)
        assert (curve.evaluator.name, curve.method) == ("mc", "mc")
        assert (curve.evaluator.samples, curve.evaluator.seed) == (10, 2)

    def test_curve_holds_only_path_grid_and_evaluator(self):
        init = [field.name for field in dataclasses.fields(ThresholdCurve) if field.init]
        assert init == ["path", "grid", "evaluator"]


@pytest.fixture
def along_calls(monkeypatch):
    """The name of the evaluator of each ``Evaluator.along`` call, one entry per call."""
    calls = []
    along = core.Evaluator.along

    def counted(self, path):
        calls.append(self.name)
        return along(self, path)

    monkeypatch.setattr(core.Evaluator, "along", counted)
    return calls


def _traced(f):
    """``f`` with its oracle's ``exact_prob`` wrapped in a plain function counting its
    calls in ``calls``, swapped in by ``dataclasses.replace`` as a tracer does: the
    oracle keeps its other fields, its ``path_law`` too."""
    calls = []
    exact = f.oracle.exact_prob

    def counted(measure, a):
        calls.append(a)
        return exact(measure, a)

    oracle = dataclasses.replace(f.oracle, exact_prob=counted)
    return dataclasses.replace(f, oracle=oracle), calls


class TestAlong:
    """A curve reads ``G = evaluator.along(path)`` once; a family with a path law
    answers every node and bisection step from it, without ``exact_prob``."""

    BASE3 = ProductMeasure(3, [0.0, 0.4, 0.6])

    def test_scan(self, along_calls):
        f, calls = _traced(plurality(3, 21))
        curve = scan_path(f, 0, self.BASE3, grid_size=11)
        assert along_calls == []
        values = curve.values
        assert along_calls == ["exact:plurality"] and calls == []
        G = plurality(3, 21).oracle.path_law(curve.path, 0)
        assert values.tolist() == [G(t) for t in curve.grid]

    def test_window_with_its_refinement(self, along_calls):
        f, calls = _traced(plurality(3, 45))
        curve = scan_path(f, 0, self.BASE3)
        threshold_window(curve, 0.1)
        threshold_window(curve, 0.2)
        curve.values
        assert along_calls == ["exact:plurality"] and calls == []

    def test_most_popular_color_curve(self, along_calls):
        f, calls = _traced(graph_property(8, 3, "most_popular_color"))
        threshold_window(scan_path(f, 2, ProductMeasure(3, [0.5, 0.5, 0.0])), 0.1)
        assert along_calls == ["exact:graph_property"] and calls == []

    def test_tracing_keeps_the_path_law(self):
        f = plurality(4, 61)
        traced, calls = _traced(f)
        assert traced.oracle.path_law is f.oracle.path_law
        base = ProductMeasure(4, [1 / 3, 1 / 3, 1 / 3, 0.0])
        windows = [threshold_window(scan_path(g, 3, base), 0.1) for g in (f, traced)]
        assert windows[0] == windows[1] and calls == []

    def test_plain_oracles_read_exact_prob_at_each_measure(self, along_calls):
        # _spied builds its Oracle from four fields, so it has no path law
        f, calls = _spied(plurality(3, 45))
        assert f.oracle.path_law is None
        curve = scan_path(f, 0, self.BASE3, grid_size=21)
        threshold_window(curve, 0.1)
        read, nodes = len(calls), len(curve._nodes)
        assert along_calls == ["exact:plurality"] and read > nodes  # bisection steps too
        values = curve.values
        assert len(calls) == read + 21 - nodes
        exact = plurality(3, 45).oracle.exact_prob
        assert values.tolist() == [exact(curve.path.measure_at(t), 0) for t in curve.grid]

    def test_mc_and_table_curves_read_prob_at_each_measure(self, along_calls, mc_calls):
        mc = scan_path(plurality(2, 9), 0, BASE2, grid_size=5, method="mc", samples=30, seed=3)
        table = scan_path(plurality(2, 9).tabulate(), 0, BASE2, grid_size=5)
        threshold_window(mc, 0.2)
        threshold_window(table, 0.2)
        mc.values, table.values
        assert along_calls == ["mc", "table"]
        assert sorted(stream[1] for stream in mc_calls) == list(range(5))
        tab = plurality(2, 9).tabulate()
        assert table.values.tolist() == [
            prob_value(tab, table.path.measure_at(t), 0) for t in table.grid
        ]


def _table_file(f, tmp_path):
    """``f``'s table, written to a function file and loaded from it."""
    path = str(tmp_path / "f.json")
    fileio.save_function(f.tabulate(), path)
    return fileio.load_function(path)


def test_functions_with_an_exact_evaluator_are_never_sampled(monkeypatch):
    # every experiment reads the law of a function that has one; only a curve
    # built with method="mc" samples it
    monkeypatch.setattr(threshold, "mc_estimate", mock.Mock(side_effect=AssertionError("sampled")))
    f, mu = plurality(3, 9), ProductMeasure(3, [0.5, 0.3, 0.2])
    base = ProductMeasure(3, [0.0, 0.5, 0.5])
    prob_value(f, mu, 0)
    assert scan_path(f, 0, base, grid_size=11).values[-1] == 1.0
    threshold_window(scan_path(f, 0, base), 0.1)
    simplex_sweep(f, 0, 0.1, SimplexSampler(3, seed=1), 20)
    assert jury_experiment(f, mu, 0, 100, seed=2).half_width == 0.0


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

    @pytest.mark.parametrize("a", [-1, 2, 7])
    def test_rejects_symbol_outside_the_codomain(self, a):
        with pytest.raises(DimensionMismatchError):
            mc_estimate(recursive_plurality(2, 3, 2), ProductMeasure.uniform(2), a, 100, 0)

    def test_rejects_real_codomain(self):
        f = QaryFunction.from_table(2, 2, [0.0, 1.0, 1.0, 0.0], codomain="real")
        with pytest.raises(InvalidFunctionError):
            mc_estimate(f, ProductMeasure.uniform(2), 1, 100, 0)


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

    @pytest.mark.parametrize("eta, fraction", [(0.3, 0.0), (0.999, 0.0), (1.0, 0.0),
                                               (1.001, 1.0), (7.5, 1.0)])
    def test_noninterior_at_q2_compares_eta_with_the_one_conditional_atom(self, eta, fraction):
        assert threshold._noninterior_measure(2, eta) == fraction

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_noninterior_is_everything_from_eta_one_over_q_minus_1(self, q):
        for eta in (1 / (q - 1), 0.5, 1.0, 3.0):
            assert threshold._noninterior_measure(q, eta) == 1.0
        assert 0.0 < threshold._noninterior_measure(q, 0.99 / (q - 1)) < 1.0

    def test_noninterior_is_none_at_one_voter(self):
        rep = simplex_sweep(dictator(3, 1), 0, 0.1, SimplexSampler(3, seed=1), 10)
        assert rep.eta is None and rep.noninterior_fraction is None

    @pytest.mark.parametrize("q, a, n", [(2, 0, 40), (3, 1, 40), (4, 2, 300), (5, 4, 5000)])
    def test_noninterior_is_the_closed_form_of_q_and_eta(self, q, a, n):
        rep = simplex_sweep(dictator(q, n), a, 0.3, SimplexSampler(q, seed=q), 50)
        assert rep.noninterior_fraction == threshold._noninterior_measure(q, rep.eta)

    @pytest.mark.parametrize("q, a", [(3, 0), (4, 2), (5, 4)])
    def test_noninterior_matches_the_per_sample_rule(self, q, a):
        # the reference: the share of uniform draws whose smallest atom,
        # conditioned off the anchor, is below eta
        draws = 20_000
        sampler = SimplexSampler(q, seed=10 + q)
        atoms = np.array([sampler.sample().atoms for _ in range(draws)])
        smallest = np.delete(atoms, a, axis=1).min(axis=1) / (1.0 - atoms[:, a])
        for c in (0.05, 0.3, 0.6, 0.9):
            eta = c / (q - 1)
            p = threshold._noninterior_measure(q, eta)
            sigma = math.sqrt(p * (1.0 - p) / draws)
            assert abs(np.mean((atoms[:, a] < 1.0) & (smallest < eta)) - p) <= 5 * sigma

    def test_nested_mc_for_structureless_oracle(self):
        from threshold_lab import recursive_plurality

        f = recursive_plurality(2, 3, 5)  # 243 inputs, no table, no exact evaluator
        rep = simplex_sweep(
            f, 0, 0.1, SimplexSampler(2, seed=2), 50, inner_samples=200
        )
        assert 0.0 <= rep.estimate <= 1.0

    @pytest.mark.parametrize(
        "f,a",
        [
            (recursive_plurality(2, 3, 2), -1),
            (recursive_plurality(2, 3, 2), 2),
            # a symbol of the codomain [3] but not of the inputs' alphabet [2]
            (QaryFunction(q=2, n=2, codomain="alphabet", out_q=3, table=[0, 1, 2, 2]), 2),
        ],
    )
    def test_bad_anchor_fails_before_any_sample(self, f, a):
        with mock.patch.object(threshold, "mc_estimate", side_effect=AssertionError("sampled")):
            with pytest.raises(DimensionMismatchError):
                simplex_sweep(f, a, 0.1, SimplexSampler(2, seed=2), 5, inner_samples=20)


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

    # a 3-symbol table whose values lie in [2]: symbol 2 is a leader but no outcome
    _TWO_OUTCOMES = QaryFunction.from_table(3, 2, [0, 1, 0, 1, 1, 0, 0, 0, 1], out_q=2)

    @pytest.mark.parametrize(
        "f, atoms, leader, error, match",
        [
            (_TWO_OUTCOMES, [0.2, 0.8], 2, DimensionMismatchError, "alphabet 3 != measure"),
            (_TWO_OUTCOMES, [0.4, 0.4, 0.2], 3, DimensionMismatchError, "leader 3 outside"),
            (_TWO_OUTCOMES, [0.4, 0.2, 0.4], 2, NoStrictLeaderError, "not a strict leader"),
            (_TWO_OUTCOMES, [0.1, 0.1, 0.8], 2, DimensionMismatchError, "symbol 2 outside"),
            (recursive_plurality(3, 3, 2), [0.5, 0.3, 0.2], 0, DimensionMismatchError,
             "need at least one sample"),
        ],
        ids=["alphabet", "leader-range", "margin-before-symbol", "symbol", "mc-samples"],
    )
    def test_errors_come_in_order_before_any_sample(self, mc_calls, f, atoms, leader, error,
                                                     match):
        with pytest.raises(error, match=match):
            jury_experiment(f, ProductMeasure(len(atoms), atoms), leader, 0, seed=1)
        assert mc_calls == []

    def test_exact_jury_only_echoes_its_sample_count(self):
        mu = ProductMeasure(3, [0.5, 0.3, 0.2])
        rep = jury_experiment(plurality(3, 5), mu, 0, 0, seed=1)
        assert (rep.p_hat, rep.half_width, rep.samples) == (prob_value(plurality(3, 5), mu, 0),
                                                             0.0, 0)

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


@settings(max_examples=150)
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
