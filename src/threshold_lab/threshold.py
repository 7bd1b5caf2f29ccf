"""Threshold machinery: derivative formulas along simplex paths, curve scans,
window location, simplex sweeps, and the jury experiment.

Reference bound shapes are reported constant-free: the unspecified universal
constants are never asserted, only the direction and shape of the bounds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .checks import anchored_monotone_violation
from .core import (
    DimensionMismatchError,
    InvalidFunctionError,
    MeasurePath,
    ProductMeasure,
    QaryFunction,
    SimplexSampler,
    TableSizeError,
    ThresholdLabError,
    prob_value,
    product_weights,
)
from .decomposition import _influences

_MC_CHUNK_ENTRIES = 2_000_000


class WindowUndefinedError(ThresholdLabError):
    pass


class NoStrictLeaderError(ThresholdLabError):
    pass


def _binary_table(f: QaryFunction) -> QaryFunction:
    f = f.tabulate()
    if not f.is_binary():
        raise InvalidFunctionError("this operation needs a {0,1}-valued table")
    return f


def _restriction_sums(f: QaryFunction, path: MeasurePath, t: float) -> tuple[float, float]:
    """The Russo derivative and the mixed conditional-variance sum, from one
    pass over the restrictions of ``f`` to each coordinate."""
    f = _binary_table(f)
    if f.q != path.q:
        raise DimensionMismatchError("function/path alphabet mismatch")
    witness = anchored_monotone_violation(f, path.anchor)
    if witness is not None:
        raise InvalidFunctionError(
            f"function is not monotone along anchor {path.anchor}: {witness}"
        )
    mu_t = path.measure_at(t)
    tensor = f.table.astype(float).reshape((f.q,) * f.n)
    rest_weights = product_weights(mu_t, f.n - 1)
    derivative = mixed = 0.0
    for i in range(f.n):
        restricted = np.moveaxis(tensor, i, -1).reshape(-1, f.q)
        first = restricted @ path.base.atoms
        not_const = restricted.max(axis=1) != restricted.min(axis=1)
        derivative += float(rest_weights @ (not_const * (1.0 - first)))
        # f is {0,1}-valued, so each restriction's second moment is ``first``
        mixed += float(rest_weights @ (first - first**2))
    return derivative, mixed


def russo_derivative(f: QaryFunction, path: MeasurePath, t: float) -> float:
    """Derivative of ``t -> E[f]`` along the path, from conditional non-constancy.

    For a {0,1}-valued function monotone along the path's anchor, the
    derivative equals, coordinate by coordinate, the probability mass where
    the restriction to that coordinate is non-constant times the base-measure
    mass of the zero set of the restriction.  Refuses functions that are not
    anchor-monotone, where the formula is invalid.
    """
    return _restriction_sums(f, path, t)[0]


@dataclasses.dataclass(frozen=True)
class RussoReport:
    """The derivative next to the influence sums it dominates.

    ``influence_sum_path_measure`` sums influences under the path measure at
    ``t`` (the provable lower bound); ``influence_sum_base_measure`` uses the
    base measure throughout and is recorded for comparison only, since it can
    exceed the derivative away from t = 0.  ``conditional_variance_sum``
    takes conditional variances under the base measure but weights them by
    the path measure (also a provable lower bound).
    """

    t: float
    derivative: float
    influence_sum_path_measure: float
    influence_sum_base_measure: float
    conditional_variance_sum: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def russo_report(f: QaryFunction, path: MeasurePath, t: float) -> RussoReport:
    f = _binary_table(f)
    derivative, mixed = _restriction_sums(f, path, t)
    mu_t = path.measure_at(t)
    real = f.as_real()
    sum_path = sum(_influences(real, mu_t))
    sum_base = sum(_influences(real, path.base))
    return RussoReport(
        t=t,
        derivative=derivative,
        influence_sum_path_measure=float(sum_path),
        influence_sum_base_measure=float(sum_base),
        conditional_variance_sum=mixed,
    )


@dataclasses.dataclass(frozen=True)
class MCEstimate:
    p_hat: float
    half_width: float
    samples: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def mc_estimate(
    f: QaryFunction, measure: ProductMeasure, a: int, samples: int, seed
) -> MCEstimate:
    """Unbiased Monte Carlo estimate of ``P[f = a]`` with a 95% half-width."""
    if samples < 1:
        raise DimensionMismatchError("need at least one sample")
    if f.q != measure.q:
        raise DimensionMismatchError("function/measure alphabet mismatch")
    rng = np.random.default_rng(seed)
    chunk_rows = max(1, _MC_CHUNK_ENTRIES // f.n)
    # the draws of rng.choice(q, size, p=atoms), bit for bit: the same cdf and
    # uniforms, inverted by q - 1 comparisons (searchsorted(side="right")
    # counts the cdf entries <= u) into the narrowest unsigned dtype
    cdf = measure.atoms.cumsum()
    cdf /= cdf[-1]
    symbol = np.min_scalar_type(f.q - 1)
    hits = 0
    remaining = samples
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        U = rng.random((rows, f.n))
        X = np.zeros((rows, f.n), dtype=symbol)
        for edge in cdf[:-1]:
            X += U >= edge
        hits += int((f.batch(X) == a).sum())
        remaining -= rows
    p_hat = hits / samples
    half_width = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return MCEstimate(p_hat=p_hat, half_width=half_width, samples=samples)


def _exact_evaluator(f: QaryFunction, a: int):
    if f.table is not None or (f.oracle is not None and f.oracle.exact_prob is not None):
        return lambda measure: prob_value(f, measure, a)
    return None


@dataclasses.dataclass(frozen=True, eq=False)
class ThresholdCurve:
    """Sampled values of ``t -> P[f = a]`` along a measure path."""

    path: MeasurePath
    anchor: int
    grid: np.ndarray
    values: np.ndarray
    method: str  # "exact" | "mc"
    samples: int | None = None
    seed: int | None = None
    half_widths: np.ndarray | None = None
    evaluator: object = dataclasses.field(default=None, repr=False, compare=False)


def scan_path(
    f: QaryFunction,
    a: int,
    base: ProductMeasure,
    grid_size: int = 101,
    method: str = "exact",
    samples: int = 10_000,
    seed: int = 0,
) -> ThresholdCurve:
    """Evaluate the curve ``G(t) = P[f = a]`` on a uniform grid of the path.

    Exact mode needs a dense table or a structured exact evaluator; Monte
    Carlo mode draws ``samples`` points per grid node with per-node streams
    derived from ``(seed, node index)``.
    """
    if grid_size < 2:
        raise DimensionMismatchError("grid needs at least 2 points")
    path = MeasurePath(anchor=a, base=base)
    grid = np.linspace(0.0, 1.0, grid_size)
    if method == "exact":
        point = _exact_evaluator(f, a)
        if point is None:
            raise TableSizeError(
                "exact scan needs a table or structured evaluator; use method='mc'"
            )
        values = np.array([point(path.measure_at(t)) for t in grid])
        return ThresholdCurve(
            path=path, anchor=a, grid=grid, values=values, method="exact",
            evaluator=lambda t: point(path.measure_at(t)),
        )
    if method != "mc":
        raise DimensionMismatchError(f"unknown scan method {method!r}")
    estimates = [
        mc_estimate(f, path.measure_at(t), a, samples, [seed, idx])
        for idx, t in enumerate(grid)
    ]
    return ThresholdCurve(
        path=path,
        anchor=a,
        grid=grid,
        values=np.array([e.p_hat for e in estimates]),
        method="mc",
        samples=samples,
        seed=seed,
        half_widths=np.array([e.half_width for e in estimates]),
    )


@dataclasses.dataclass(frozen=True)
class ThresholdWindow:
    eps: float
    t_lo: float
    t_hi: float
    width: float
    method: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _locate_crossing(curve: ThresholdCurve, level: float, refine_tol: float) -> float:
    grid, values = curve.grid, curve.values
    if values[0] > level or values[-1] < level:
        raise WindowUndefinedError(
            f"curve does not cross level {level}: range "
            f"[{values.min():.6g}, {values.max():.6g}]"
        )
    i = int(np.argmax(values >= level))
    if i == 0:
        return float(grid[0])
    lo, hi = float(grid[i - 1]), float(grid[i])
    if curve.method == "exact" and curve.evaluator is not None:
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if curve.evaluator(mid) < level:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    v0, v1 = float(curve.values[i - 1]), float(curve.values[i])
    if v1 == v0:
        return 0.5 * (lo + hi)
    return lo + (level - v0) * (hi - lo) / (v1 - v0)


def threshold_window(
    curve: ThresholdCurve, eps: float, refine_tol: float = 1e-6
) -> ThresholdWindow:
    """Locate where the curve crosses ``eps`` and ``1 - eps``.

    Exact curves are refined by bisection down to ``refine_tol``; Monte Carlo
    curves interpolate linearly between bracketing grid points.
    """
    if not 0.0 < eps <= 0.5:
        raise DimensionMismatchError(f"eps must lie in (0, 0.5], got {eps}")
    t_lo = _locate_crossing(curve, eps, refine_tol)
    t_hi = _locate_crossing(curve, 1.0 - eps, refine_tol)
    return ThresholdWindow(
        eps=eps, t_lo=t_lo, t_hi=t_hi, width=max(0.0, t_hi - t_lo), method=curve.method
    )


def critical_bound_shape(eps: float, n: int) -> float | None:
    """The constant-free reference ``(log(1-eps) - log(eps)) loglog n / log n``."""
    if n < 3:
        return None
    return (math.log(1.0 - eps) - math.log(eps)) * math.log(math.log(n)) / math.log(n)


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """Estimated simplex measure of the critical set ``eps <= P[f = a] <= 1-eps``."""

    eps: float
    samples: int
    estimate: float
    half_width: float
    eta: float | None
    noninterior_fraction: float | None
    bound_shape: float | None
    n: int
    anchor: int
    seed: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def simplex_sweep(
    f: QaryFunction,
    a: int,
    eps: float,
    sampler: SimplexSampler,
    samples: int,
    eta: float | None = None,
    inner_samples: int = 10_000,
) -> SweepReport:
    """Monte Carlo over uniform measures of the critical-set indicator.

    ``eta`` is a diagnostic cutoff: the report also carries the fraction of
    sampled measures whose conditional-off-anchor smallest atom falls below
    it.  It defaults to ``log((1-eps)/eps) / log n``.
    """
    if samples < 1:
        raise DimensionMismatchError("sample budget must be positive")
    if not 0.0 < eps < 0.5:
        raise DimensionMismatchError(f"eps must lie in (0, 0.5), got {eps}")
    if sampler.q != f.q:
        raise DimensionMismatchError("sampler/function alphabet mismatch")
    point = _exact_evaluator(f, a)
    if eta is None and f.n >= 2:
        eta = (math.log(1.0 - eps) - math.log(eps)) / math.log(f.n)
    critical = 0
    noninterior = 0
    for idx in range(samples):
        mu = sampler.sample()
        if point is not None:
            p = point(mu)
        else:
            p = mc_estimate(f, mu, a, inner_samples, [sampler.seed, idx]).p_hat
        if eps <= p <= 1.0 - eps:
            critical += 1
        if eta is not None and mu.atoms[a] < 1.0:
            off = np.delete(mu.atoms, a) / (1.0 - mu.atoms[a])
            if off.min() < eta:
                noninterior += 1
    estimate = critical / samples
    return SweepReport(
        eps=eps,
        samples=samples,
        estimate=estimate,
        half_width=1.96 * math.sqrt(max(estimate * (1 - estimate), 0.0) / samples),
        eta=eta,
        noninterior_fraction=(noninterior / samples) if eta is not None else None,
        bound_shape=critical_bound_shape(eps, f.n),
        n=f.n,
        anchor=a,
        seed=sampler.seed,
    )


@dataclasses.dataclass(frozen=True)
class JuryReport:
    """Election outcome for a leader-biased electorate under a fair monotone rule.

    ``bound_margin`` is the constant-free ``loglog n / log n`` shape the
    leader's margin is compared against.  The perturbed entries move mass
    ``1/log n`` from the leader to every other symbol; the original measure
    dominates the perturbed one for the leader, so the two estimates should
    be ordered up to Monte Carlo noise.
    """

    n: int
    leader: int
    margin: float
    bound_margin: float | None
    p_hat: float
    half_width: float
    samples: int
    seed: int
    perturbed_atoms: list | None
    p_hat_perturbed: float | None
    half_width_perturbed: float | None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def jury_experiment(
    f: QaryFunction, measure: ProductMeasure, i: int, samples: int, seed: int = 0
) -> JuryReport:
    """Estimate the probability that the strictly leading symbol wins.

    The function is expected to be fair and monotone (as the built-in
    families are by construction, verified exhaustively at small sizes).
    """
    if f.q != measure.q:
        raise DimensionMismatchError("function/measure alphabet mismatch")
    if not 0 <= i < f.q:
        raise DimensionMismatchError(f"leader {i} outside [0, {f.q})")
    atoms = measure.atoms
    others = np.delete(atoms, i)
    margin = float(atoms[i] - others.max())
    if margin <= 0.0:
        raise NoStrictLeaderError(
            f"symbol {i} is not a strict leader: margin {margin:.6g}"
        )
    est = mc_estimate(f, measure, i, samples, [seed, 0])
    log_n = math.log(f.n) if f.n >= 2 else None
    perturbed_atoms = None
    p_hat_perturbed = None
    half_width_perturbed = None
    if log_n:
        shifted = atoms + 1.0 / log_n
        shifted[i] = atoms[i] - (f.q - 1) / log_n
        if shifted.min() >= 0.0:
            perturbed = ProductMeasure(f.q, shifted)
            est_hat = mc_estimate(f, perturbed, i, samples, [seed, 1])
            perturbed_atoms = perturbed.atoms.tolist()
            p_hat_perturbed = est_hat.p_hat
            half_width_perturbed = est_hat.half_width
    return JuryReport(
        n=f.n,
        leader=i,
        margin=margin,
        bound_margin=(math.log(math.log(f.n)) / math.log(f.n)) if f.n >= 3 else None,
        p_hat=est.p_hat,
        half_width=est.half_width,
        samples=samples,
        seed=seed,
        perturbed_atoms=perturbed_atoms,
        p_hat_perturbed=p_hat_perturbed,
        half_width_perturbed=half_width_perturbed,
    )
