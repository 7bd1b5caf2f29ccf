"""Threshold machinery: derivative formulas along simplex paths, curve scans,
window location, simplex sweeps, and the jury experiment.

Reference bound shapes are reported constant-free: the unspecified universal
constants are never asserted, only the direction and shape of the bounds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from .checks import anchored_monotone_violation
from .core import (
    DimensionMismatchError,
    Evaluator,
    InvalidFunctionError,
    MeasurePath,
    ProductMeasure,
    QaryFunction,
    Report,
    SimplexSampler,
    TableSizeError,
    ThresholdLabError,
    _axis_mean,
    _axis_view,
    _categorical,
    _check_compatible,
    _check_range,
    _check_symbol,
    _exact_prob,
    _table_mean,
)
from .decomposition import _influences

_MC_CHUNK_ENTRIES = 2_000_000
_REFINE_TOL = 1e-6  # bisection on an exact curve stops at a bracket this narrow


class WindowUndefinedError(ThresholdLabError):
    pass


class NoStrictLeaderError(ThresholdLabError):
    pass


def _monotone_real(f: QaryFunction, path: MeasurePath) -> QaryFunction:
    """``f`` as a real table, after checking that it is {0,1}-valued, on the
    path's alphabet and monotone along its anchor, where Russo's formula holds."""
    f = f.tabulate()
    if not f.is_binary():
        raise InvalidFunctionError("this operation needs a {0,1}-valued table")
    _check_compatible(f, path.base)
    witness = anchored_monotone_violation(f, path.anchor)
    if witness is not None:
        raise InvalidFunctionError(
            f"function is not monotone along anchor {path.anchor}: {witness}"
        )
    return f.as_real()


def _restriction_sums(
    real: QaryFunction, path: MeasurePath, mu_t: ProductMeasure
) -> tuple[float, float]:
    """The Russo derivative and the mixed conditional-variance sum at ``mu_t``, from
    one pass over the restrictions of :func:`_monotone_real`'s table to each coordinate."""
    # the view's outer axes keep the other coordinates in index order, so each
    # restriction vector is a table over [q]**(n-1)
    derivative = mixed = 0.0
    for i in range(real.n):
        view = _axis_view(real.table, real.q, real.n, i)
        first = _axis_mean(view, path.base.atoms).ravel()
        not_const = (view.max(axis=1) != view.min(axis=1)).ravel()
        derivative += _table_mean(not_const * (1.0 - first), mu_t.atoms)
        # f is {0,1}-valued, so each restriction's second moment is ``first``
        mixed += _table_mean(first - first**2, mu_t.atoms)
    return derivative, mixed


def russo_derivative(f: QaryFunction, path: MeasurePath, t: float) -> float:
    """Derivative of ``t -> E[f]`` along the path, from conditional non-constancy.

    For a {0,1}-valued function monotone along the path's anchor, the
    derivative equals, coordinate by coordinate, the probability mass where
    the restriction to that coordinate is non-constant times the base-measure
    mass of the zero set of the restriction.  Refuses functions that are not
    anchor-monotone, where the formula is invalid.
    """
    return _restriction_sums(_monotone_real(f, path), path, path.measure_at(t))[0]


@dataclasses.dataclass(frozen=True)
class RussoReport(Report):
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


def russo_report(f: QaryFunction, path: MeasurePath, t: float) -> RussoReport:
    real = _monotone_real(f, path)
    mu_t = path.measure_at(t)
    derivative, mixed = _restriction_sums(real, path, mu_t)
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
class MCEstimate(Report):
    p_hat: float
    half_width: float
    samples: int


def _wald_half_width(p_hat: float, samples: int) -> float:
    """The 95% normal-approximation half-width of a proportion from ``samples`` draws."""
    return 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)


def mc_estimate(
    f: QaryFunction, measure: ProductMeasure, a: int, samples: int, seed
) -> MCEstimate:
    """Unbiased Monte Carlo estimate of ``P[f = a]`` with a 95% half-width."""
    if samples < 1:
        raise DimensionMismatchError("need at least one sample")
    _check_compatible(f, measure)
    _check_symbol(f, a)
    rng = np.random.default_rng(seed)
    chunk_rows = max(1, _MC_CHUNK_ENTRIES // f.n)
    hits = 0
    remaining = samples
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        X = _categorical(rng, measure.atoms, (rows, f.n))
        hits += int((f.batch(X) == a).sum())
        remaining -= rows
    p_hat = hits / samples
    return MCEstimate(p_hat=p_hat, half_width=_wald_half_width(p_hat, samples), samples=samples)


def _mc_evaluator(f: QaryFunction, a: int, samples: int, seed) -> Evaluator:
    """The Monte Carlo evaluator of ``P[f = a]``: :func:`mc_estimate` from ``samples``
    draws of the stream ``[seed, i]``.  Checks ``samples`` and ``a`` now."""
    if samples < 1:
        raise DimensionMismatchError("need at least one sample")
    _check_symbol(f, a)
    prob = lambda measure, i: mc_estimate(f, measure, a, samples, [seed, i]).p_hat
    return Evaluator("mc", prob, samples, seed)


@dataclasses.dataclass(frozen=True, eq=False)
class ThresholdCurve:
    """Values of ``t -> P[f = a]`` at the nodes of a uniform grid of the path.

    G at ``t`` is ``G(t, i)``, with ``G = evaluator.along(path)`` built once per
    curve, where ``i`` is the grid node's index (a Monte Carlo node samples the
    stream ``(seed, i)``) or ``None`` off the grid.  An exact plurality curve
    reads its family's path law; every other curve reads ``evaluator.prob`` at
    ``path.measure_at(t)``.  A node is evaluated the first time it is read and
    kept by index, so a window reads only the nodes its search visits;
    ``values`` evaluates every node not read yet.
    """

    path: MeasurePath
    grid: np.ndarray
    evaluator: Evaluator = dataclasses.field(repr=False, compare=False)
    _nodes: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def method(self) -> str:
        return "mc" if self.evaluator.name == "mc" else "exact"

    @functools.cached_property
    def G(self) -> Callable[..., float]:
        """``G(t, stream)``, the evaluator along the path, built on the first read."""
        return self.evaluator.along(self.path)

    def _node(self, i: int) -> float:
        """G at grid node ``i``, evaluated on the first read."""
        if i not in self._nodes:
            self._nodes[i] = self.G(self.grid[i], i)
        return self._nodes[i]

    @property
    def values(self) -> np.ndarray:
        """G at every grid node, in grid order."""
        return np.array([self._node(i) for i in range(self.grid.size)])

    @property
    def half_widths(self) -> np.ndarray | None:
        """Each Monte Carlo node's 95% half-width, as its :class:`MCEstimate`
        holds it; ``None`` on an exact curve."""
        if self.method == "exact":
            return None
        return np.array([_wald_half_width(g, self.evaluator.samples) for g in self.values])


def scan_path(
    f: QaryFunction,
    a: int,
    base: ProductMeasure,
    grid_size: int = 101,
    method: str = "exact",
    samples: int = 10_000,
    seed: int = 0,
) -> ThresholdCurve:
    """The curve ``G(t) = P[f = a]`` on a uniform grid of the path.

    Exact mode needs a dense table or a structured exact evaluator; a
    plurality or ``most_popular_color`` curve reads its path law, n + 1
    conditional probabilities built on the curve's first read.  Monte Carlo
    mode draws ``samples`` points at a node, from the stream ``(seed, node
    index)``.  Either evaluates a node only when the curve reads it:
    ``values`` (as ``scan`` and the curve writers read it) every node, a
    window only the nodes its search visits.  Arguments are checked here.
    """
    if grid_size < 2:
        raise DimensionMismatchError("grid needs at least 2 points")
    _check_compatible(f, base)
    path = MeasurePath(anchor=a, base=base)
    if method == "exact":
        evaluator = _exact_prob(f, a)
        if evaluator is None:
            raise TableSizeError(
                "exact scan needs a table or structured evaluator; use method='mc'"
            )
    elif method == "mc":
        evaluator = _mc_evaluator(f, a, samples, seed)
    else:
        raise DimensionMismatchError(f"unknown scan method {method!r}")
    return ThresholdCurve(path=path, grid=np.linspace(0.0, 1.0, grid_size), evaluator=evaluator)


@dataclasses.dataclass(frozen=True)
class ThresholdWindow(Report):
    eps: float
    t_lo: float
    t_hi: float
    width: float
    method: str


def _locate_crossing(curve: ThresholdCurve, level: float) -> float:
    grid, node = curve.grid, curve._node
    last = grid.size - 1
    if node(0) > level or node(last) < level:
        values = curve.values
        raise WindowUndefinedError(
            f"curve does not cross level {level}: range "
            f"[{values.min():.6g}, {values.max():.6g}]"
        )
    if node(0) >= level:
        return float(grid[0])
    if curve.method == "mc":
        # a Monte Carlo curve is noisy, so its first node at the level counts
        i = next(i for i in range(1, last + 1) if node(i) >= level)
        lo, hi = float(grid[i - 1]), float(grid[i])
        v0, v1 = float(node(i - 1)), float(node(i))
        if v1 == v0:
            return 0.5 * (lo + hi)
        return lo + (level - v0) * (hi - lo) / (v1 - v0)
    # bisection over node indices, keeping node(lo_i) < level <= node(i)
    lo_i, i = 0, last
    while i - lo_i > 1:
        mid = (lo_i + i) // 2
        if node(mid) >= level:
            i = mid
        else:
            lo_i = mid
    lo, hi = float(grid[i - 1]), float(grid[i])
    while hi - lo > _REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if curve.G(mid, None) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_window(curve: ThresholdCurve, eps: float) -> ThresholdWindow:
    """Locate where the curve crosses ``eps`` and ``1 - eps``.

    On an exact curve each crossing's grid cell is found by bisection over
    the node indices, so a 101-node window evaluates about 7 nodes per level
    (the two levels share them) instead of all 101; the cell is then refined
    by bisection to a bracket of width ``1e-6``.  This assumes G is
    non-decreasing along the path, as it is for every f monotone along the
    anchor: then the cell is the one the first node at or above the level
    closes.  On an exact curve that is not non-decreasing the window is *a*
    crossing whose grid cell brackets the level, not necessarily the first.
    A Monte Carlo curve is noisy and not monotone, so its crossing is the
    first node at or above the level, interpolated linearly from the node
    before it, reading the nodes in order only up to that one.
    """
    if not 0.0 < eps <= 0.5:
        raise DimensionMismatchError(f"eps must lie in (0, 0.5], got {eps}")
    t_lo = _locate_crossing(curve, eps)
    t_hi = _locate_crossing(curve, 1.0 - eps)
    return ThresholdWindow(
        eps=eps, t_lo=t_lo, t_hi=t_hi, width=max(0.0, t_hi - t_lo), method=curve.method
    )


def critical_bound_shape(eps: float, n: int) -> float | None:
    """The constant-free reference ``(log(1-eps) - log(eps)) loglog n / log n``."""
    if n < 3:
        return None
    return (math.log(1.0 - eps) - math.log(eps)) * math.log(math.log(n)) / math.log(n)


@dataclasses.dataclass(frozen=True)
class SweepReport(Report):
    """Estimated simplex measure of ``eps <= P[f = a] <= 1-eps``, exact non-interior measure."""

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


def _noninterior_measure(q: int, eta: float) -> float:
    """The uniform-simplex measure of the ``mu`` on ``[q]`` whose smallest atom, conditioned
    off the anchor, is below ``eta``.  Those ``k = q - 1`` atoms are uniform on their simplex:
    at k = 1 the one atom is 1, else all are at least ``eta`` w.p. ``(1 - k eta)_+^(k-1)``."""
    k = q - 1
    return float(eta > 1.0) if k == 1 else 1.0 - max(0.0, 1.0 - k * eta) ** (k - 1)


def simplex_sweep(
    f: QaryFunction,
    a: int,
    eps: float,
    sampler: SimplexSampler,
    samples: int,
    inner_samples: int = 10_000,
) -> SweepReport:
    """Monte Carlo over uniform measures of the critical-set indicator.

    ``P[f = a]`` is exact where ``f`` allows, else nested Monte Carlo from
    ``inner_samples`` draws.  The report also carries the exact simplex measure of
    the set where the conditional-off-anchor smallest atom falls below the
    diagnostic cutoff ``eta = log((1-eps)/eps) / log n`` (``None`` if n < 2).
    """
    if samples < 1:
        raise DimensionMismatchError("sample budget must be positive")
    if not 0.0 < eps < 0.5:
        raise DimensionMismatchError(f"eps must lie in (0, 0.5), got {eps}")
    _check_compatible(f, sampler)
    _check_range(a, f.q, "anchor")
    evaluator = _exact_prob(f, a) or _mc_evaluator(f, a, inner_samples, sampler.seed)
    eta = (math.log(1.0 - eps) - math.log(eps)) / math.log(f.n) if f.n >= 2 else None
    critical = 0
    for idx in range(samples):
        p = evaluator.prob(sampler.sample(), idx)
        critical += eps <= p <= 1.0 - eps
    estimate = critical / samples
    return SweepReport(
        eps=eps,
        samples=samples,
        estimate=estimate,
        half_width=_wald_half_width(estimate, samples),
        eta=eta,
        noninterior_fraction=_noninterior_measure(f.q, eta) if eta is not None else None,
        bound_shape=critical_bound_shape(eps, f.n),
        n=f.n,
        anchor=a,
        seed=sampler.seed,
    )


@dataclasses.dataclass(frozen=True)
class JuryReport(Report):
    """Election outcome for a leader-biased electorate under a fair monotone rule.

    ``bound_margin`` is the constant-free ``loglog n / log n`` shape the
    leader's margin is compared against.  The perturbed entries move mass
    ``1/log n`` from the leader to every other symbol; the original measure
    dominates the perturbed one for the leader, so a monotone rule gives
    ``p_hat >= p_hat_perturbed``.  Each is exact with half-width 0 where ``f``
    has a table or a law, else a Monte Carlo estimate with its Wald half-width.
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


def jury_experiment(
    f: QaryFunction, measure: ProductMeasure, i: int, samples: int, seed: int = 0
) -> JuryReport:
    """``P[f = i]`` for the strict leader ``i``: exact where ``f`` allows, else ``samples`` draws.

    The function is expected to be fair and monotone.  Of the built-in
    families, ``check_fair`` and ``check_monotone`` both pass at small sizes on
    plurality under ``first_occurrence``, dictator and recursive plurality at
    q = 2 with odd arity.  Plurality under ``smallest_index`` (once ties occur)
    and the graph properties are not fair; recursive plurality at q >= 3 and
    antisymmetric majority are not monotone.
    """
    _check_compatible(f, measure)
    _check_range(i, f.q, "leader")
    atoms = measure.atoms
    margin = float(atoms[i] - np.delete(atoms, i).max())
    if margin <= 0.0:
        raise NoStrictLeaderError(
            f"symbol {i} is not a strict leader: margin {margin:.6g}"
        )
    evaluator = _exact_prob(f, i) or _mc_evaluator(f, i, samples, seed)
    half_width = lambda p: _wald_half_width(p, samples) if evaluator.name == "mc" else 0.0
    p_hat = evaluator.prob(measure, 0)
    log_n = math.log(f.n) if f.n >= 2 else None
    perturbed_atoms = p_hat_perturbed = half_width_perturbed = None
    if log_n:
        shifted = atoms + 1.0 / log_n
        shifted[i] = atoms[i] - (f.q - 1) / log_n
        if shifted.min() >= 0.0:
            perturbed = ProductMeasure(f.q, shifted)
            perturbed_atoms = perturbed.atoms.tolist()
            p_hat_perturbed = evaluator.prob(perturbed, 1)
            half_width_perturbed = half_width(p_hat_perturbed)
    return JuryReport(
        n=f.n,
        leader=i,
        margin=margin,
        bound_margin=(math.log(math.log(f.n)) / math.log(f.n)) if f.n >= 3 else None,
        p_hat=p_hat,
        half_width=half_width(p_hat),
        samples=samples,
        seed=seed,
        perturbed_atoms=perturbed_atoms,
        p_hat_perturbed=p_hat_perturbed,
        half_width_perturbed=half_width_perturbed,
    )
