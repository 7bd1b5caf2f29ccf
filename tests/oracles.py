"""Independent brute-force reference implementations used only by the tests.

Everything here enumerates points with plain Python loops, deliberately
avoiding the library's tensor code paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from threshold_lab import (
    ProductMeasure,
    QaryFunction,
    ThresholdWindow,
    WindowUndefinedError,
    leq_a,
)
from threshold_lab.core import _axis_mean, _axis_view, _exact_prob
from threshold_lab.threshold import (
    _REFINE_TOL,
    SweepReport,
    _mc_evaluator,
    _noninterior_measure,
    _wald_half_width,
    critical_bound_shape,
)


def points(q: int, n: int):
    return itertools.product(range(q), repeat=n)


def point_prob(x, measure: ProductMeasure) -> float:
    return math.prod(measure.atoms[v] for v in x)


def enum_expectation(f: QaryFunction, measure: ProductMeasure) -> float:
    return sum(point_prob(x, measure) * f(x) for x in points(f.q, f.n))


def enum_prob(f: QaryFunction, measure: ProductMeasure, a: int) -> float:
    # fsum: the only rounding left is each point's product of n atoms
    return math.fsum(point_prob(x, measure) for x in points(f.q, f.n) if f(x) == a)


def enum_histogram(table: np.ndarray, q: int, n: int, a: int) -> dict:
    """``{sorted symbols of x: count}`` over the points x with ``table[x] == a``."""
    counts: dict = {}
    for x, value in zip(points(q, n), table):
        if value == a:
            key = tuple(sorted(x))
            counts[key] = counts.get(key, 0) + 1
    return counts


def enum_compositions(n: int, q: int) -> np.ndarray:
    """All count vectors of ``n`` items over ``q`` symbols, as an (M, q) array."""
    out = []
    for cuts in itertools.combinations(range(n + q - 1), q - 1):
        prev = -1
        row = []
        for c in cuts:
            row.append(c - prev - 1)
            prev = c
        row.append(n + q - 2 - prev)
        out.append(row)
    return np.asarray(out, dtype=np.int64)


def outer_product_weights(measure: ProductMeasure, n: int) -> np.ndarray:
    """The weights ``w(x) = prod_i mu(x_i)`` over ``[q]**n`` in index order, by
    repeated outer products: the reference for a mean as one weighted sum."""
    w = np.ones(1)
    for _ in range(n):
        w = np.multiply.outer(w, measure.atoms).ravel()
    return w


def dense_component_store(table: np.ndarray, atoms: np.ndarray, q: int, n: int) -> np.ndarray:
    """Every orthogonal component as a dense table, shape ``(2**n, q**n)``: the
    library's former component store, kept as the bit-for-bit reference for
    its factors.  Row ``mask`` holds ``f`` with ``I - E_j`` applied for each j
    in mask and ``E_j`` for each coordinate j < i outside it; step i splits
    every row with mask < 2**i into ``E_i`` (kept in place) and ``I - E_i``
    (written to row mask | 2**i)."""
    tables = np.empty((1 << n, q**n))
    tables[0] = table
    for i in range(n):
        for mask in range(1 << i):
            row = _axis_view(tables[mask], q, n, i)
            mean = _axis_mean(row, atoms)
            np.subtract(row, mean, out=_axis_view(tables[mask | 1 << i], q, n, i))
            row[...] = mean
    return tables


def ix_relabel(table: np.ndarray, q: int, n: int, perm) -> np.ndarray:
    """The table of ``x -> f(perm(x))`` by open-mesh indexing over the n axes,
    the library's former form."""
    tensor = table.reshape((q,) * n)
    return tensor[np.ix_(*([perm] * n))].ravel()


def enum_cover_violation(table: np.ndarray, q: int, n: int, a: int, binary: bool) -> dict | None:
    """First cover ``x -> (x with x_i := a)`` breaking the predicate, scanning
    coordinates in order and the points of each in index order."""
    pts = list(points(q, n))
    position = {x: k for k, x in enumerate(pts)}
    for i in range(n):
        for x_idx, x in enumerate(pts):
            if x[i] == a:
                continue
            y = x[:i] + (a,) + x[i + 1 :]
            f_x, f_y = table[x_idx], table[position[y]]
            if (f_x == 1 and f_y == 0) if binary else (f_x == a and f_y != a):
                return {
                    "a": a,
                    "coord": i,
                    "x": list(x),
                    "y": list(y),
                    "f_x": f_x.item(),
                    "f_y": f_y.item(),
                }
    return None


def full_slab_cover_violation(
    table: np.ndarray, q: int, n: int, a: int, binary: bool
) -> dict | None:
    """The library's former cover check: at each coordinate the whole
    ``(q**i, q, rest)`` source view, the dead slab at digit ``a`` included, ANDed
    with the covers' slab, and the first flagged entry taken as the witness."""
    source = table == (1 if binary else a)
    sink = table == 0 if binary else ~source
    for i in range(n):
        bad = _axis_view(source, q, n, i) & _axis_view(sink, q, n, i)[:, a : a + 1, :]
        if bad.any():
            stride = q ** (n - 1 - i)
            x_idx = int(bad.argmax())
            y_idx = x_idx + (a - x_idx // stride % q) * stride
            pts = np.stack(np.unravel_index([x_idx, y_idx], (q,) * n), axis=1)
            return {
                "a": int(a),
                "coord": int(i),
                "x": pts[0].tolist(),
                "y": pts[1].tolist(),
                "f_x": int(table[x_idx]),
                "f_y": int(table[y_idx]),
            }
    return None


def enum_conditional(f: QaryFunction, measure: ProductMeasure, coords, x) -> float:
    """E[f | X_S = x_S] at the point x, by enumerating the complement."""
    coords = set(coords)
    free = [i for i in range(f.n) if i not in coords]
    total = 0.0
    for assignment in itertools.product(range(f.q), repeat=len(free)):
        y = list(x)
        prob = 1.0
        for i, v in zip(free, assignment):
            y[i] = v
            prob *= measure.atoms[v]
        total += prob * f(y)
    return total


def enum_component(f: QaryFunction, measure: ProductMeasure, mask: int, x) -> float:
    """The orthogonal component for the subset ``mask`` at x, by inclusion-exclusion:
    the sum over T within S of (-1)^(|S|-|T|) E[f | X_T = x_T]."""
    subset = [i for i in range(f.n) if mask >> i & 1]
    total = 0.0
    for size in range(len(subset) + 1):
        for coords in itertools.combinations(subset, size):
            sign = (-1) ** (len(subset) - size)
            total += sign * enum_conditional(f, measure, coords, x)
    return total


def enum_delta(f: QaryFunction, measure: ProductMeasure, i: int, x) -> float:
    """f(x) minus E[f | every coordinate but i], by enumeration."""
    rest = [j for j in range(f.n) if j != i]
    return f(x) - enum_conditional(f, measure, rest, x)


def enum_influence(f: QaryFunction, measure: ProductMeasure, i: int) -> float:
    """E[Var[f | x_{-i}]] by direct enumeration."""
    rest = [j for j in range(f.n) if j != i]
    total = 0.0
    for assignment in itertools.product(range(f.q), repeat=len(rest)):
        prob_rest = math.prod(measure.atoms[v] for v in assignment)
        mean = 0.0
        second = 0.0
        for v in range(f.q):
            y = [0] * f.n
            for j, w in zip(rest, assignment):
                y[j] = w
            y[i] = v
            val = f(y)
            mean += measure.atoms[v] * val
            second += measure.atoms[v] * val * val
        total += prob_rest * (second - mean * mean)
    return total


def enum_lp_norm(g: QaryFunction, measure: ProductMeasure, p: float) -> float:
    return sum(point_prob(x, measure) * abs(g(x)) ** p for x in points(g.q, g.n)) ** (1 / p)


def brute_monotone(f: QaryFunction) -> bool:
    """Monotonicity over every comparable pair, not just covers."""
    pts = list(points(f.q, f.n))
    for a in range(f.q):
        for x in pts:
            if f(x) != a:
                continue
            for y in pts:
                if leq_a(x, y, a) and f(y) != a:
                    return False
    return True


def zero_monotone_closure(table: np.ndarray, q: int, n: int) -> np.ndarray:
    """Pointwise max over the down-set of each point: always 0-monotone."""
    out = table.astype(int).copy()
    size = q**n
    for i in range(n):
        stride = q ** (n - 1 - i)
        for idx in range(size):
            digit = (idx // stride) % q
            if digit != 0:
                tgt = idx - digit * stride
                out[tgt] = max(out[tgt], out[idx])
    return out


def random_positive_measure(q: int, rng: np.random.Generator, floor: float = 1e-3) -> ProductMeasure:
    atoms = rng.dirichlet(np.ones(q))
    while atoms.min() < floor:
        atoms = rng.dirichlet(np.ones(q))
    return ProductMeasure(q, atoms)


def random_real_function(q: int, n: int, rng: np.random.Generator) -> QaryFunction:
    return QaryFunction.from_table(q, n, rng.standard_normal(q**n), codomain="real")


def random_binary_function(q: int, n: int, rng: np.random.Generator) -> QaryFunction:
    table = rng.integers(0, 2, size=q**n).astype(float)
    return QaryFunction.from_table(q, n, table, codomain="real")


def int64_plurality_winners(X: np.ndarray, q: int, tie_break: str) -> np.ndarray:
    """Row-wise plurality winner on int64 points, the library's former kernel:
    every row's first occurrences are computed whether or not it has a tie."""
    X = np.asarray(X, dtype=np.int64)
    counts = np.stack([(X == v).sum(axis=1) for v in range(q)], axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    if tie_break == "smallest_index":
        return tied.argmax(axis=1)
    n = X.shape[1]
    first = np.empty((X.shape[0], q), dtype=np.int64)
    for v in range(q):
        hit = X == v
        first[:, v] = np.where(hit.any(axis=1), hit.argmax(axis=1), n)
    return np.where(tied, first, n + 1).argmin(axis=1)


def enum_plurality(x, q: int, tie_break: str) -> int:
    """The plurality winner of one point by counting each symbol: a tie goes to
    the smallest tied symbol or to the tied symbol that occurs first."""
    counts = [list(x).count(v) for v in range(q)]
    tied = [v for v in range(q) if counts[v] == max(counts)]
    if tie_break == "smallest_index":
        return tied[0]
    return next(v for v in x if v in tied)


def brute_indeterminacy(c0, rankings, draws) -> tuple[dict, float]:
    """Per-subset and joint agreement of plurality with the choice function
    ``c0`` over the trials in ``draws``, where trial t's voter i ranks by
    ``rankings[draws[t][i]]``: every subset of every trial recounted voter by
    voter, a tie going to the tied alternative that tops some voter first."""
    masks = range(1, 1 << c0.m)
    hits = dict.fromkeys(masks, 0)
    joint = 0
    for row in np.asarray(draws).tolist():
        every = True
        for mask in masks:
            tops = [next(a for a in rankings[k] if mask >> a & 1) for k in row]
            agrees = enum_plurality(tops, c0.m, "first_occurrence") == c0.get(mask)
            hits[mask] += agrees
            every = every and agrees
        joint += every
    return {str(mask): hits[mask] / len(draws) for mask in masks}, joint / len(draws)


def enum_antisym_majority(x, n: int) -> int:
    """1 when the first block of bits out-sums the second; on equal sums the
    first coordinate where the blocks differ decides, else coordinate 0."""
    left, right = list(x[:n]), list(x[n:])
    if sum(left) != sum(right):
        return int(sum(left) > sum(right))
    for u, w in zip(left, right):
        if u != w:
            return int(u > w)
    return int(left[0])


def reshape_recursive_plurality(X: np.ndarray, q: int, arity: int, tie_break: str) -> np.ndarray:
    """Tree plurality by reshaping each level to ``(N * gates, arity)`` rows,
    the library's former kernel."""
    Y = np.asarray(X, dtype=np.int64)
    while Y.shape[1] > 1:
        blocks = Y.reshape(-1, arity)
        Y = int64_plurality_winners(blocks, q, tie_break).reshape(Y.shape[0], -1)
    return Y[:, 0]


def full_grid_crossing(curve, level: float) -> float:
    """The crossing of ``level`` from every grid node's value, the library's
    former ``_locate_crossing``: the first node at or above the level closes
    the cell that is refined (exact) or interpolated (Monte Carlo)."""
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
    if curve.method == "exact":
        while hi - lo > _REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if curve.G(mid, None) < level:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    v0, v1 = float(curve.values[i - 1]), float(curve.values[i])
    if v1 == v0:
        return 0.5 * (lo + hi)
    return lo + (level - v0) * (hi - lo) / (v1 - v0)


def full_grid_window(curve, eps: float) -> ThresholdWindow:
    """``threshold_window`` over :func:`full_grid_crossing`."""
    t_lo = full_grid_crossing(curve, eps)
    t_hi = full_grid_crossing(curve, 1.0 - eps)
    return ThresholdWindow(
        eps=eps, t_lo=t_lo, t_hi=t_hi, width=max(0.0, t_hi - t_lo), method=curve.method
    )


def sweep_by_measure(f, a, eps, sampler, samples, inner_samples=10_000) -> SweepReport:
    """The library's former ``simplex_sweep``: one sampled measure at a time, each
    classified by its evaluator's value (the law, the table or nested Monte Carlo
    on the stream ``[seed, i]``), with no enclosure read."""
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
