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
from threshold_lab.threshold import _REFINE_TOL


def points(q: int, n: int):
    return itertools.product(range(q), repeat=n)


def point_prob(x, measure: ProductMeasure) -> float:
    return math.prod(measure.atoms[v] for v in x)


def enum_expectation(f: QaryFunction, measure: ProductMeasure) -> float:
    return sum(point_prob(x, measure) * f(x) for x in points(f.q, f.n))


def enum_prob(f: QaryFunction, measure: ProductMeasure, a: int) -> float:
    # fsum: the only rounding left is each point's product of n atoms
    return math.fsum(point_prob(x, measure) for x in points(f.q, f.n) if f(x) == a)


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
