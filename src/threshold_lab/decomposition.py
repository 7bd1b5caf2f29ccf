"""Orthogonal decomposition, coordinate differences, influences, norms, noise.

A real function on a product space splits uniquely into components indexed by
coordinate subsets: each component depends only on its subset and integrates
to zero against any conditioning that does not contain the subset.  Write
``E_i`` for the average over coordinate ``i``.  The component for ``S`` is
``f`` with ``I - E_i`` applied for each ``i`` in ``S`` and ``E_i`` for each
``i`` outside it, so all components come from one split per coordinate.  The
coordinate difference is ``delta_i f = f - E_i f`` and the influence of ``i``
is its squared L2 norm, the expected variance of ``f`` along coordinate ``i``.

Only :func:`efron_stein` (and the CLI's ``decompose`` built on it) stores the
components, ``2**n`` tables of ``q**n`` entries.  The reports and verifiers
hold ``q**n`` entries at a time and make one pass per coordinate over the
``(q**i, q, q**(n-1-i))`` view of the table:

* :func:`influence` and the reports' influences and difference norms use the
  :func:`delta_i` table of each coordinate;
* :func:`verify_hypercontractivity` uses ``_noise``,
  ``T_theta = prod_i (theta I + (1 - theta) E_i)``;
* :func:`verify_level_bound`, :func:`verify_level_bounds` (every level from
  one pass) and :func:`talagrand_report` use ``_subset_norms``:
  coefficients in a basis orthonormal under the measure with the constant
  first on every axis, squared and summed per axis into constant and
  non-constant parts, which gives ``||f_S||^2`` for every ``S``.

All values are exact over dense tables.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    MAX_TABLE_SIZE,
    DegenerateMeasureError,
    DimensionMismatchError,
    InvalidFunctionError,
    ProductMeasure,
    QaryFunction,
    TableSizeError,
    _check_compatible,
    average_over_axis,
    expectation,
    product_weights,
)


def _as_real_table(f: QaryFunction, measure: ProductMeasure) -> QaryFunction:
    if f.codomain != "real":
        raise InvalidFunctionError("decomposition operations need a real codomain")
    _check_compatible(f, measure)
    return f.tabulate()


def subset_bits(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def _subset_sizes(n: int) -> np.ndarray:
    """``|S|`` for every subset bitmask ``S`` of ``n`` coordinates, in mask order."""
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        # setting bit i of each mask below 2**i adds one element
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    return sizes


def _axis_view(table: np.ndarray, q: int, n: int, i: int) -> np.ndarray:
    """``table`` as ``(q**i, q, q**(n-1-i))``, coordinate ``i`` in the middle."""
    return table.reshape(q**i, q, q ** (n - 1 - i))


def _noise(f: QaryFunction, measure: ProductMeasure, theta: float) -> np.ndarray:
    """``T_theta f = prod_i (theta I + (1 - theta) E_i) f``, one pass per axis.

    Expanding the product gives ``sum_S theta**|S| f_S``, the attenuation of
    :func:`noise_operator`, without the components.
    """
    out = np.array(f.table, dtype=float)
    for i in range(f.n):
        view = _axis_view(out, f.q, f.n, i)
        mean = np.einsum("aqb,q->ab", view, measure.atoms)[:, None, :]
        view *= theta
        view += (1.0 - theta) * mean
    return out


def _subset_norms(f: QaryFunction, measure: ProductMeasure) -> np.ndarray:
    """``||f_S||^2`` for every subset bitmask ``S``, in mask order.

    Row ``k`` of ``basis`` maps ``f`` along one axis to its coefficient on
    ``phi_k``, where ``phi_0 = 1`` and the ``phi_k`` are orthonormal under
    the measure: they are the columns of a QR factor whose first column is
    ``sqrt(atoms)``, divided by it (signs do not matter once squared).  A
    coefficient belongs to the subset of axes where its index is non-zero,
    so the squares are summed on each axis into index 0 and the rest.
    """
    q, n = f.q, f.n
    root = np.sqrt(measure.atoms)
    ortho, _ = np.linalg.qr(np.column_stack((root, np.eye(q)[:, 1:])))
    basis = ortho.T * root
    coef = np.array(f.table, dtype=float)
    spare = np.empty_like(coef)
    for i in range(n):
        view = _axis_view(coef, q, n, i)
        np.einsum("kx,axb->akb", basis, view, out=_axis_view(spare, q, n, i))
        coef, spare = spare, coef
    coef *= coef
    if q > 2:  # at q = 2 every axis already holds just the two parts
        for i in range(n):
            view = coef.reshape(2**i, q, -1)
            coef = np.concatenate((view[:, :1], view[:, 1:].sum(axis=1, keepdims=True)), axis=1)
    # axis i of the (2,)*n result is bit n-1-i of the flat index; reversed
    # axes put coordinate i on bit i
    return coef.reshape((2,) * n).transpose().ravel()


@dataclasses.dataclass(frozen=True, eq=False)
class EfronSteinDecomposition:
    """All ``2**n`` orthogonal components of ``f`` under a product measure.

    ``components[mask]`` is the dense table of the component for the subset
    whose bitmask is ``mask`` (bit i <-> coordinate i).  Components sum to
    ``f`` pointwise and are pairwise orthogonal in L2 of the measure.
    """

    q: int
    n: int
    measure: ProductMeasure
    components: np.ndarray  # shape (2**n, q**n)

    def component(self, subset) -> np.ndarray:
        """The component table for ``subset`` (bitmask or coordinate iterable)."""
        if isinstance(subset, (int, np.integer)):
            mask = int(subset)
        else:
            mask = 0
            for i in subset:
                mask |= 1 << int(i)
        if not 0 <= mask < self.components.shape[0]:
            raise DimensionMismatchError(f"subset mask {mask} out of range")
        return self.components[mask]

    def reconstruction(self) -> np.ndarray:
        return self.components.sum(axis=0)

    def delta(self, i: int) -> np.ndarray:
        """Sum of the components whose subset contains coordinate ``i``."""
        return (np.arange(self.components.shape[0]) >> i & 1) @ self.components

    def squared_norms(self) -> np.ndarray:
        """Per-subset squared L2 norms under the measure."""
        w = product_weights(self.measure, self.n)
        return np.einsum("sx,sx,x->s", self.components, self.components, w)

    def level_mass(self, k: int) -> float:
        """Total squared norm at subsets of size exactly ``k``."""
        return float(self.squared_norms()[_subset_sizes(self.n) == k].sum())


def efron_stein(f: QaryFunction, measure: ProductMeasure) -> EfronSteinDecomposition:
    """Compute the full orthogonal decomposition of a tabulated real function."""
    f = _as_real_table(f, measure)
    measure.require_positive("orthogonal decomposition")
    size = f.table.shape[0]
    n_masks = 1 << f.n
    if n_masks * size > MAX_TABLE_SIZE:
        raise TableSizeError(
            f"decomposition storage 2**{f.n} * {f.q}**{f.n} exceeds the cap"
        )
    # row ``mask`` holds f with (I - E_j) applied for each j in mask and E_j for
    # each coordinate j < i outside it; step i splits every row with mask < 2**i
    # into E_i (kept in place) and I - E_i (written to row mask | 2**i), one row
    # at a time so no temporary grows to the size of the store
    tables = np.empty((n_masks, size))
    tables[0] = f.table
    for i in range(f.n):
        for mask in range(1 << i):
            row = _axis_view(tables[mask], f.q, f.n, i)
            mean = np.einsum("aqb,q->ab", row, measure.atoms)[:, None, :]
            np.subtract(row, mean, out=_axis_view(tables[mask | 1 << i], f.q, f.n, i))
            row[...] = mean
    return EfronSteinDecomposition(q=f.q, n=f.n, measure=measure, components=tables)


def delta_i(f: QaryFunction, measure: ProductMeasure, i: int) -> QaryFunction:
    """``f`` minus its conditional mean given every coordinate except ``i``."""
    f = _as_real_table(f, measure)
    if not 0 <= i < f.n:
        raise DimensionMismatchError(f"coordinate {i} outside [0, {f.n})")
    centered = f.table - average_over_axis(f.table, measure.atoms, i, f.q, f.n)
    return QaryFunction(q=f.q, n=f.n, codomain="real", out_q=None, table=centered)


def influence(f: QaryFunction, measure: ProductMeasure, i: int) -> float:
    """``||delta_i f||_2^2``: the expected conditional variance of ``f`` given
    all coordinates but ``i``."""
    return lp_norm(delta_i(f, measure, i), measure, 2.0) ** 2


def _influences(f: QaryFunction, measure: ProductMeasure) -> list[float]:
    """Every coordinate's :func:`influence`, from one weight table."""
    f = _as_real_table(f, measure)
    w = product_weights(measure, f.n)
    return [_weighted_norm(delta_i(f, measure, i).table, w, 2.0) ** 2 for i in range(f.n)]


def lp_norm(g: QaryFunction, measure: ProductMeasure, p: float) -> float:
    """The L_p norm of ``g`` under the product measure."""
    if p < 1:
        raise DimensionMismatchError(f"L_p norms need p >= 1, got {p}")
    g = _as_real_table(g, measure)
    return _weighted_norm(g.table, product_weights(measure, g.n), p)


def _weighted_norm(table: np.ndarray, w: np.ndarray, p: float) -> float:
    """The L_p norm of a dense table under the point weights ``w``."""
    return float((w @ np.abs(table) ** p) ** (1.0 / p))


@dataclasses.dataclass(frozen=True)
class InfluenceReport:
    """Per-coordinate influences and the L1, L_{3/2}, L2 norms of the differences."""

    influences: tuple
    total: float
    delta_l1: tuple
    delta_l32: tuple
    delta_l2: tuple

    def as_dict(self) -> dict:
        return {
            "influences": list(self.influences),
            "total": self.total,
            "delta_l1": list(self.delta_l1),
            "delta_l32": list(self.delta_l32),
            "delta_l2": list(self.delta_l2),
        }


def influence_report(f: QaryFunction, measure: ProductMeasure) -> InfluenceReport:
    f = _as_real_table(f, measure)
    w = product_weights(measure, f.n)
    influences, l1s, l32s, l2s = [], [], [], []
    for i in range(f.n):
        d = delta_i(f, measure, i).table
        l1s.append(_weighted_norm(d, w, 1.0))
        l32s.append(_weighted_norm(d, w, 1.5))
        l2s.append(_weighted_norm(d, w, 2.0))
        influences.append(l2s[-1] ** 2)
    return InfluenceReport(
        influences=tuple(influences),
        total=float(sum(influences)),
        delta_l1=tuple(l1s),
        delta_l32=tuple(l32s),
        delta_l2=tuple(l2s),
    )


def noise_operator(d: EfronSteinDecomposition, theta: float) -> QaryFunction:
    """Attenuate each component by ``theta`` to the power of its subset size."""
    if not 0.0 <= theta <= 1.0:
        raise DimensionMismatchError(f"noise parameter {theta} outside [0, 1]")
    table = (theta ** _subset_sizes(d.n)) @ d.components
    return QaryFunction(q=d.q, n=d.n, codomain="real", out_q=None, table=table)


def hypercontractive_sigma(alpha: float, exact: bool = False) -> float:
    """A noise rate at which L2 contracts below L_{3/2}, from the smallest atom.

    The default is the always-safe ``alpha**2 / 6``.  ``exact=True`` evaluates
    the sharper two-point expression

        sigma^2 = ((1-a)^(2/3) - a^(2/3)) / ((1-a) a^(-1/3) - a (1-a)^(-1/3))

    through a stable ``expm1`` form; the expression is 0/0 at ``alpha = 1/2``,
    where the safe fallback is returned instead.  The exact value is always
    at least the fallback.
    """
    if not 0.0 < alpha <= 0.5:
        raise DegenerateMeasureError(f"smallest atom must lie in (0, 1/2], got {alpha}")
    fallback = alpha * alpha / 6.0
    if not exact or alpha > 0.5 - 1e-9:
        return fallback
    r = math.log1p(-alpha) - math.log(alpha)  # log((1-alpha)/alpha) > 0
    sigma_sq = (alpha / (1.0 - alpha)) * math.expm1(2.0 * r / 3.0) / -math.expm1(-4.0 * r / 3.0)
    return max(fallback, math.sqrt(sigma_sq))


@dataclasses.dataclass(frozen=True)
class NormInequalityReport:
    sigma: float
    lhs: float
    rhs: float
    ok: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def verify_hypercontractivity(
    g: QaryFunction, measure: ProductMeasure, tol: float = 1e-9
) -> NormInequalityReport:
    """Check ``||T_sigma g||_2 <= ||g||_{3/2}`` at the safe noise rate."""
    g = _as_real_table(g, measure)
    measure.require_positive("hypercontractivity check")
    sigma = hypercontractive_sigma(measure.min_atom())
    w = product_weights(measure, g.n)
    lhs = _weighted_norm(_noise(g, measure, sigma), w, 2.0)
    rhs = _weighted_norm(g.table, w, 1.5)
    return NormInequalityReport(sigma=sigma, lhs=lhs, rhs=rhs, ok=lhs <= rhs + tol)


@dataclasses.dataclass(frozen=True)
class LevelBoundReport:
    k: int
    lhs: float
    rhs: float
    ok: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def verify_level_bound(
    g: QaryFunction, measure: ProductMeasure, k: int, tol: float = 1e-9
) -> LevelBoundReport:
    """Check that level-k mass is at most ``(6/alpha^2)**k * ||g||_{3/2}^2``.

    Requires a mean-zero ``g``; the bound follows from hypercontractivity at
    squared noise rate ``alpha^2/6``.
    """
    return _level_bounds(g, measure, [k], tol)[0]


def verify_level_bounds(
    g: QaryFunction, measure: ProductMeasure, tol: float = 1e-9
) -> list[LevelBoundReport]:
    """:func:`verify_level_bound` at every level ``k = 1..n``, in order, from
    one pass of the subset-norm kernel."""
    return _level_bounds(g, measure, range(1, g.n + 1), tol)


def _level_bounds(
    g: QaryFunction, measure: ProductMeasure, levels, tol: float
) -> list[LevelBoundReport]:
    g = _as_real_table(g, measure)
    measure.require_positive("level bound check")
    if abs(expectation(g, measure)) > 1e-9:
        raise InvalidFunctionError("level bound needs a mean-zero function")
    for k in levels:
        if not 1 <= k <= g.n:
            raise DimensionMismatchError(f"level {k} outside [1, {g.n}]")
    alpha = measure.min_atom()
    norms = _subset_norms(g, measure)
    sizes = _subset_sizes(g.n)
    l32_sq = lp_norm(g, measure, 1.5) ** 2
    reports = []
    for k in levels:
        lhs = float(norms[sizes == k].sum())
        rhs = (6.0 / alpha**2) ** k * l32_sq
        reports.append(LevelBoundReport(k=k, lhs=lhs, rhs=rhs, ok=lhs <= rhs + tol))
    return reports


@dataclasses.dataclass(frozen=True)
class CoordinateTerm:
    coord: int
    influence_sq: float  # ||delta_i f||_2^2
    l1: float
    l2: float
    log_ratio: float
    term: float | None
    degenerate: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class TalagrandReport:
    """Variance against the influence-sum bound, with the constant left free.

    ``empirical_c`` is variance divided by ``log(1/min_atom)`` times the sum
    of the per-coordinate terms; the universal constant is never asserted.
    Coordinates with a vanishing difference are skipped, and coordinates
    where the L2 and L1 norms coincide (log ratio zero, so the term would
    divide by zero) are flagged degenerate and excluded from the sum.
    """

    variance: float
    terms: tuple
    sum_terms: float
    log_inv_min_atom: float
    rhs_no_constant: float | None
    empirical_c: float | None
    m2_sum: float
    constant_function: bool

    def as_dict(self) -> dict:
        return {
            "variance": self.variance,
            "terms": [t.as_dict() for t in self.terms],
            "sum_terms": self.sum_terms,
            "log_inv_min_atom": self.log_inv_min_atom,
            "rhs_no_constant": self.rhs_no_constant,
            "empirical_c": self.empirical_c,
            "m2_sum": self.m2_sum,
            "constant_function": self.constant_function,
        }


def talagrand_report(f: QaryFunction, measure: ProductMeasure) -> TalagrandReport:
    """Report the variance bound ingredients for a tabulated real function."""
    f = _as_real_table(f, measure)
    measure.require_positive("influence-sum report")
    mean = expectation(f, measure)
    w = product_weights(measure, f.n)
    variance = _weighted_norm(f.table - mean, w, 2.0) ** 2
    alpha = measure.min_atom()
    log_inv = math.log(1.0 / alpha)
    # sum_i sum_{S containing i} ||f_S||^2 / |S| counts each non-empty S once;
    # from the subset norms it checks the variance computed on the table
    m2_sum = float(_subset_norms(f, measure)[1:].sum())
    terms = []
    for i in range(f.n):
        g = delta_i(f, measure, i).table
        l2 = _weighted_norm(g, w, 2.0)
        if l2 <= 1e-15:
            continue  # coordinate does not appear in f
        l1 = _weighted_norm(g, w, 1.0)
        log_ratio = math.log(l2 / l1)
        degenerate = log_ratio <= 1e-12
        term = None if degenerate else l2 * l2 / log_ratio
        terms.append(
            CoordinateTerm(
                coord=i,
                influence_sq=l2 * l2,
                l1=l1,
                l2=l2,
                log_ratio=log_ratio,
                term=term,
                degenerate=degenerate,
            )
        )
    if variance <= 1e-15:
        return TalagrandReport(
            variance=variance,
            terms=tuple(terms),
            sum_terms=0.0,
            log_inv_min_atom=log_inv,
            rhs_no_constant=None,
            empirical_c=None,
            m2_sum=m2_sum,
            constant_function=True,
        )
    usable = [t.term for t in terms if t.term is not None]
    sum_terms = float(sum(usable))
    rhs = log_inv * sum_terms if usable else None
    empirical_c = (variance / rhs) if rhs else None
    return TalagrandReport(
        variance=variance,
        terms=tuple(terms),
        sum_terms=sum_terms,
        log_inv_min_atom=log_inv,
        rhs_no_constant=rhs,
        empirical_c=empirical_c,
        m2_sum=m2_sum,
        constant_function=False,
    )


