"""Orthogonal decomposition, coordinate differences, influences, norms, noise.

A real function on a product space splits uniquely into components indexed by
coordinate subsets: each component depends only on its subset and integrates
to zero against any conditioning that does not contain the subset.  Write
``E_i`` for the average over coordinate ``i``.  The component for ``S`` is
``f`` with ``I - E_i`` applied for each ``i`` in ``S`` and ``E_i`` for each
``i`` outside it, so all components come from one split per coordinate.  The
coordinate difference is ``delta_i f = f - E_i f`` and the influence of ``i``
is its squared L2 norm, the expected variance of ``f`` along coordinate ``i``.

``E_i`` has one kernel, ``core._axis_mean`` on the ``(q**i, q, q**(n-1-i))``
view ``core._axis_view`` or a factor's ``(a, q, q**(n-1-i))`` view, shared by
the component factors, ``_noise``, :func:`delta_i`, ``conditional_expectation``
and the Russo restriction sums.
Every mean under the whole product measure (each L_p norm, influence and
variance) is one ``core._table_mean`` contraction; no weight table is built.

Each spectral quantity has one implementation, holding ``q**n`` entries at
a time and making one pass per coordinate, shared by the decomposition, the
reports and the verifiers:

* ``_delta``, and ``_difference_norms`` (a ``delta_i`` table per coordinate,
  each L_p norm one product-measure mean) for the influence, Talagrand and
  Russo reports;
* ``_noise``, ``T_theta = prod_i (theta I + (1 - theta) E_i)``;
* ``_subset_norms``, ``||f_S||^2`` for every ``S`` at once.

No ``2**n * q**n`` component store is kept.  The component for ``S`` depends
only on ``x_S``, so each is computed as a factor with length ``q`` on the axes
in ``S`` and 1 elsewhere, ``(q + 1)**n`` entries for all ``2**n`` of them, by
the same operations in the same order as on dense tables, so every value is
the dense one bit for bit; dense tables are broadcast from the factors only
where they are read (``components`` and the ``decompose`` export).

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
    Report,
    TableSizeError,
    _axis_mean,
    _axis_view,
    _check_compatible,
    _check_range,
    _frozen,
    _table_mean,
    expectation,
    subset_mask,
)

#: Slack every verifier grants its inequality, ``lhs <= rhs + VERIFY_TOL``: the
#: two sides are separately rounded norms.
VERIFY_TOL = 1e-9


def _as_real_table(f: QaryFunction, measure: ProductMeasure) -> QaryFunction:
    if f.codomain != "real":
        raise InvalidFunctionError("decomposition operations need a real codomain")
    _check_compatible(f, measure)
    return f.tabulate()


def _subset_sizes(n: int) -> np.ndarray:
    """``|S|`` for every subset bitmask ``S`` of ``n`` coordinates, in mask order."""
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        # setting bit i of each mask below 2**i adds one element
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    return sizes


def _noise(f: QaryFunction, measure: ProductMeasure, theta: float) -> np.ndarray:
    """``T_theta f = prod_i (theta I + (1 - theta) E_i) f``, one pass per axis.

    Expanding the product gives ``sum_S theta**|S| f_S``, the attenuation of
    :func:`noise_operator`, without building the components.
    """
    out = np.array(f.table, dtype=float)
    for i in range(f.n):
        view = _axis_view(out, f.q, f.n, i)
        mean = _axis_mean(view, measure.atoms)
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


def _split(row: np.ndarray, atoms: np.ndarray, i: int, difference: bool = True):
    """Step ``i`` of the decomposition on one factor: ``E_i row``, with axis ``i``
    cut to length 1, and ``(I - E_i) row`` (``None`` unless ``difference``).
    ``row`` holds length ``q`` on every axis from ``i`` on, so ``_axis_mean``
    sums each mean's ``q`` terms in the same order as on the dense table."""
    shape = row.shape
    view = row.reshape(-1, shape[i], math.prod(shape[i + 1 :]))
    mean = _axis_mean(view, atoms)
    rest = (view - mean).reshape(shape) if difference else None
    return mean.reshape(shape[:i] + (1,) + shape[i + 1 :]), rest


@dataclasses.dataclass(frozen=True, eq=False)
class EfronSteinDecomposition:
    """The orthogonal decomposition of the real table ``f`` under a product measure.

    The component for the subset ``S`` (bitmask ``mask``, bit i <-> coordinate
    i) depends only on ``x_S``, so it is held as a *factor*: an array with
    length ``q`` on the axes in ``S`` and length 1 on the others, which
    broadcasts to the dense table over ``(q,) * n``.  Nothing is cached:
    :meth:`component` computes one factor, :meth:`factors` all ``2**n`` of
    them, and :attr:`components` stacks their dense tables.  Components sum
    to ``f`` pointwise and are pairwise orthogonal in L2 of the measure.
    """

    f: QaryFunction
    measure: ProductMeasure

    @property
    def q(self) -> int:
        return self.f.q

    @property
    def n(self) -> int:
        return self.f.n

    def factors(self) -> list[np.ndarray]:
        """Every component's factor, in mask order; their ``(q + 1)**n``
        entries are capped at ``2**24``.

        Step ``i`` splits each factor with mask below ``2**i`` into ``E_i`` of
        it (kept at its mask) and ``I - E_i`` of it (at ``mask | 2**i``): the
        dense store's steps in its order, on the factors' own shapes, so every
        value is the dense store's, bit for bit.
        """
        q, n = self.q, self.n
        if (q + 1) ** n > MAX_TABLE_SIZE:
            raise TableSizeError(f"decomposition factors ({q}+1)**{n} exceed the cap")
        factors = [self.f.table.reshape((q,) * n)]
        for i in range(n):
            split = []
            for k, row in enumerate(factors):
                factors[k], rest = _split(row, self.measure.atoms, i)
                split.append(rest)
            factors += split
        return factors

    def require_dense(self) -> None:
        """Raise unless the ``2**n`` dense tables of ``q**n`` entries fit the ``2**24`` cap."""
        q, n = self.q, self.n
        if (1 << n) * q**n > MAX_TABLE_SIZE:
            raise TableSizeError(f"decomposition storage 2**{n} * {q}**{n} exceeds the cap")

    @property
    def components(self) -> np.ndarray:
        """Every component's dense table, shape ``(2**n, q**n)``, stacked from
        :meth:`factors` on each read and capped at ``2**24`` entries."""
        self.require_dense()
        q, n = self.q, self.n
        tables = np.empty((1 << n,) + (q,) * n)
        for mask, factor in enumerate(self.factors()):
            tables[mask] = factor
        return tables.reshape(1 << n, q**n)

    def component(self, subset) -> np.ndarray:
        """The dense component table for ``subset`` (bitmask or coordinate
        iterable), from the steps that lead to its one factor."""
        mask = subset_mask(subset)
        if not 0 <= mask < 1 << self.n:
            raise DimensionMismatchError(f"subset mask {mask} out of range")
        row = self.f.table.reshape((self.q,) * self.n)
        for i in range(self.n):
            inside = bool(mask >> i & 1)
            mean, rest = _split(row, self.measure.atoms, i, inside)
            row = rest if inside else mean
        return np.broadcast_to(row, (self.q,) * self.n).flatten()

    def reconstruction(self) -> np.ndarray:
        """The components summed in mask order into one ``q**n`` table."""
        factors = self.factors()
        out = np.empty((self.q,) * self.n)
        out[...] = factors[0]
        for factor in factors[1:]:
            out += factor
        return out.ravel()

    def delta(self, i: int) -> np.ndarray:
        """``delta_i f``: the sum of the components whose subset contains ``i``."""
        return _delta(self.f, self.measure, i)

    def squared_norms(self) -> np.ndarray:
        """Per-subset squared L2 norms under the measure, in mask order."""
        return _subset_norms(self.f, self.measure)


def efron_stein(f: QaryFunction, measure: ProductMeasure) -> EfronSteinDecomposition:
    """The orthogonal decomposition of a tabulated real function, components unbuilt."""
    f = _as_real_table(f, measure)
    measure.require_positive("orthogonal decomposition")
    return EfronSteinDecomposition(f=f, measure=measure)


def delta_i(f: QaryFunction, measure: ProductMeasure, i: int) -> QaryFunction:
    """``f`` minus its conditional mean given every coordinate except ``i``."""
    f = _as_real_table(f, measure)
    return dataclasses.replace(f, table=_frozen(_delta(f, measure, i)))


def _delta(f: QaryFunction, measure: ProductMeasure, i: int) -> np.ndarray:
    """The table of ``delta_i f = f - E_i f``, made from one copy of ``f``'s table."""
    _check_range(i, f.n, "coordinate")
    out = np.array(f.table)
    view = _axis_view(out, f.q, f.n, i)
    view -= _axis_mean(view, measure.atoms)
    return out


def _difference_norms(f: QaryFunction, measure: ProductMeasure, ps):
    """Yield ``(||delta_i f||_p for p in ps)`` for ``i = 0..n-1``: one difference
    table per coordinate, one at a time, each norm one product-measure mean."""
    for i in range(f.n):
        d = _delta(f, measure, i)
        yield tuple(_weighted_norm(d, measure.atoms, p) for p in ps)


def influence(f: QaryFunction, measure: ProductMeasure, i: int) -> float:
    """``||delta_i f||_2^2``: the expected conditional variance of ``f`` given
    all coordinates but ``i``."""
    f = _as_real_table(f, measure)
    return _weighted_norm(_delta(f, measure, i), measure.atoms, 2.0) ** 2


def _influences(f: QaryFunction, measure: ProductMeasure) -> list[float]:
    """Every coordinate's :func:`influence`, from one difference pass."""
    f = _as_real_table(f, measure)
    return [l2**2 for (l2,) in _difference_norms(f, measure, (2.0,))]


def lp_norm(g: QaryFunction, measure: ProductMeasure, p: float) -> float:
    """The L_p norm of ``g`` under the product measure."""
    if p < 1:
        raise DimensionMismatchError(f"L_p norms need p >= 1, got {p}")
    g = _as_real_table(g, measure)
    return _weighted_norm(g.table, measure.atoms, p)


def _weighted_norm(table: np.ndarray, atoms: np.ndarray, p: float) -> float:
    """The L_p norm of a dense table under the product of ``atoms``, from one
    float table of ``|table|**p``."""
    powered = np.abs(table)
    powered **= p
    return _table_mean(powered, atoms) ** (1.0 / p)


@dataclasses.dataclass(frozen=True)
class InfluenceReport(Report):
    """Per-coordinate influences and the L1, L_{3/2}, L2 norms of the differences."""

    influences: tuple
    total: float
    delta_l1: tuple
    delta_l32: tuple
    delta_l2: tuple


def influence_report(f: QaryFunction, measure: ProductMeasure) -> InfluenceReport:
    f = _as_real_table(f, measure)
    l1s, l32s, l2s = zip(*_difference_norms(f, measure, (1.0, 1.5, 2.0)))
    influences = tuple(l2**2 for l2 in l2s)
    return InfluenceReport(
        influences=influences,
        total=float(sum(influences)),
        delta_l1=l1s,
        delta_l32=l32s,
        delta_l2=l2s,
    )


def noise_operator(d: EfronSteinDecomposition, theta: float) -> QaryFunction:
    """Attenuate each component by ``theta`` to the power of its subset size."""
    if not 0.0 <= theta <= 1.0:
        raise DimensionMismatchError(f"noise parameter {theta} outside [0, 1]")
    return dataclasses.replace(d.f, table=_frozen(_noise(d.f, d.measure, theta)))


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
class NormInequalityReport(Report):
    sigma: float
    lhs: float
    rhs: float
    ok: bool


def verify_hypercontractivity(g: QaryFunction, measure: ProductMeasure) -> NormInequalityReport:
    """Check ``||T_sigma g||_2 <= ||g||_{3/2}`` at the safe noise rate, within
    :data:`VERIFY_TOL`."""
    g = _as_real_table(g, measure)
    measure.require_positive("hypercontractivity check")
    sigma = hypercontractive_sigma(measure.min_atom())
    rhs = _weighted_norm(g.table, measure.atoms, 1.5)
    # the L2 norm of _noise's fresh table, squared in place (x**2 == |x|**2),
    # taken after rhs so that the table is never held beside rhs's |g|**1.5
    noised = _noise(g, measure, sigma)
    noised **= 2.0
    lhs = _table_mean(noised, measure.atoms) ** 0.5
    return NormInequalityReport(sigma=sigma, lhs=lhs, rhs=rhs, ok=lhs <= rhs + VERIFY_TOL)


@dataclasses.dataclass(frozen=True)
class LevelBoundReport(Report):
    k: int
    lhs: float
    rhs: float
    ok: bool


def verify_level_bound(g: QaryFunction, measure: ProductMeasure, k: int) -> LevelBoundReport:
    """Check that level-k mass is at most ``(6/alpha^2)**k * ||g||_{3/2}^2``,
    within :data:`VERIFY_TOL`.

    Requires a mean-zero ``g``; the bound follows from hypercontractivity at
    squared noise rate ``alpha^2/6``.
    """
    return _level_bounds(g, measure, [k])[0]


def verify_level_bounds(g: QaryFunction, measure: ProductMeasure) -> list[LevelBoundReport]:
    """:func:`verify_level_bound` at every level ``k = 1..n``, in order, within
    :data:`VERIFY_TOL`, from one pass of the subset-norm kernel."""
    return _level_bounds(g, measure, range(1, g.n + 1))


def _level_bounds(g: QaryFunction, measure: ProductMeasure, levels) -> list[LevelBoundReport]:
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
        reports.append(LevelBoundReport(k=k, lhs=lhs, rhs=rhs, ok=lhs <= rhs + VERIFY_TOL))
    return reports


@dataclasses.dataclass(frozen=True)
class CoordinateTerm(Report):
    coord: int
    influence_sq: float  # ||delta_i f||_2^2
    l1: float
    l2: float
    log_ratio: float
    term: float | None
    degenerate: bool


@dataclasses.dataclass(frozen=True)
class TalagrandReport(Report):
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
    constant_function: bool


def talagrand_report(f: QaryFunction, measure: ProductMeasure) -> TalagrandReport:
    """Report the variance bound ingredients for a tabulated real function."""
    f = _as_real_table(f, measure)
    return _talagrand(f, measure, _difference_norms(f, measure, (1.0, 2.0)))


def _talagrand(f: QaryFunction, measure: ProductMeasure, norms) -> TalagrandReport:
    """:func:`talagrand_report` for the tabulated real ``f`` from its per-coordinate
    ``(||delta_i f||_1, ||delta_i f||_2)``; a lazy ``norms`` is read after the
    measure check."""
    measure.require_positive("influence-sum report")
    terms = []
    for i, (l1, l2) in enumerate(norms):
        if l2 <= 1e-15:
            continue  # coordinate does not appear in f
        log_ratio = math.log(l2 / l1)
        degenerate = log_ratio <= 1e-12
        terms.append(
            CoordinateTerm(
                coord=i,
                influence_sq=l2 * l2,
                l1=l1,
                l2=l2,
                log_ratio=log_ratio,
                term=None if degenerate else l2 * l2 / log_ratio,
                degenerate=degenerate,
            )
        )
    mean = _table_mean(f.table, measure.atoms)
    variance = _weighted_norm(f.table - mean, measure.atoms, 2.0) ** 2
    log_inv = math.log(1.0 / measure.min_atom())
    constant = variance <= 1e-15
    usable = [] if constant else [t.term for t in terms if t.term is not None]
    sum_terms = float(sum(usable))
    rhs = log_inv * sum_terms if usable else None
    return TalagrandReport(
        variance=variance,
        terms=tuple(terms),
        sum_terms=sum_terms,
        log_inv_min_atom=log_inv,
        rhs_no_constant=rhs,
        empirical_c=variance / rhs if rhs else None,
        constant_function=constant,
    )
