"""Alphabets, tabulated/oracle functions, product measures, and exact expectations.

Conventions used throughout the package:

* The alphabet is ``[q] = {0, 1, ..., q-1}``; coordinates and symbols are
  0-based.
* Tabulated functions are flat arrays of length ``q**n`` indexed big-endian
  in the first coordinate: ``index(x) = sum_j x[j] * q**(n-1-j)``, so
  coordinate 0 is the most significant digit.
* All logarithms are natural unless stated otherwise.

Rules the other modules share live here once: the index bound
:func:`_check_range`, the subset bitmasks :func:`subset_members` and
:func:`subset_mask` (bit ``j`` stands for element ``j``), the symmetric-group
generators :func:`_swap_and_cycle` and the :class:`Report` base of ``as_dict``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

#: Exact computation cap: dense tables (and decomposition storage) must fit
#: in ``2**24`` entries.  Larger instances must go through oracle evaluators
#: or Monte Carlo.
MAX_TABLE_SIZE = 1 << 24

ATOM_SUM_TOL = 1e-12

#: Coordinates held by the point buffer that :meth:`QaryFunction.tabulate`
#: hands to an oracle's ``batch``.
_TABULATE_COORDS = 4_000_000

#: Coordinates per block of rows that a table's ``batch`` encodes into table
#: indices: half a MiB of one-byte digits, read column by column from cache.
_ENCODE_DIGITS = 1 << 19


class ThresholdLabError(Exception):
    """Base class for domain errors raised by this package."""


class DimensionMismatchError(ThresholdLabError):
    pass


class TableSizeError(ThresholdLabError):
    pass


class DegenerateMeasureError(ThresholdLabError):
    pass


class InvalidFunctionError(ThresholdLabError):
    pass


def _check_range(value, bound: int, name: str) -> None:
    """Refuse ``value`` unless ``0 <= value < bound``, naming it ``name``."""
    if not 0 <= value < bound:
        raise DimensionMismatchError(f"{name} {value} outside [0, {bound})")


def subset_members(mask) -> list[int]:
    """The elements of the subset bitmask ``mask``, ascending."""
    mask = int(mask)
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def subset_mask(subset):
    """The bitmask of ``subset``: an int or NumPy integer mask as is, else the
    bits of the elements of an iterable."""
    if isinstance(subset, (int, np.integer)):
        return subset
    mask = 0
    for j in subset:
        mask |= 1 << int(j)
    return mask


def _swap_and_cycle(k: int) -> list[np.ndarray]:
    """The transposition ``(0 1)`` and the cycle ``j -> j + 1 mod k`` of ``[k]``,
    which generate the symmetric group; one permutation where they coincide
    (k <= 2)."""
    swap = np.arange(k)
    swap[:2] = swap[:2][::-1]
    cycle = np.roll(np.arange(k), -1)
    return [swap] if np.array_equal(swap, cycle) else [swap, cycle]


class Report:
    """Base of the frozen report dataclasses: ``as_dict`` nests reports too."""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def table_size(q: int, n: int) -> int:
    """Return ``q**n`` after checking it against :data:`MAX_TABLE_SIZE`."""
    size = q**n
    if size > MAX_TABLE_SIZE:
        # past 2**64 the digits would swamp the message (348 of them at 3**729)
        shown = f"= {size}" if size <= 1 << 64 else f"~ 10**{n * math.log10(q):.1f}"
        raise TableSizeError(
            f"table of size {q}**{n} {shown} exceeds the exact-computation "
            f"cap {MAX_TABLE_SIZE}"
        )
    return size


def index_of(x: Sequence[int], q: int) -> int:
    """Table index of the point ``x``, coordinate 0 most significant."""
    idx = 0
    for v in x:
        idx = idx * q + int(v)
    return idx


def _table_index(points: np.ndarray, q: int) -> np.ndarray:
    """:func:`index_of` of each row of ``points``, whose coordinates lie in
    ``[0, q)``, by Horner's rule one column at a time.

    Rows go in blocks of about :data:`_ENCODE_DIGITS` coordinates, each in the
    narrowest dtype that holds ``q - 1`` (the one-byte points Monte Carlo draws
    are not copied), so the strided column reads stay in cache whatever the
    points' dtype; no column is widened to int64.
    """
    digits = np.min_scalar_type(q - 1)
    rows = max(1, _ENCODE_DIGITS // points.shape[1])
    index = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], rows):
        columns = points[start : start + rows].astype(digits, copy=False).T
        block = index[start : start + rows]
        block[:] = columns[0]
        for column in columns[1:]:
            block *= q
            block += column
    return index


def points_of(indices: np.ndarray, q: int, n: int) -> np.ndarray:
    """Decode table indices into an ``(N, n)`` array of coordinates."""
    idx = np.asarray(indices, dtype=np.int64)
    return np.stack(np.unravel_index(idx, (q,) * n), axis=1)


def all_points(q: int, n: int) -> np.ndarray:
    """All of ``[q]**n`` in table-index order, as an ``(q**n, n)`` array."""
    return points_of(np.arange(table_size(q, n)), q, n)


@dataclasses.dataclass(frozen=True)
class ProductMeasure:
    """A probability measure on ``[q]``, used i.i.d. across coordinates.

    Zero atoms are accepted but flagged ``degenerate``; operations that need
    ``log(1/min_atom)`` or conditional uniqueness reject degenerate measures
    explicitly.
    """

    q: int
    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.array(self.atoms, dtype=float)
        if self.q < 1:
            raise DimensionMismatchError("alphabet size must be >= 1")
        if atoms.shape != (self.q,):
            raise DimensionMismatchError(
                f"expected {self.q} atoms, got shape {atoms.shape}"
            )
        values = atoms.tolist()  # faster to check than by numpy reductions
        if any(v < 0 for v in values):
            raise DegenerateMeasureError("atoms must be nonnegative")
        total = sum(values)
        if not math.isfinite(total):  # as it is when an atom is NaN or infinite
            raise DegenerateMeasureError(f"atoms must be finite, got {values}")
        if abs(total - 1.0) > ATOM_SUM_TOL:
            raise DegenerateMeasureError(
                f"atoms must sum to 1 within {ATOM_SUM_TOL}, got {np.float64(total)!r}"
            )
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def uniform(cls, q: int) -> "ProductMeasure":
        return cls(q, np.full(q, 1.0 / q))

    def min_atom(self) -> float:
        return float(self.atoms.min())

    @property
    def degenerate(self) -> bool:
        """True when some atom is exactly zero."""
        return bool(np.any(self.atoms == 0.0))

    def require_positive(self, context: str = "operation") -> None:
        if self.degenerate:
            raise DegenerateMeasureError(
                f"{context} requires strictly positive atoms; got {self.atoms.tolist()}"
            )

    def condition_off(self, a: int) -> "ProductMeasure":
        """The conditional measure given the symbol is not ``a``."""
        mass = 1.0 - self.atoms[a]
        if mass <= 0.0:
            raise DegenerateMeasureError(
                f"cannot condition off symbol {a} carrying full mass"
            )
        atoms = self.atoms.copy()
        atoms[a] = 0.0
        return ProductMeasure(self.q, atoms / atoms.sum())


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, which a derivation has just built, made read-only, so that
    :class:`QaryFunction` adopts it instead of copying it."""
    table.setflags(write=False)
    return table


def _relabel_index(perm: np.ndarray, n: int) -> np.ndarray:
    """``index(perm(x))`` at every index of ``x``, ``perm`` acting on each symbol.

    Appending digit ``k`` to every index so far gives the indices that follow
    it by ``k``, so each coordinate is one outer sum and no index is decoded.
    """
    q = len(perm)
    index = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        index = np.add.outer(index * q, perm).ravel()
    return index


@dataclasses.dataclass(frozen=True)
class Oracle:
    """Named pure evaluator backing a function too large to tabulate.

    ``batch`` maps an ``(N, n)`` integer array to ``N`` values and must not
    modify its points: :meth:`QaryFunction.tabulate` passes a read-only view
    of a buffer it reuses, so writing into it raises ``ValueError``.  The
    points may come in any integer dtype and memory layout: Monte Carlo and
    :meth:`QaryFunction.tabulate` both pass the narrowest unsigned dtype that
    holds ``q - 1`` (``uint8`` up to q = 256), Monte Carlo in C order and
    ``tabulate`` column-major (each coordinate one contiguous column), so
    ``batch`` must not assume int64 (``x.sum(axis=1) - y.sum(axis=1)`` on
    ``uint8`` rows, for one, wraps around zero) nor C-contiguous rows.  An
    optional ``exact_prob(measure, a)`` computes ``P[f = a]`` exactly from
    structure (the family laws of :mod:`.laws`, e.g. plurality's Poissonized
    counts), enabling exact threshold scans at sizes far beyond the table cap.
    An optional ``path_law(path, a)``, given only beside ``exact_prob``, returns
    ``G(t) = P[f = a]`` along a :class:`MeasurePath` anchored at ``a`` as one
    callable of ``t`` (plurality's, from n + 1 conditional probabilities), which
    exact curves read in place of ``exact_prob`` at each ``path.measure_at(t)``.
    """

    name: str
    params: dict
    batch: Callable[[np.ndarray], np.ndarray]
    exact_prob: Callable[[ProductMeasure, int], float] | None = None
    path_law: Callable[[MeasurePath, int], Callable[[float], float]] | None = None


@dataclasses.dataclass(frozen=True, eq=False)
class QaryFunction:
    """A total function ``[q]**n -> V`` with ``V = [out_q]`` or the reals.

    Exactly one of ``table`` (dense, index order as in :func:`index_of`) and
    ``oracle`` is set.  ``out_q`` is the size of an alphabet codomain (``q``
    when not given) and ``None`` for a real one.  Instances are immutable and
    safe to share across threads.  ``__post_init__`` casts every table into a
    read-only array of its own: it adopts a read-only array that owns its
    memory and copies anything else, so a derived function is its source
    through ``dataclasses.replace`` with a fresh table made :func:`_frozen`.
    """

    q: int
    n: int
    codomain: str  # "alphabet" | "real"
    out_q: int | None
    table: np.ndarray | None = None
    oracle: Oracle | None = None

    def __post_init__(self) -> None:
        if self.q < 2 or self.n < 1:
            raise DimensionMismatchError("need q >= 2 and n >= 1")
        if self.codomain not in ("alphabet", "real"):
            raise InvalidFunctionError(f"unknown codomain {self.codomain!r}")
        if self.codomain == "real" and self.out_q is not None:
            raise InvalidFunctionError(f"a real codomain takes no out_q, got {self.out_q}")
        if self.codomain == "alphabet" and self.out_q is None:
            object.__setattr__(self, "out_q", self.q)
        if self.codomain == "alphabet" and self.out_q < 1:
            raise InvalidFunctionError("alphabet codomain needs a positive out_q")
        if (self.table is None) == (self.oracle is None):
            raise InvalidFunctionError("exactly one of table/oracle must be set")
        if self.table is not None:
            size = table_size(self.q, self.n)
            table = np.asarray(self.table)
            if table.shape != (size,):
                raise InvalidFunctionError(
                    f"table must have length {self.q}**{self.n} = {size}, "
                    f"got shape {table.shape}"
                )
            # checked before the cast, which turns NaN into a warning, 0.9 into 0
            # and the string "1.5" into 1.5
            if table.dtype.kind not in "biuf":
                raise TypeError(f"table values must be numbers, got dtype {table.dtype}")
            if table.dtype.kind == "f" and not np.isfinite(table).all():
                raise InvalidFunctionError("table values must be finite")
            copy = table.flags.writeable or table.base is not None
            if self.codomain == "alphabet":
                if table.size and (table.min() < 0 or table.max() >= self.out_q):
                    raise InvalidFunctionError(
                        f"alphabet values must lie in [0, {self.out_q})"
                    )
                cast = table.astype(np.int64, copy=copy)
                if table.dtype.kind == "f" and not np.array_equal(cast, table):
                    raise InvalidFunctionError("alphabet values must be integers")
                table = cast
            else:
                table = table.astype(float, copy=copy)
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @classmethod
    def from_table(
        cls,
        q: int,
        n: int,
        values: Iterable,
        codomain: str = "alphabet",
        out_q: int | None = None,
    ) -> "QaryFunction":
        table = values if isinstance(values, np.ndarray) else np.asarray(list(values))
        return cls(q=q, n=n, codomain=codomain, out_q=out_q, table=table)

    @classmethod
    def from_oracle(
        cls,
        q: int,
        n: int,
        oracle: Oracle,
        codomain: str = "alphabet",
        out_q: int | None = None,
    ) -> "QaryFunction":
        return cls(q=q, n=n, codomain=codomain, out_q=out_q, oracle=oracle)

    def __call__(self, x: Sequence[int]):
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.n,):
            raise DimensionMismatchError(f"point must have {self.n} coordinates")
        if np.any(x < 0) or np.any(x >= self.q):
            raise DimensionMismatchError(f"coordinates must lie in [0, {self.q})")
        value = self.batch(x[None, :])[0]
        return int(value) if self.codomain == "alphabet" else float(value)

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an ``(N, n)`` array of points.

        Integer points reach the oracle in their own dtype, unwidened; any
        other input is cast to int64 first.
        """
        points = np.asarray(points)
        if points.dtype.kind not in "iu":
            points = points.astype(np.int64)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise DimensionMismatchError(f"expected an (N, {self.n}) array")
        if self.table is not None:
            if points.size and (points.min() < 0 or points.max() >= self.q):
                raise DimensionMismatchError(f"coordinates must lie in [0, {self.q})")
            return self.table[_table_index(points, self.q)]
        return self.oracle.batch(points)

    def tabulate(self) -> "QaryFunction":
        """Materialize a dense table (subject to the size cap)."""
        if self.table is not None:
            return self
        q, n = self.q, self.n
        size = table_size(q, n)
        dtype = np.int64 if self.codomain == "alphabet" else float
        values = np.empty(size, dtype=dtype)
        # blocks of q**low points share their high digits; the point buffer
        # stays within _TABULATE_COORDS coordinates at the size cap
        rows = max(1, _TABULATE_COORDS // n)
        low = 0
        while low < n and q ** (low + 1) <= rows:
            low += 1
        block = q**low
        high = n - low
        # one contiguous column of one-byte digits per coordinate (up to q = 256)
        columns = np.empty((n, block), dtype=np.min_scalar_type(q - 1))
        columns[high:] = np.indices((q,) * low, dtype=columns.dtype).reshape(low, block)
        points = columns.T
        points.setflags(write=False)
        for b, digits in enumerate(itertools.product(range(q), repeat=high)):
            columns[:high] = np.array(digits, dtype=columns.dtype)[:, None]
            values[b * block : (b + 1) * block] = self.batch(points)
        return dataclasses.replace(self, table=_frozen(values), oracle=None)

    def as_real(self) -> "QaryFunction":
        """Reinterpret alphabet values as real numbers: the tabulated integer
        table, cast to float once by ``__post_init__``; a real function as is."""
        if self.codomain == "real":
            return self
        return dataclasses.replace(self.tabulate(), codomain="real", out_q=None)

    def indicator(self, a: int) -> "QaryFunction":
        """The real-valued indicator ``1[f = a]`` as a table: the bool table
        ``f == a``, cast to float once by ``__post_init__``."""
        if self.codomain != "alphabet":
            raise InvalidFunctionError("indicator needs an alphabet codomain")
        tab = self.tabulate()
        return dataclasses.replace(tab, codomain="real", out_q=None, table=tab.table == a)

    def is_binary(self) -> bool:
        """True when the (tabulated) values all lie in {0, 1}."""
        if self.table is None:
            return False
        return bool(((self.table == 0) | (self.table == 1)).all())


def permute_input_symbols(f: QaryFunction, perm: Sequence[int]) -> QaryFunction:
    """The table of ``x -> f(perm(x))`` where ``perm`` acts on input symbols."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(f.q)):
        raise DimensionMismatchError(f"perm must be a permutation of [{f.q})")
    tab = f.tabulate()
    return dataclasses.replace(tab, table=_frozen(tab.table[_relabel_index(perm, f.n)]))


def _check_compatible(f: QaryFunction, measure: ProductMeasure | SimplexSampler) -> None:
    """Refuse a measure, or a sampler of measures, on another alphabet than ``f``'s."""
    if f.q != measure.q:
        raise DimensionMismatchError(
            f"function alphabet {f.q} != measure alphabet {measure.q}"
        )


def expectation(f: QaryFunction, measure: ProductMeasure) -> float:
    """``E[f]`` under the n-fold product of ``measure``, exact for tables."""
    _check_compatible(f, measure)
    if f.codomain != "real":
        raise InvalidFunctionError("expectation needs a real codomain; use as_real()")
    if f.table is None:
        raise TableSizeError(
            "expectation of an oracle function needs tabulation; use tabulate() "
            "or a Monte Carlo estimator"
        )
    return _table_mean(f.table, measure.atoms)


def _check_symbol(f: QaryFunction, a: int) -> None:
    """Refuse ``P[f = a]`` unless ``f`` is alphabet-valued and ``0 <= a < out_q``."""
    if f.codomain != "alphabet":
        raise InvalidFunctionError("P[f = a] needs an alphabet codomain")
    _check_range(a, f.out_q, "symbol")


def _table_mean(table: np.ndarray, atoms: np.ndarray) -> float:
    """The package's one product-measure mean, ``sum_x table[x] prod_i atoms[x_i]``
    for a bool or real table over ``[q]**k``, any k >= 0, one coordinate at a
    time: coordinate 0 is integrated out of ``table`` itself by ``_axis_mean``'s
    contraction (a bool table is read as is, never copied to floats), then each
    next one out of the float table left, so no weight table is built and every
    sum has ``q`` terms.  A one-entry table is its own mean."""
    q = len(atoms)
    v = table
    if v.size > 1:
        v = np.einsum("qb,q->b", v.reshape(q, -1), atoms)
    while v.size > 1:
        v = atoms @ v.reshape(q, -1)
    return float(v[0])


@dataclasses.dataclass(frozen=True)
class Evaluator:
    """``P[f = a]`` at a measure, ``prob(measure, stream)``, by a named method:
    ``table`` (the dense table's mean), ``exact:<oracle name>`` (the oracle's
    ``exact_prob``), both ignoring ``stream``, or ``mc`` (``samples`` draws of the
    stream ``[seed, stream]``).  :meth:`along` reads the same values along a path,
    through ``path_law(path)`` where the method has one (the oracle's
    ``path_law``)."""

    name: str
    prob: Callable[..., float] = dataclasses.field(repr=False)
    samples: int | None = None
    seed: int | None = None
    path_law: Callable[[MeasurePath], Callable[[float], float]] | None = dataclasses.field(
        default=None, repr=False
    )

    def along(self, path: MeasurePath) -> Callable[..., float]:
        """``G(t, stream)``: ``P[f = a]`` at ``path.measure_at(t)``, from the path law
        if there is one (it ignores ``stream``), else from ``prob``."""
        if self.path_law is not None:
            law = self.path_law(path)
            return lambda t, stream=None: law(t)
        return lambda t, stream=None: self.prob(path.measure_at(t), stream)


def _exact_prob(f: QaryFunction, a: int) -> Evaluator | None:
    """The exact evaluator of ``P[f = a]``: the dense table, else the oracle's ``exact_prob``
    (with its ``path_law``, if any), else ``None`` (Monte Carlo only).  Checks ``a``; the
    evaluator trusts ``measure.q == f.q``."""
    _check_symbol(f, a)
    if f.table is not None:
        hits = f.table == a
        return Evaluator("table", lambda measure, stream=None: _table_mean(hits, measure.atoms))
    oracle = f.oracle
    if oracle.exact_prob is not None:
        prob = lambda measure, stream=None: float(oracle.exact_prob(measure, a))
        path_law = None if oracle.path_law is None else lambda path: oracle.path_law(path, a)
        return Evaluator(f"exact:{oracle.name}", prob, path_law=path_law)
    return None


def prob_value(f: QaryFunction, measure: ProductMeasure, a: int) -> float:
    """``P[f = a]`` under the product measure, exact.

    The evaluator is :func:`_exact_prob`'s: a dense table, else the oracle's
    structured evaluator.  Functions with neither must go through Monte Carlo.
    """
    _check_compatible(f, measure)
    evaluator = _exact_prob(f, a)
    if evaluator is None:
        raise TableSizeError(
            f"no exact evaluator for oracle {f.oracle.name!r}; use mc_estimate"
        )
    return evaluator.prob(measure)


def _axis_view(table: np.ndarray, q: int, n: int, i: int) -> np.ndarray:
    """``table`` as ``(q**i, q, q**(n-1-i))``, coordinate ``i`` in the middle."""
    return table.reshape(q**i, q, q ** (n - 1 - i))


def _axis_mean(view: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """``E_i`` on an :func:`_axis_view`: the middle axis integrated out against
    ``atoms``, kept with length 1 so it broadcasts back over the view."""
    return np.einsum("aqb,q->ab", view, atoms)[:, None, :]


def conditional_expectation(
    f: QaryFunction, measure: ProductMeasure, coords: Iterable[int]
) -> QaryFunction:
    """``E[f | X_S = x_S]`` as a table constant in the coordinates outside ``S``."""
    _check_compatible(f, measure)
    if f.codomain != "real":
        raise InvalidFunctionError("conditional expectation needs a real codomain")
    subset = set(int(i) for i in coords)
    if not subset <= set(range(f.n)):
        raise DimensionMismatchError(f"coordinates {sorted(subset)} not within [0, {f.n})")
    tab = f.tabulate()
    table = np.array(tab.table)
    for i in range(f.n):
        if i not in subset:
            view = _axis_view(table, f.q, f.n, i)
            view[...] = _axis_mean(view, measure.atoms)
    return dataclasses.replace(tab, table=_frozen(table))


def _categorical(rng: np.random.Generator, probs: np.ndarray, shape: tuple) -> np.ndarray:
    """The draws of ``rng.choice(len(probs), size=shape, p=probs)``, bit for bit: the
    same cdf and uniforms, inverted by comparisons (``searchsorted(side="right")``
    counts the cdf entries ``<= u``) into the narrowest unsigned dtype."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    U = rng.random(shape)
    X = np.zeros(shape, dtype=np.min_scalar_type(len(probs) - 1))
    for edge in cdf[:-1]:
        X += U >= edge
    return X


class SimplexSampler:
    """Seeded stream of uniform samples from the probability simplex on ``[q]``.

    Uniformity comes from normalizing independent unit-exponential draws.
    Samplers are the only stateful objects in the package.
    """

    def __init__(self, q: int, seed: int):
        if q < 1:
            raise DimensionMismatchError("simplex dimension must be >= 1")
        self.q = q
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def sample(self) -> ProductMeasure:
        draws = self._rng.exponential(size=self.q)
        return ProductMeasure(self.q, draws / draws.sum())


@dataclasses.dataclass(frozen=True)
class MeasurePath:
    """The segment ``mu^t = t * delta_anchor + (1 - t) * base`` for t in [0, 1].

    ``base`` must put zero mass on the anchor symbol, so the path runs from
    ``base`` at t = 0 to the point mass at the anchor at t = 1 with atoms
    affine in t.
    """

    anchor: int
    base: ProductMeasure

    def __post_init__(self) -> None:
        _check_range(self.anchor, self.base.q, "anchor")
        if self.base.atoms[self.anchor] != 0.0:
            raise DegenerateMeasureError(
                f"base measure must put zero mass on the anchor symbol {self.anchor}"
            )

    @property
    def q(self) -> int:
        return self.base.q

    def measure_at(self, t: float) -> ProductMeasure:
        if not 0.0 <= t <= 1.0:
            raise DimensionMismatchError(f"path parameter {t} outside [0, 1]")
        atoms = (1.0 - t) * self.base.atoms
        atoms[self.anchor] = atoms[self.anchor] + t
        return ProductMeasure(self.base.q, atoms)

    def direction(self) -> np.ndarray:
        """The tangent vector ``delta_anchor - base`` (sums to zero)."""
        d = -self.base.atoms.copy()
        d[self.anchor] += 1.0
        return d

    @classmethod
    def from_measure(cls, measure: ProductMeasure, anchor: int) -> tuple["MeasurePath", float]:
        """Decompose ``measure`` as the path point at ``t = measure(anchor)``."""
        t = float(measure.atoms[anchor])
        if t >= 1.0:
            raise DegenerateMeasureError(
                "measure is the anchor point mass; base direction undefined"
            )
        return cls(anchor=anchor, base=measure.condition_off(anchor)), t
