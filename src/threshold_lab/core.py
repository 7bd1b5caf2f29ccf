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
import functools
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

#: Exact computation cap: dense tables (and decomposition storage) must fit
#: in ``2**24`` entries.  Larger instances must go through oracle evaluators
#: or Monte Carlo.
MAX_TABLE_SIZE = 1 << 24

#: An oracle with no exact law and at most this many points is tabulated to
#: resolve ``P[f = a]`` exactly (:func:`_exact_prob`): up to ``2**16`` points the
#: built-in families tabulate in at most 15-22 ms on a 2-core x86-64 host, the
#: cost of about six nested Monte Carlo measures at 10,000 draws each.
SMALL_TABLE_SIZE = 1 << 16

ATOM_SUM_TOL = 1e-12

#: Coordinates held by the point buffer that :meth:`QaryFunction.tabulate`
#: hands to an oracle's ``batch``: blocks of a megabyte, with their temporaries.
_TABULATE_COORDS = 1_000_000

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


def _check_seed(seed) -> None:
    """Refuse a negative seed, or a seed sequence holding one, before numpy's
    seeding would raise its own ``ValueError`` for it."""
    for entry in seed if isinstance(seed, (list, tuple)) else (seed,):
        if isinstance(entry, (int, np.integer)) and entry < 0:
            raise DimensionMismatchError(f"seed must be >= 0, got {seed}")


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
    bits of the elements of an iterable, each refused if negative."""
    if isinstance(subset, (int, np.integer)):
        return subset
    mask = 0
    for j in map(int, subset):
        if j < 0:
            raise DimensionMismatchError(f"subset element {j} is negative")
        mask |= 1 << j
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
        if q < 1:
            raise DimensionMismatchError("alphabet size must be >= 1")
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


def _alphabet_dtype(out_q: int) -> np.dtype:
    """The dtype of an alphabet table: the narrowest unsigned one that holds
    ``out_q - 1`` (``uint8`` up to 256 symbols), ``uint64`` at most."""
    return np.min_scalar_type(min(out_q, 1 << 64) - 1)


def _check_alphabet(values: np.ndarray, out_q: int) -> None:
    """Refuse ``values`` unless each is a whole number in ``[0, out_q)``, read in
    their own dtype, so that the cast to :func:`_alphabet_dtype` after it cannot
    wrap (257 stored as 1, or -1 as 255).  A NaN fails the range test."""
    if values.size and not (values.min() >= 0 and values.max() < out_q):
        raise InvalidFunctionError(f"alphabet values must lie in [0, {out_q})")
    if values.dtype.kind == "f" and not np.array_equal(values, np.trunc(values)):
        raise InvalidFunctionError("alphabet values must be integers")


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, which a derivation has just built, made read-only, so that
    :class:`QaryFunction` adopts it instead of copying it."""
    table.setflags(write=False)
    return table


def _relabel_symbols(table: np.ndarray, perm: np.ndarray, q: int, n: int) -> np.ndarray:
    """The table of ``x -> f(perm(x))``, ``perm`` acting on each input symbol, in
    the table's dtype.

    One ``np.take`` of ``perm`` along each axis of the ``(q,) * n`` tensor in
    turn, so every pass copies runs of ``q**(n-1-k)`` entries and no index table
    is built; each pass writes a fresh flat array, and the last one is returned.
    ``mode="clip"`` never clips a permutation of ``[q)`` and spares ``take`` the
    buffered copy it makes of ``out`` under the default ``"raise"``.
    """
    shape = (q,) * n
    for k in range(n):
        relabeled = np.empty(table.size, dtype=table.dtype)
        np.take(table.reshape(shape), perm, axis=k, out=relabeled.reshape(shape), mode="clip")
        table = relabeled
    return table


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
    ``uint8`` rows, for one, wraps around zero) nor C-contiguous rows.  Its
    values may come in any numeric dtype: :meth:`QaryFunction.tabulate` checks
    each block of them in that dtype before it stores them in the table's
    narrower one.

    An optional ``law`` is the family's exact law from :mod:`.laws`:
    ``law(measure, a)`` is ``P[f = a]``, at sizes far beyond the table cap;
    ``law.bounds(atoms, a)`` encloses it at each row of an ``(M, q)`` atoms array
    as arrays ``(lo, hi)``, which sweeps read first; and ``law.along(path)``, where
    the law has one, is the curve ``t -> P[f = path.anchor]``, which exact curves
    read once per path.  ``exact_prob`` is the law unless given apart from it: an
    oracle with no law gives its own, and ``dataclasses.replace`` may swap it
    alone, keeping the law.
    """

    name: str
    params: dict
    batch: Callable[[np.ndarray], np.ndarray]
    exact_prob: Callable[[ProductMeasure, int], float] | None = None
    law: Callable[[ProductMeasure, int], float] | None = None

    def __post_init__(self) -> None:
        if self.exact_prob is None:
            object.__setattr__(self, "exact_prob", self.law)


@dataclasses.dataclass(frozen=True, eq=False)
class QaryFunction:
    """A total function ``[q]**n -> V`` with ``V = [out_q]`` or the reals.

    Exactly one of ``table`` (dense, index order as in :func:`index_of`) and
    ``oracle`` is set.  ``out_q`` is the size of an alphabet codomain (``q``
    when not given) and ``None`` for a real one.  Instances are immutable and
    safe to share across threads.  ``__post_init__`` casts every table into a
    read-only array of its own: float64 for a real table, and for an alphabet
    one the narrowest unsigned dtype that holds ``out_q - 1``
    (:func:`_alphabet_dtype`: ``uint8`` up to 256 symbols, then ``uint16``),
    which :meth:`batch` on a table returns too, so callers widen the values
    before subtracting them.  It adopts a read-only array of that dtype that
    owns its memory and copies anything else, so a derived function is its
    source through ``dataclasses.replace`` with a fresh table made
    :func:`_frozen`.
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
                _check_alphabet(table, self.out_q)
                table = table.astype(_alphabet_dtype(self.out_q), copy=copy)
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
        other input is cast to int64 first.  A table answers in its own dtype.
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
        """Materialize a dense table (subject to the size cap), each block of the
        oracle's values range-checked by :func:`_check_alphabet` before it is
        stored narrow.

        The oracle sees blocks of ``q**low`` points that share their high digits,
        one contiguous column per coordinate.  The low columns are the same in
        every block and are written once, in long contiguous runs and with no
        index temporary: the first period of column k (``q`` runs of
        ``q**(n-1-k)`` equal digits) by one broadcast store, then the rest of the
        column by copies of its filled part, doubling each time.
        """
        if self.table is not None:
            return self
        q, n = self.q, self.n
        size = table_size(q, n)
        alphabet = self.codomain == "alphabet"
        values = np.empty(size, dtype=_alphabet_dtype(self.out_q) if alphabet else float)
        # blocks of q**low points share their high digits; the point buffer
        # holds at most _TABULATE_COORDS coordinates, or one point if n is larger
        rows = max(1, _TABULATE_COORDS // n)
        low = 0
        while low < n and q ** (low + 1) <= rows:
            low += 1
        block = q**low
        high = n - low
        # one contiguous column of one-byte digits per coordinate (up to q = 256)
        columns = np.empty((n, block), dtype=np.min_scalar_type(q - 1))
        for k in range(high, n):
            column, run = columns[k], q ** (n - 1 - k)
            period = run * q
            column[:period].reshape(q, run)[...] = np.arange(q, dtype=columns.dtype)[:, None]
            while period < block:
                step = min(period, block - period)
                column[period : period + step] = column[:step]
                period += step
        points = columns.T
        points.setflags(write=False)
        for b, digits in enumerate(itertools.product(range(q), repeat=high)):
            columns[:high] = np.array(digits, dtype=columns.dtype)[:, None]
            batch = np.asarray(self.batch(points))
            if alphabet:  # before the store narrows it
                _check_alphabet(batch, self.out_q)
            values[b * block : (b + 1) * block] = batch
        return dataclasses.replace(self, table=_frozen(values), oracle=None)

    @functools.cached_property
    def _kept_table(self) -> "QaryFunction":
        """:meth:`tabulate`, made on the first read and kept on this function:
        :func:`_exact_prob` reads it for an oracle of at most
        :data:`SMALL_TABLE_SIZE` points and no law, so such a function is
        tabulated once however many exact evaluators are built on it."""
        return self.tabulate()

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
    return dataclasses.replace(tab, table=_frozen(_relabel_symbols(tab.table, perm, f.q, f.n)))


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
    """The package's product-measure mean of a real (or bool) table,
    ``sum_x table[x] prod_i atoms[x_i]`` over ``[q]**k``, any k >= 0, one
    coordinate at a time: coordinate 0 is integrated out of ``table`` itself by
    ``_axis_mean``'s contraction (a bool table is read as is, never copied to
    floats), then each next one out of the float table left, so no weight table
    is built and every sum has ``q`` terms.  A one-entry table is its own mean.
    ``P[f = a]`` of a table is read from its :class:`_Histogram` instead."""
    q = len(atoms)
    v = table
    if v.size > 1:
        v = np.einsum("qb,q->b", v.reshape(q, -1), atoms)
    while v.size > 1:
        v = atoms @ v.reshape(q, -1)
    return float(v[0])


def _peak_multinomial(m: int, q: int) -> int:
    """The most points of ``[q]**m`` that share one composition: the multinomial
    coefficient of ``m`` split into ``q`` parts as evenly as they go."""
    base, extra = divmod(m, q)
    return math.factorial(m) // (
        math.factorial(base + 1) ** extra * math.factorial(base) ** (q - extra)
    )


def _binomials(rows: int, columns: int) -> np.ndarray:
    """``C(x, j)`` at ``[x, j]`` for ``x < rows`` and ``j < columns``, by Pascal's rule
    down each column: ``C(x, j) = sum_{y < x} C(y, j - 1)``."""
    binom = np.zeros((rows, columns), dtype=np.int64)
    binom[:, 0] = 1
    for j in range(1, columns):
        np.cumsum(binom[:-1, j - 1], out=binom[1:, j])
    return binom


def _unrank(ranks: np.ndarray, m: int, q: int, binom: np.ndarray) -> np.ndarray:
    """The nondecreasing ``m``-tuples over ``[q]`` of colex rank ``ranks``, one per row.

    The tuple ``s`` is the combination ``t_j = s_j + j`` of rank
    ``sum_j C(t_j, j + 1)``, so from the last place down ``t_j`` is the largest t
    with ``C(t, j + 1)`` at most the rank left.
    """
    rest = np.array(ranks, dtype=np.int64)
    symbols = np.empty((len(rest), m), dtype=np.min_scalar_type(q - 1))
    for j in range(m - 1, -1, -1):
        t = np.searchsorted(binom[:, j + 1], rest, side="right") - 1
        rest -= binom[t, j + 1]
        symbols[:, j] = t - j
    return symbols


class _Histogram:
    """``P[f = a] = sum_c h(c) prod_b mu_b**c_b`` from the bool table ``hits = (f == a)``
    over ``[q]**n``: ``h(c)`` counts the hits whose symbol counts are ``c``, so after
    one build each measure costs one term per composition of ``n`` into ``q`` parts
    (at most ``C(n + q - 1, q - 1)``: 22 at (2, 21), 78 at (3, 11)), not a pass over
    the table.

    The counts are exact integers, built as :func:`_table_mean` integrates, one
    coordinate at a time, but carrying the composition of the coordinates done so
    far: after k of them, row ``r`` holds, for each setting of the other ``n - k``,
    the hits whose first k symbols have the composition of colex rank ``r``, the
    nondecreasing k-tuple ``s`` of rank ``sum_j C(s_j + j, j + 1)``.  Each level is
    in the narrowest unsigned dtype that holds its largest multinomial, and the
    first is ``hits`` itself.  A composition is kept as its ``n`` sorted symbols,
    never as ``q`` counts, and only where ``h > 0``: ``symbols[i]`` has ``counts[i]``
    hits.

    Called on an ``(M, q)`` atoms block, it returns ``P[f = a]`` at each row from
    ``min(n, q)`` factors per composition: ``mu_b**c_b`` for each symbol b when
    ``q <= n``, read from a table of atom powers in which ``pow(0, 0) = 1`` (so a
    zero atom drops out where its count is 0 and zeroes the term where it is not),
    else each sorted symbol's atom.  Rows go in blocks whose float work arrays hold
    no more entries than the table, and each row's terms are summed alone, so a
    row's value does not depend on the rows around it.
    """

    def __init__(self, hits: np.ndarray, q: int, n: int):
        binom = _binomials(q + n, n + 1)
        counts = hits.reshape(q, -1)  # the colex rank of a one-tuple is its symbol
        for k in range(1, n):
            counts = self._next_level(counts, k, q, binom)
        ranks = np.flatnonzero(counts[:, 0])
        self.counts = counts[ranks, 0]
        self.symbols = _unrank(ranks, n, q, binom)
        if q <= n:
            self._exponents = np.arange(n + 1)
            self._factors = [b * (n + 1) + (self.symbols == b).sum(axis=1) for b in range(q)]
        else:
            self._exponents = None
            self._factors = list(self.symbols.T.astype(np.intp))
        self._weights = self.counts.astype(float)
        self._rows = max(1, q**n // (len(self.counts) + q * (n + 1)))

    @staticmethod
    def _next_level(counts: np.ndarray, k: int, q: int, binom: np.ndarray) -> np.ndarray:
        """Level ``k + 1`` from level ``k``: a row's hits with symbol b at coordinate k
        move to ``c + e_b``, whose tuple has b inserted after the ``p`` symbols of c
        that are ``<= b``; its rank is the terms of those p symbols, b's term at
        place p, and the terms of the others one place later.  For one b, distinct
        c give distinct ``c + e_b``, so each symbol's slab adds in with one
        fancy-indexed sum."""
        symbols = _unrank(np.arange(len(counts)), k, q, binom)
        j = np.arange(k)
        before = np.zeros((len(symbols), k + 1), dtype=np.int64)
        np.cumsum(binom[symbols + j, j + 1], axis=1, out=before[:, 1:])
        after = np.zeros_like(before)
        after[:, :k] = np.cumsum(binom[symbols + j + 1, j + 2][:, ::-1], axis=1)[:, ::-1]
        before, after = before.ravel(), after.ravel()
        row = np.arange(len(symbols)) * (k + 1)
        view = counts.reshape(len(counts), q, -1)
        dtype = np.min_scalar_type(_peak_multinomial(k + 1, q))
        level = np.zeros((binom[q + k, k + 1], view.shape[2]), dtype=dtype)
        for b in range(q):
            p = (symbols <= b).sum(axis=1)
            level[before[row + p] + binom[b + p, p + 1] + after[row + p]] += view[:, b]
        return level

    def __call__(self, atoms: np.ndarray) -> np.ndarray:
        values = np.empty(len(atoms))
        for start in range(0, len(atoms), self._rows):
            block = atoms[start : start + self._rows]
            powers = block
            if self._exponents is not None:
                powers = (block[:, :, None] ** self._exponents).reshape(len(block), -1)
            terms = powers[:, self._factors[0]] * self._weights
            for factor in self._factors[1:]:
                terms *= powers[:, factor]
            # pairwise, by halving the columns: elementwise adds only, so the
            # order of a row's sum does not depend on the block's shape
            width = terms.shape[1]
            while width > 1:
                half = width // 2
                terms[:, :half] += terms[:, width - half : width]
                width -= half
            values[start : start + len(block)] = terms[:, 0] if width else 0.0
        return values


@dataclasses.dataclass(frozen=True)
class Evaluator:
    """``P[f = a]`` at a measure, ``prob(measure, stream)``, by a named method:
    ``histogram`` (the :class:`_Histogram` of the dense table, or of the table
    :func:`_exact_prob` makes of an oracle with no law and at most
    :data:`SMALL_TABLE_SIZE` points), ``exact:<oracle name>`` (the oracle's
    ``exact_prob``), both ignoring ``stream``, or ``mc`` (``samples`` draws of the
    stream ``[seed, stream]``).  :meth:`along` reads the same values along a path
    anchored at ``a``, through ``curve(path)`` where the method has one (the
    oracle law's ``along``).  ``bounds(atoms)``, where the method has one (the
    oracle law's ``bounds``; the histogram's own value as both ends; never
    ``mc``), encloses ``P[f = a]`` at every row of an ``(M, q)`` atoms array at
    once, as arrays ``(lo, hi)``."""

    name: str
    a: int
    prob: Callable[..., float] = dataclasses.field(repr=False)
    samples: int | None = None
    seed: int | None = None
    curve: Callable[[MeasurePath], Callable[[float], float]] | None = dataclasses.field(
        default=None, repr=False
    )
    bounds: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = dataclasses.field(
        default=None, repr=False
    )

    def along(self, path: MeasurePath) -> Callable[..., float]:
        """``G(t, stream)``: ``P[f = a]`` at ``path.measure_at(t)``, from ``curve`` if
        there is one (it ignores ``stream``), else from ``prob``.  Refuses a path
        anchored at another symbol than ``a``."""
        if path.anchor != self.a:
            raise DimensionMismatchError(
                f"path anchored at {path.anchor}, but the evaluator reads P[f = {self.a}]"
            )
        if self.curve is not None:
            G = self.curve(path)
            return lambda t, stream=None: G(t)
        return lambda t, stream=None: self.prob(path.measure_at(t), stream)


def _exact_prob(f: QaryFunction, a: int) -> Evaluator | None:
    """The exact evaluator of ``P[f = a]``, resolved in this order: the dense table,
    read through the :class:`_Histogram` of ``f == a`` built here once; else the
    oracle's ``exact_prob``, with the ``bounds`` and ``along`` of its ``law`` if it
    has one; else, for an oracle of at most :data:`SMALL_TABLE_SIZE` points, its
    table, tabulated on the first call and kept on ``f``
    (:attr:`QaryFunction._kept_table`), and read as the first case reads a table;
    else ``None`` (Monte Carlo only).  The histogram's ``bounds`` are its exact
    value at each row, so a sweep decides every measure of a table in one call.
    Checks ``a`` before any tabulation; the evaluator trusts ``measure.q == f.q``."""
    _check_symbol(f, a)
    if f.table is None and f.oracle.exact_prob is None and f.q**f.n <= SMALL_TABLE_SIZE:
        f = f._kept_table
    if f.table is not None:
        law = _Histogram(f.table == a, f.q, f.n)
        prob = lambda measure, stream=None: float(law(measure.atoms[None])[0])
        return Evaluator("histogram", a, prob, bounds=lambda atoms: (law(atoms),) * 2)
    oracle, law = f.oracle, f.oracle.law
    if oracle.exact_prob is not None:
        prob = lambda measure, stream=None: float(oracle.exact_prob(measure, a))
        bounds = None if law is None else lambda atoms: law.bounds(atoms, a)
        curve = getattr(law, "along", None)
        return Evaluator(f"exact:{oracle.name}", a, prob, curve=curve, bounds=bounds)
    return None


def prob_value(f: QaryFunction, measure: ProductMeasure, a: int) -> float:
    """``P[f = a]`` under the product measure, exact.

    The evaluator is :func:`_exact_prob`'s: the composition histogram of a dense
    table, else the oracle's exact law, else the histogram of the table of an
    oracle of at most :data:`SMALL_TABLE_SIZE` points, tabulated on the first
    call and kept on ``f``.  A larger oracle without a law must go through Monte
    Carlo.  Each call builds the evaluator anew; a caller reading many measures
    builds it once with :func:`_exact_prob`.
    """
    _check_compatible(f, measure)
    evaluator = _exact_prob(f, a)
    if evaluator is None:
        raise TableSizeError(
            f"no exact evaluator for oracle {f.oracle.name!r}: it has no exact law and "
            f"its {f.q}**{f.n} points exceed the tabulation bound {SMALL_TABLE_SIZE}; "
            "use mc_estimate"
        )
    return evaluator.prob(measure)


def _axis_view(table: np.ndarray, q: int, n: int, i: int) -> np.ndarray:
    """``table`` as ``(q**i, q, q**(n-1-i))``, coordinate ``i`` in the middle.

    NumPy runs one inner loop per contiguous run of the last axis, here
    ``q**(n-1-i)`` entries: long for the first coordinates and as short as one
    entry for the last.  A pass over every coordinate that must stay fast reads
    the last few on a copy of the table with them moved in front, as
    :func:`.checks._cover_violation` does.
    """
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
    :meth:`draw` takes ``k`` measures at once as a ``(k, q)`` atoms array,
    bitwise equal to ``k`` calls of :meth:`sample` and leaving the stream where
    they leave it; :meth:`sample` is ``draw(1)`` made a :class:`ProductMeasure`.
    The seed must be a nonnegative integer, as numpy's seeding takes.
    Samplers are the only stateful objects in the package.
    """

    def __init__(self, q: int, seed: int):
        if q < 1:
            raise DimensionMismatchError("simplex dimension must be >= 1")
        self.q = q
        self.seed = int(seed)
        _check_seed(self.seed)
        self._rng = np.random.default_rng(self.seed)

    def draw(self, k: int) -> np.ndarray:
        """The atoms of the next ``k`` measures, one per row, each row checked by
        :class:`ProductMeasure`'s rules: nonnegative, finite, summing to 1 within
        :data:`ATOM_SUM_TOL`.  numpy fills the rows of one ``(k, q)`` exponential
        block in the order of ``k`` draws of ``q``, and each row's sum is the
        sum of ``q`` draws, so the atoms are those ``k`` samples' bit for bit."""
        draws = self._rng.exponential(size=(k, self.q))
        atoms = draws / draws.sum(axis=1, keepdims=True)
        if (atoms < 0).any():
            raise DegenerateMeasureError("atoms must be nonnegative")
        totals = atoms.sum(axis=1)
        if not np.isfinite(totals).all():
            raise DegenerateMeasureError("atoms must be finite")
        if (np.abs(totals - 1.0) > ATOM_SUM_TOL).any():
            raise DegenerateMeasureError(f"atoms must sum to 1 within {ATOM_SUM_TOL}")
        return atoms

    def sample(self) -> ProductMeasure:
        return ProductMeasure(self.q, self.draw(1)[0])


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
        _check_range(anchor, measure.q, "anchor")
        t = float(measure.atoms[anchor])
        if t >= 1.0:
            raise DegenerateMeasureError(
                "measure is the anchor point mass; base direction undefined"
            )
        return cls(anchor=anchor, base=measure.condition_off(anchor)), t
