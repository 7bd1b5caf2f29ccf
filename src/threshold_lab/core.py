"""Alphabets, tabulated/oracle functions, product measures, and exact expectations.

Conventions used throughout the package:

* The alphabet is ``[q] = {0, 1, ..., q-1}``; coordinates and symbols are
  0-based.
* Tabulated functions are flat arrays of length ``q**n`` indexed big-endian
  in the first coordinate: ``index(x) = sum_j x[j] * q**(n-1-j)``, so
  coordinate 0 is the most significant digit.
* All logarithms are natural unless stated otherwise.
"""

from __future__ import annotations

import dataclasses
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


def table_size(q: int, n: int) -> int:
    """Return ``q**n`` after checking it against :data:`MAX_TABLE_SIZE`."""
    size = q**n
    if size > MAX_TABLE_SIZE:
        raise TableSizeError(
            f"table of size {q}**{n} = {size} exceeds the exact-computation "
            f"cap {MAX_TABLE_SIZE}"
        )
    return size


def index_of(x: Sequence[int], q: int) -> int:
    """Table index of the point ``x``, coordinate 0 most significant."""
    idx = 0
    for v in x:
        idx = idx * q + int(v)
    return idx


def points_of(indices: np.ndarray, q: int, n: int) -> np.ndarray:
    """Decode table indices into an ``(N, n)`` array of coordinates."""
    idx = np.asarray(indices, dtype=np.int64).copy()
    out = np.empty((idx.shape[0], n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % q
        idx //= q
    return out


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
        atoms = np.asarray(self.atoms, dtype=float).copy()
        if self.q < 1:
            raise DimensionMismatchError("alphabet size must be >= 1")
        if atoms.shape != (self.q,):
            raise DimensionMismatchError(
                f"expected {self.q} atoms, got shape {atoms.shape}"
            )
        if np.any(atoms < 0):
            raise DegenerateMeasureError("atoms must be nonnegative")
        if abs(atoms.sum() - 1.0) > ATOM_SUM_TOL:
            raise DegenerateMeasureError(
                f"atoms must sum to 1 within {ATOM_SUM_TOL}, got {atoms.sum()!r}"
            )
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def uniform(cls, q: int) -> "ProductMeasure":
        return cls(q, np.full(q, 1.0 / q))

    @classmethod
    def point_mass(cls, q: int, a: int) -> "ProductMeasure":
        atoms = np.zeros(q)
        atoms[a] = 1.0
        return cls(q, atoms)

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


def _expand_digits(start: np.ndarray, per_symbol: np.ndarray, n: int, op) -> np.ndarray:
    """Fold ``op`` over the digits of every point of ``[q]**n``, in index order.

    Entry ``index(x)`` is ``op(...op(op(start, s[x_0]), s[x_1])..., s[x_{n-1}])``
    with ``s = per_symbol``; ``op(v, s, out=...)`` writes into ``out``.
    Appending digit k to every index so far fills the stride-q slice ``k::q``,
    so no index is ever decoded.
    """
    q = len(per_symbol)
    v = start
    for _ in range(n):
        nxt = np.empty(v.size * q, dtype=v.dtype)
        for k in range(q):
            op(v, per_symbol[k], out=nxt[k::q])
        v = nxt
    return v


def _relabel_index(perm: np.ndarray, n: int) -> np.ndarray:
    """``index(perm(x))`` at every index of ``x``, ``perm`` acting on each symbol."""
    q = len(perm)

    def shift_in(v, s, out):
        np.multiply(v, q, out=out)
        out += s

    return _expand_digits(np.zeros(1, dtype=np.int64), perm, n, shift_in)


def product_weights(measure: ProductMeasure, n: int) -> np.ndarray:
    """Weights ``w(x) = prod_i mu(x_i)`` over all of ``[q]**n`` in index order."""
    table_size(measure.q, n)
    return _expand_digits(np.ones(1), measure.atoms, n, np.multiply)


@dataclasses.dataclass(frozen=True)
class Oracle:
    """Named pure evaluator backing a function too large to tabulate.

    ``batch`` maps an ``(N, n)`` integer array to ``N`` values and must not
    modify its points: :meth:`QaryFunction.tabulate` passes a read-only view
    of a buffer it reuses, so writing into it raises ``ValueError``.  The
    points may come in any integer dtype: Monte Carlo passes the narrowest
    unsigned dtype that holds ``q - 1`` (``uint8`` up to q = 256) and
    :meth:`QaryFunction.tabulate` passes int64, so ``batch`` must not assume
    int64 (``x.sum(axis=1) - y.sum(axis=1)`` on ``uint8`` rows, for one, wraps
    around zero).  An optional ``exact_prob(measure, a)`` computes
    ``P[f = a]`` exactly from structure (e.g. a count dynamic program),
    enabling exact threshold scans at sizes far beyond the table cap.
    """

    name: str
    params: dict
    batch: Callable[[np.ndarray], np.ndarray]
    exact_prob: Callable[[ProductMeasure, int], float] | None = None


@dataclasses.dataclass(frozen=True, eq=False)
class QaryFunction:
    """A total function ``[q]**n -> V`` with ``V = [out_q]`` or the reals.

    Exactly one of ``table`` (dense, index order as in :func:`index_of`) and
    ``oracle`` is set.  Instances are immutable and safe to share across
    threads.
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
        if self.codomain == "alphabet" and (self.out_q is None or self.out_q < 1):
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
            if self.codomain == "alphabet":
                table = table.astype(np.int64)
                if table.size and (table.min() < 0 or table.max() >= self.out_q):
                    raise InvalidFunctionError(
                        f"alphabet values must lie in [0, {self.out_q})"
                    )
            else:
                table = table.astype(float)
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
        if codomain == "alphabet" and out_q is None:
            out_q = q
        return cls(q=q, n=n, codomain=codomain, out_q=out_q, table=np.asarray(list(values)))

    @classmethod
    def from_oracle(
        cls,
        q: int,
        n: int,
        oracle: Oracle,
        codomain: str = "alphabet",
        out_q: int | None = None,
    ) -> "QaryFunction":
        if codomain == "alphabet" and out_q is None:
            out_q = q
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
            idx = np.zeros(points.shape[0], dtype=np.int64)
            for j in range(self.n):
                # int64 + uint64 would promote to float64
                idx = idx * self.q + points[:, j].astype(np.int64, copy=False)
            return self.table[idx]
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
        buf = np.empty((block, n), dtype=np.int64)
        buf[:, high:] = points_of(np.arange(block), q, low)
        points = buf.view()
        points.setflags(write=False)
        for b, digits in enumerate(points_of(np.arange(q**high), q, high)):
            buf[:, :high] = digits
            values[b * block : (b + 1) * block] = self.batch(points)
        return QaryFunction(
            q=self.q,
            n=self.n,
            codomain=self.codomain,
            out_q=self.out_q,
            table=values,
        )

    def as_real(self) -> "QaryFunction":
        """Reinterpret alphabet values as real numbers."""
        if self.codomain == "real":
            return self
        tab = self.tabulate()
        return QaryFunction(
            q=self.q, n=self.n, codomain="real", out_q=None, table=tab.table.astype(float)
        )

    def indicator(self, a: int) -> "QaryFunction":
        """The real-valued indicator ``1[f = a]`` as a table."""
        if self.codomain != "alphabet":
            raise InvalidFunctionError("indicator needs an alphabet codomain")
        tab = self.tabulate()
        return QaryFunction(
            q=self.q,
            n=self.n,
            codomain="real",
            out_q=None,
            table=(tab.table == a).astype(float),
        )

    def is_binary(self) -> bool:
        """True when the (tabulated) values all lie in {0, 1}."""
        if self.table is None:
            return False
        vals = np.unique(self.table)
        return bool(np.isin(vals, (0, 1)).all())


def permute_input_symbols(f: QaryFunction, perm: Sequence[int]) -> QaryFunction:
    """The table of ``x -> f(perm(x))`` where ``perm`` acts on input symbols."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(f.q)):
        raise DimensionMismatchError(f"perm must be a permutation of [{f.q})")
    tab = f.tabulate()
    permuted = tab.table[_relabel_index(perm, f.n)]
    return QaryFunction(
        q=f.q, n=f.n, codomain=f.codomain, out_q=f.out_q, table=permuted
    )


def _check_compatible(f: QaryFunction, measure: ProductMeasure) -> None:
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
    return float(product_weights(measure, f.n) @ f.table)


def prob_value(f: QaryFunction, measure: ProductMeasure, a: int) -> float:
    """``P[f = a]`` under the product measure, exact.

    Resolution order: dense table, then the oracle's structured exact
    evaluator.  Functions with neither must go through Monte Carlo.
    """
    _check_compatible(f, measure)
    if f.codomain != "alphabet":
        raise InvalidFunctionError("prob_value needs an alphabet codomain")
    if not 0 <= a < f.out_q:
        raise DimensionMismatchError(f"symbol {a} outside [0, {f.out_q})")
    if f.table is not None:
        return float(product_weights(measure, f.n) @ (f.table == a))
    if f.oracle.exact_prob is not None:
        return float(f.oracle.exact_prob(measure, a))
    raise TableSizeError(
        f"no exact evaluator for oracle {f.oracle.name!r}; use mc_estimate"
    )


def average_over_axis(table: np.ndarray, atoms: np.ndarray, i: int, q: int, n: int) -> np.ndarray:
    """Integrate coordinate ``i`` out against ``atoms``, keeping the table shape."""
    tensor = table.reshape((q,) * n)
    shape = [1] * n
    shape[i] = q
    reduced = (tensor * atoms.reshape(shape)).sum(axis=i, keepdims=True)
    return np.ravel(np.broadcast_to(reduced, (q,) * n))


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
    table = tab.table
    for i in range(f.n):
        if i not in subset:
            table = average_over_axis(table, measure.atoms, i, f.q, f.n)
    return QaryFunction(q=f.q, n=f.n, codomain="real", out_q=None, table=table)


class SimplexSampler:
    """Seeded stream of uniform samples from the probability simplex on ``[q]``.

    Uniformity comes from normalizing independent unit-exponential draws.
    Samplers are the only stateful objects in the package: confine one to a
    thread, or derive independent children with :meth:`split`.
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

    def split(self, k: int) -> list["SimplexSampler"]:
        """Derive ``k`` independent samplers deterministically from the seed."""
        children = []
        for i in range(k):
            child_seed = int(np.random.SeedSequence((self.seed, i)).generate_state(1)[0])
            children.append(SimplexSampler(self.q, child_seed))
        return children


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
        if not 0 <= self.anchor < self.base.q:
            raise DimensionMismatchError(f"anchor {self.anchor} outside [0, {self.base.q})")
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
