"""Certified structural checks: anchored partial orders, monotonicity, symmetry, fairness.

Every failing check returns a witness that reproduces the violation when
re-evaluated; passing checks return ``witness=None``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidFunctionError,
    QaryFunction,
    _axis_view,
    _relabel_symbols,
    _swap_and_cycle,
    index_of,
    points_of,
)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: dict | None = None
    group_transitive: bool | None = None

    def __bool__(self) -> bool:
        return self.passed

    def as_dict(self) -> dict:
        """``passed`` and ``witness``, and ``group_transitive`` where the check sets it."""
        doc = {"passed": self.passed, "witness": self.witness}
        if self.group_transitive is not None:
            doc["group_transitive"] = self.group_transitive
        return doc


@dataclasses.dataclass(frozen=True)
class SymmetryGroup:
    """A permutation group on coordinates, given by generators.

    Invariance under the generators implies invariance under the whole
    generated group, so checks only ever touch the generators.
    """

    n: int
    generators: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatchError(f"a group acts on n >= 1 coordinates, got n = {self.n}")
        gens = []
        for g in self.generators:
            g = np.asarray(g, dtype=np.int64)
            if sorted(g.tolist()) != list(range(self.n)):
                raise DimensionMismatchError(f"{g.tolist()} is not a permutation of [{self.n})")
            g.setflags(write=False)
            gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

    def is_transitive(self) -> bool:
        """Whether the orbit of coordinate 0 under the generated group is all of [n)."""
        # a generator's inverse is one of its powers, so the generators alone close the orbit
        seen = {0}
        frontier = [0]
        while frontier:
            j = frontier.pop()
            for g in self.generators:
                k = int(g[j])
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
        return len(seen) == self.n

    @classmethod
    def full_symmetric(cls, n: int) -> "SymmetryGroup":
        """Adjacent transposition plus the n-cycle, generating all of S(n)."""
        return cls(n, tuple(_swap_and_cycle(n)))

    @classmethod
    def cyclic(cls, n: int) -> "SymmetryGroup":
        """The cycle ``j -> j + 1 mod n``, the last of :func:`_swap_and_cycle`'s
        generators (at n = 2 the cycle is the swap)."""
        return cls(n, (_swap_and_cycle(n)[-1],))


def leq_a(x: Sequence[int], y: Sequence[int], a: int) -> bool:
    """The anchored partial order: y arises from x by changing coordinates to ``a``."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape:
        raise DimensionMismatchError("points must have equal length")
    changed = x != y
    return bool(np.all(y[changed] == a))


#: :func:`_cover_violation` reads every coordinate in runs of at least this many
#: entries: in index order coordinate i runs ``q**(n-1-i)`` entries, so the last L
#: coordinates, for the least L with ``q**L >= _LONG_RUN``, are read on a rotated
#: copy instead, where their runs are ``q**(n-L)`` entries or more.
_LONG_RUN = 64

#: Entries per block whose output symbols :func:`check_fair` maps and compares:
#: ``np.take`` widens a block's symbols to a 64 KiB intp index.
_MAP_BLOCK = 1 << 13

#: Entries per block of :func:`_rotated`'s transpose: 32 KiB of one-byte rows,
#: read once while they are in cache.
_ROTATE_BLOCK = 1 << 15


def _rotated(table: np.ndarray, width: int) -> np.ndarray:
    """``table`` as rows of ``width`` entries, transposed into a fresh flat copy:
    the table of the same function with its last ``log_q(width)`` coordinates
    moved in front of the others, in order.  The transpose goes in blocks of
    columns, so each block of rows is read while it is in cache: on a 2-core
    x86-64 host a 2**21-entry bool mask took 2.4 ms whole and 0.8 ms in blocks."""
    rows = table.reshape(-1, width)
    out = np.empty((width, len(rows)), dtype=table.dtype)
    step = max(1, _ROTATE_BLOCK // width)
    for lo in range(0, len(rows), step):
        out[:, lo : lo + step] = rows[lo : lo + step].T
    return out.reshape(-1)


def _first_flagged(source: np.ndarray, q: int, n: int, a: int, coords, spare: np.ndarray):
    """The first of ``coords`` with a cover ``x -> y = (x with x_i := a)`` from a
    source (``source[x]``) to a sink (not ``source[y]``), or None; ``source`` is a
    mask on n coordinates in any order of them, ``coords`` their positions in it.

    At digit ``a`` the cover is x itself, so a cover is flagged exactly where the
    OR of the q slabs of :func:`_axis_view` differs from the slab at ``a``: q - 1
    ORs into the preallocated bool buffer ``spare`` of ``q**(n-1)`` entries, one
    XOR with the slab at ``a`` and one ``any``; the returned coordinate's flags
    are left in ``spare``, as ``(q**i, q**(n-1-i))``.  The slabs are ORed one by one,
    not by ``np.logical_or.reduce`` over the middle axis, which made
    ``check_monotone`` 23-55% faster at q >= 6 but 30-60% slower at q <= 4 on
    plurality tables (2-core x86-64 host).
    """
    for i in coords:
        view = _axis_view(source, q, n, i)
        hit = spare.reshape(len(view), -1)
        np.bitwise_or(view[:, 0], view[:, 1], out=hit)
        for b in range(2, q):
            np.bitwise_or(hit, view[:, b], out=hit)
        np.bitwise_xor(hit, view[:, a], out=hit)
        if hit.any():
            return i
    return None


def _cover_violation(
    table: np.ndarray, q: int, n: int, anchors: Sequence[int], binary: bool
) -> dict | None:
    """First violation over single-coordinate covers ``x -> (x with x_i := a)``,
    for each anchor ``a`` in turn.

    Covers generate the anchored order by transitivity, so they certify full
    monotonicity.  ``binary`` switches the predicate from value preservation
    (``f(x) = a`` forces ``f(y) = a``) to order preservation
    (``f(x) <= f(y)`` for {0,1} values, int or real); the witness holds the
    values as ints either way.  Either way a cover fails from a source, where f
    is ``a`` (1 in binary mode), to a sink, where it is not.

    Every coordinate is read in runs of at least :data:`_LONG_RUN` entries: the
    first n - L in the table's own order, the last L on one :func:`_rotated`
    copy, made when the first anchor reaches them and read by every anchor.  The
    copy is of the table, whose sources each anchor writes into one mask buffer
    in either layout, or in binary mode of the mask ``f = 1``, which is every
    anchor's sources as it stands.  So the mask, the copy and a spare of 1/q
    byte per entry are held.  Only a flagged coordinate's witness is read, on
    the original layout: the first violation in (high digits, b, rest) order.
    """
    low = 1
    while q**low < _LONG_RUN and low < n:
        low += 1
    spare = np.empty(table.size // q, dtype=bool)
    keys = table == 1 if binary else table
    mask = None if binary else np.empty(table.size, dtype=bool)
    rotated = None

    def sources(layout: np.ndarray, a: int) -> np.ndarray:
        return layout if binary else np.equal(layout, a, out=mask)

    for a in anchors:
        i = _first_flagged(sources(keys, a), q, n, a, range(n - low), spare)
        if i is None:
            if rotated is None:
                rotated = _rotated(keys, q**low)
            j = _first_flagged(sources(rotated, a), q, n, a, range(low), spare)
            if j is None:
                continue
            i = n - low + j
        # coordinate i's flags again, left in spare, on the original layout: the
        # first flagged high digits, then the first (b, rest) among them
        source = sources(keys, a)
        _first_flagged(source, q, n, a, (i,), spare)
        src = _axis_view(source, q, n, i)
        bad = spare.reshape(len(src), -1)
        rest = bad.shape[1]
        high = int(bad.argmax()) // rest
        b, r = divmod(int((src[high] > src[high, a]).argmax()), rest)
        stride = q ** (n - 1 - i)
        x_idx = (high * q + b) * stride + r
        y_idx = x_idx + (a - b) * stride
        pts = points_of(np.array([x_idx, y_idx]), q, n)
        return {
            "a": int(a),
            "coord": int(i),
            "x": pts[0].tolist(),
            "y": pts[1].tolist(),
            "f_x": int(table[x_idx]),
            "f_y": int(table[y_idx]),
        }
    return None


def check_monotone(f: QaryFunction) -> CheckResult:
    """Pass iff ``f(x) = a`` propagates along every ``x <=_a y``, for all symbols a.

    At q = 2 anchor 0 decides alone: a violation ``f(x) = a != f(y)`` on the cover
    ``x -> y`` of coordinate i is one for the other anchor on the cover ``y -> x``.
    """
    f = f.tabulate()
    if f.codomain != "alphabet" or f.out_q != f.q:
        raise InvalidFunctionError("monotonicity needs codomain = input alphabet")
    witness = _cover_violation(f.table, f.q, f.n, range(1 if f.q == 2 else f.q), binary=False)
    return CheckResult(witness is None, witness)


def check_zero_monotone(f: QaryFunction) -> CheckResult:
    """Pass iff the {0,1}-valued ``f`` is nondecreasing along ``<=_0``."""
    witness = anchored_monotone_violation(f, 0)
    return CheckResult(witness is None, witness)


def anchored_monotone_violation(f: QaryFunction, anchor: int) -> dict | None:
    """Witness against ``x <=_anchor y  =>  f(x) <= f(y)`` for {0,1}-valued f."""
    f = f.tabulate()
    if not f.is_binary():
        raise InvalidFunctionError("anchored monotonicity is defined for {0,1} values")
    return _cover_violation(f.table, f.q, f.n, (anchor,), binary=True)


def check_symmetric(f: QaryFunction, group: SymmetryGroup) -> CheckResult:
    """Pass iff ``f(x_sigma) = f(x)`` for every generator sigma of the group."""
    f = f.tabulate()
    if group.n != f.n:
        raise DimensionMismatchError(f"group degree {group.n} != arity {f.n}")
    transitive = group.is_transitive()
    tensor = f.table.reshape((f.q,) * f.n)
    for sigma in group.generators:
        # transpose with the inverse axes realizes g(x) = f(x_sigma),
        # i.e. g[x_0..x_{n-1}] = f[x_{sigma(0)}..x_{sigma(n-1)}]
        permuted = np.transpose(tensor, axes=np.argsort(sigma).tolist()).ravel()
        bad = permuted != f.table
        if bad.any():
            x_idx = int(np.flatnonzero(bad)[0])
            x = points_of(np.array([x_idx]), f.q, f.n)[0]
            return CheckResult(
                False,
                {
                    "permutation": sigma.tolist(),
                    "x": x.tolist(),
                    "f_x": f.table[x_idx].item(),
                    "f_x_sigma": permuted[x_idx].item(),
                },
                group_transitive=transitive,
            )
    return CheckResult(True, group_transitive=transitive)


def check_fair(f: QaryFunction) -> CheckResult:
    """Pass iff ``f(pi o x) = pi(f(x))`` for the generators of the symbol group.

    Every pass reads the table in long contiguous runs, in its own dtype.  At
    q = 2 the swap is the only generator: ``index(pi x) = 2**n - 1 - index(x)``
    and ``pi(v) = 1 - v`` on {0, 1}, so x fails exactly where a reversed copy of
    the table equals the table, a mask written over the copy.  At q >= 3 the
    inputs are relabelled axis by axis (:func:`_relabel_symbols`), and the
    outputs are mapped and compared in blocks of :data:`_MAP_BLOCK` entries,
    the only ones ``np.take`` widens to intp, so that at most two tables are
    held.  The witness is the first failing index, its values read from the
    table.
    """
    f = f.tabulate()
    if f.codomain != "alphabet" or f.out_q != f.q:
        raise InvalidFunctionError("fairness needs codomain = input alphabet")
    q, n, table = f.q, f.n, f.table
    for pi in _swap_and_cycle(q):
        x_idx = None
        if q == 2:
            reversed_copy = table[::-1].copy()
            bad = np.equal(reversed_copy, table, out=reversed_copy.view(bool))
            if bad.any():
                x_idx = int(bad.argmax())
        else:
            relabeled = _relabel_symbols(table, pi, q, n)
            symbols = pi.astype(table.dtype)
            for lo in range(0, table.size, _MAP_BLOCK):
                block = slice(lo, lo + _MAP_BLOCK)
                bad = relabeled[block] != np.take(symbols, table[block])
                if bad.any():
                    x_idx = lo + int(bad.argmax())
                    break
        if x_idx is not None:
            x = points_of(np.array([x_idx]), q, n)[0]
            return CheckResult(
                False,
                {
                    "symbol_permutation": pi.tolist(),
                    "x": x.tolist(),
                    "f_pi_x": int(table[index_of(pi[x], q)]),
                    "pi_f_x": int(pi[table[x_idx]]),
                },
            )
    return CheckResult(True)
