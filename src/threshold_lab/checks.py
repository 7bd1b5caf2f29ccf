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
    _relabel_index,
    _swap_and_cycle,
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


def _cover_violation(table: np.ndarray, q: int, n: int, a: int, binary: bool) -> dict | None:
    """First violation over single-coordinate covers ``x -> (x with x_i := a)``.

    Covers generate the anchored order by transitivity, so they certify full
    monotonicity.  ``binary`` switches the predicate from value preservation
    (``f(x) = a`` forces ``f(y) = a``) to order preservation
    (``f(x) <= f(y)`` for {0,1} values, int or real); the witness holds the
    values as ints either way.
    """
    # x is flagged when f(x) is a source value and f(y) a sink value; at
    # digit a the cover y is x itself, and no value is both, so only the
    # slabs b != a are read
    source = table == (1 if binary else a)
    sink = table == 0 if binary else ~source
    others = [b for b in range(q) if b != a]
    for i in range(n):
        # axis 1 is coordinate i, so the slab at a holds every x's cover y, and
        # (high digits, rest) is flagged when some slab b != a holds a source there
        src, covers = _axis_view(source, q, n, i), _axis_view(sink, q, n, i)[:, a]
        movable = src[:, others[0]]
        for b in others[1:]:
            movable = movable | src[:, b]
        bad = movable & covers
        if bad.any():
            # the first violation in (high digits, b, rest) order: the first flagged
            # high digits, then the first (b, rest) among them
            high = int(bad.argmax()) // bad.shape[1]
            b, rest = divmod(int((src[high] & covers[high]).argmax()), bad.shape[1])
            stride = q ** (n - 1 - i)
            x_idx = (high * q + b) * stride + rest
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
    for a in range(1 if f.q == 2 else f.q):
        witness = _cover_violation(f.table, f.q, f.n, a, binary=False)
        if witness is not None:
            return CheckResult(False, witness)
    return CheckResult(True)


def check_zero_monotone(f: QaryFunction) -> CheckResult:
    """Pass iff the {0,1}-valued ``f`` is nondecreasing along ``<=_0``."""
    witness = anchored_monotone_violation(f, 0)
    return CheckResult(witness is None, witness)


def anchored_monotone_violation(f: QaryFunction, anchor: int) -> dict | None:
    """Witness against ``x <=_anchor y  =>  f(x) <= f(y)`` for {0,1}-valued f."""
    f = f.tabulate()
    if not f.is_binary():
        raise InvalidFunctionError("anchored monotonicity is defined for {0,1} values")
    return _cover_violation(f.table, f.q, f.n, anchor, binary=True)


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
    """Pass iff ``f(pi o x) = pi(f(x))`` for the generators of the symbol group."""
    f = f.tabulate()
    if f.codomain != "alphabet" or f.out_q != f.q:
        raise InvalidFunctionError("fairness needs codomain = input alphabet")
    for pi in _swap_and_cycle(f.q):
        if f.q == 2:
            # the swap is the only generator: index(pi x) = 2**n - 1 - index(x)
            # and pi(v) = v ^ 1, one pass in the table's own dtype
            relabeled_inputs, relabeled_outputs = f.table[::-1], f.table ^ 1
        else:
            relabeled_inputs = f.table[_relabel_index(pi, f.n)]
            # pi in the table's own dtype, so the relabeled table is as narrow
            relabeled_outputs = np.take(pi.astype(f.table.dtype), f.table)
        bad = relabeled_inputs != relabeled_outputs
        if bad.any():
            x_idx = int(np.flatnonzero(bad)[0])
            x = points_of(np.array([x_idx]), f.q, f.n)[0]
            return CheckResult(
                False,
                {
                    "symbol_permutation": pi.tolist(),
                    "x": x.tolist(),
                    "f_pi_x": int(relabeled_inputs[x_idx]),
                    "pi_f_x": int(relabeled_outputs[x_idx]),
                },
            )
    return CheckResult(True)
