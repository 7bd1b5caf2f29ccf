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
    points_of,
)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: dict | None = None
    group_transitive: bool | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclasses.dataclass(frozen=True)
class SymmetryGroup:
    """A permutation group on coordinates, given by generators.

    Invariance under the generators implies invariance under the whole
    generated group, so checks only ever touch the generators.
    """

    n: int
    generators: tuple

    def __post_init__(self) -> None:
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
        seen = {0}
        frontier = [0]
        inverses = [np.argsort(g) for g in self.generators]
        while frontier:
            j = frontier.pop()
            for g in list(self.generators) + inverses:
                k = int(g[j])
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
        return len(seen) == self.n

    @classmethod
    def full_symmetric(cls, n: int) -> "SymmetryGroup":
        """Adjacent transposition plus the n-cycle, generating all of S(n)."""
        if n == 1:
            return cls(1, (np.array([0]),))
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        cycle = list(range(1, n)) + [0]
        return cls(n, (swap, cycle))

    @classmethod
    def cyclic(cls, n: int) -> "SymmetryGroup":
        return cls(n, (list(range(1, n)) + [0],))


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
    (``f(x) <= f(y)`` for {0,1} values).
    """
    size = table.shape[0]
    idx = np.arange(size)
    for i in range(n):
        stride = q ** (n - 1 - i)
        digit = (idx // stride) % q
        movable = digit != a
        y_idx = idx + (a - digit) * stride
        if binary:
            bad = movable & (table == 1) & (table[y_idx] == 0)
        else:
            bad = movable & (table == a) & (table[y_idx] != a)
        if bad.any():
            x_idx = int(idx[bad][0])
            pts = points_of(np.array([x_idx, int(y_idx[bad][0])]), q, n)
            return {
                "a": int(a),
                "coord": int(i),
                "x": pts[0].tolist(),
                "y": pts[1].tolist(),
                "f_x": table[x_idx].item(),
                "f_y": table[int(y_idx[bad][0])].item(),
            }
    return None


def check_monotone(f: QaryFunction) -> CheckResult:
    """Pass iff ``f(x) = a`` propagates along every ``x <=_a y``, for all symbols a."""
    f = f.tabulate()
    if f.codomain != "alphabet" or f.out_q != f.q:
        raise InvalidFunctionError("monotonicity needs codomain = input alphabet")
    for a in range(f.q):
        witness = _cover_violation(f.table, f.q, f.n, a, binary=False)
        if witness is not None:
            return CheckResult(False, witness)
    return CheckResult(True)


def check_zero_monotone(f: QaryFunction) -> CheckResult:
    """Pass iff the {0,1}-valued ``f`` is nondecreasing along ``<=_0``."""
    f = f.tabulate()
    if not f.is_binary():
        raise InvalidFunctionError("zero-monotonicity is defined for {0,1} values")
    table = f.table.astype(np.int64)
    witness = _cover_violation(table, f.q, f.n, 0, binary=True)
    return CheckResult(witness is None, witness)


def anchored_monotone_violation(f: QaryFunction, anchor: int) -> dict | None:
    """Witness against ``x <=_anchor y  =>  f(x) <= f(y)`` for {0,1}-valued f."""
    f = f.tabulate()
    if not f.is_binary():
        raise InvalidFunctionError("anchored monotonicity is defined for {0,1} values")
    return _cover_violation(f.table.astype(np.int64), f.q, f.n, anchor, binary=True)


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


def _alphabet_generators(q: int) -> list[np.ndarray]:
    if q == 1:
        return [np.array([0])]
    swap = np.arange(q)
    swap[[0, 1]] = swap[[1, 0]]
    cycle = np.roll(np.arange(q), -1)
    gens = [swap]
    if not np.array_equal(cycle, swap):
        gens.append(cycle)
    return gens


def check_fair(f: QaryFunction) -> CheckResult:
    """Pass iff ``f(pi o x) = pi(f(x))`` for the generators of the symbol group."""
    f = f.tabulate()
    if f.codomain != "alphabet" or f.out_q != f.q:
        raise InvalidFunctionError("fairness needs codomain = input alphabet")
    tensor = f.table.reshape((f.q,) * f.n)
    for pi in _alphabet_generators(f.q):
        relabeled_inputs = tensor[np.ix_(*([pi] * f.n))].ravel()
        relabeled_outputs = pi[f.table]
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
