"""Built-in function families: plurality, tree plurality, graph properties,
antisymmetric majority, dictators.

Families are pure oracles with vectorized evaluators; small instances
tabulate on demand.  Plurality carries an exact probability evaluator (a
multinomial dynamic program over count vectors) that works far beyond the
table cap.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidFunctionError,
    Oracle,
    ProductMeasure,
    QaryFunction,
)

TIE_BREAKS = ("first_occurrence", "smallest_index")


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in TIE_BREAKS:
        raise InvalidFunctionError(f"unknown tie break {tie_break!r}; use one of {TIE_BREAKS}")


def plurality_winners(X: np.ndarray, q: int, tie_break: str = "first_occurrence") -> np.ndarray:
    """Row-wise plurality winner of an ``(N, n)`` array of symbols.

    ``first_occurrence`` resolves ties toward the tied symbol appearing
    earliest in the row: fair and monotone, but ties make it sensitive to
    the voter order, so it is not anonymous.  ``smallest_index`` prefers the
    smaller symbol: anonymous and monotone, but not fair.  With q = 2 and
    odd n ties never occur and the two rules coincide.
    """
    _check_tie_break(tie_break)
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


def _compositions(n: int, q: int) -> np.ndarray:
    """All count vectors of ``n`` items over ``q`` symbols, as an (M, q) int64
    array in lexicographic order."""
    # built one symbol at a time: a prefix leaving ``r`` items has ``r + 1``
    # children, whose next counts run 0..r in order
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(q - 1):
        children = left + 1
        parent = np.repeat(np.arange(left.size), children)
        start = np.cumsum(children) - children
        step = np.arange(parent.size) - np.repeat(start, children)
        counts = np.column_stack([counts[parent], step])
        left = left[parent] - step
    return np.column_stack([counts, left])


class _PluralityExact:
    """Exact ``P[plurality = a]`` via the count-vector dynamic program.

    Conditioned on the count vector, arrangements are exchangeable, so under
    ``first_occurrence`` every tied symbol wins with equal probability (the
    ``(M, q)`` float matrix ``_share``); under ``smallest_index`` the smallest
    tied symbol wins outright (one integer ``_winner`` per composition).
    """

    def __init__(self, q: int, n: int, tie_break: str):
        from scipy.special import gammaln  # deferred: scipy is slow to import

        self.q, self.n = q, n
        counts = _compositions(n, q)
        # float once here: an int64 matrix would be converted on every call
        self._counts = counts.astype(np.float64)
        log_gamma = gammaln(np.arange(n + 2))
        self._log_coeff = log_gamma[n + 1] - log_gamma[counts + 1].sum(axis=1)
        maxc = counts.max(axis=1, keepdims=True)
        tied = counts == maxc
        if tie_break == "smallest_index":
            self._winner = tied.argmax(axis=1).astype(np.min_scalar_type(q - 1))
            self._share = None
        else:
            self._winner = None
            self._share = tied / tied.sum(axis=1, keepdims=True)

    def __call__(self, measure: ProductMeasure, a: int) -> float:
        if measure.q != self.q:
            raise DimensionMismatchError("measure alphabet mismatch")
        if not 0 <= a < self.q:
            raise DimensionMismatchError(f"symbol {a} outside [0, {self.q})")
        positive = measure.atoms > 0
        safe_log = np.log(np.where(positive, measure.atoms, 1.0))
        exponent = self._log_coeff + self._counts @ safe_log
        if positive.all():
            p = np.exp(exponent, out=exponent)
        else:
            # a composition with a count on a zero atom has probability 0, and
            # its multinomial coefficient alone can overflow exp, so exp skips
            # it (a -inf exponent, or where= on every call, costs more)
            possible = ~(self._counts[:, ~positive] > 0).any(axis=1)
            p = np.exp(exponent, out=np.zeros_like(exponent), where=possible)
        if self._winner is None:
            return float(p @ self._share[:, a])
        # the 0/1 column is every other entry of a scratch buffer, so BLAS
        # reads it through a stride, as it read a column of the one-hot (M, q)
        # matrix, and sums in the same order; a contiguous column or
        # p[mask].sum() sums in another order and moves values in the last bit
        column = np.empty((p.shape[0], 2))[:, 0]
        np.equal(self._winner, a, out=column)
        return float(p @ column)


def plurality(q: int, n: int, tie_break: str = "first_occurrence") -> QaryFunction:
    """The symbol with the most occurrences, ties resolved by ``tie_break``."""
    _check_tie_break(tie_break)
    if q < 2 or n < 1:
        raise DimensionMismatchError("need q >= 2 and n >= 1")
    exact = _PluralityExact(q, n, tie_break) if _composition_count(n, q) <= 2_000_000 else None
    oracle = Oracle(
        name="plurality",
        params={"q": q, "n": n, "tie_break": tie_break},
        batch=lambda X: plurality_winners(X, q, tie_break),
        exact_prob=exact,
    )
    return QaryFunction.from_oracle(q, n, oracle)


def _composition_count(n: int, q: int) -> int:
    return comb(n + q - 1, q - 1)


def recursive_plurality(
    q: int, arity: int, depth: int, tie_break: str = "first_occurrence"
) -> QaryFunction:
    """Balanced tree of plurality gates over ``arity**depth`` inputs.

    With q = 2 and odd arity each gate is a strict majority, so the
    composition is fair and monotone.  For q >= 3 the composition is fair
    but need not be monotone: a gate's winner can move between two non-target
    symbols when an input changes, so target-propagation can fail upstream.
    """
    _check_tie_break(tie_break)
    if arity < 2 or depth < 1:
        raise DimensionMismatchError("need arity >= 2 and depth >= 1")
    n = arity**depth

    def batch(X: np.ndarray) -> np.ndarray:
        Y = np.asarray(X, dtype=np.int64)
        while Y.shape[1] > 1:
            blocks = Y.reshape(-1, arity)
            Y = plurality_winners(blocks, q, tie_break).reshape(Y.shape[0], -1)
        return Y[:, 0]

    oracle = Oracle(
        name="recursive_plurality",
        params={"q": q, "arity": arity, "depth": depth, "tie_break": tie_break},
        batch=batch,
    )
    return QaryFunction.from_oracle(q, n, oracle)


def edge_list(vertices: int) -> list[tuple[int, int]]:
    """Lexicographic edge order of the complete graph; fixes the file format."""
    return [(u, w) for u in range(vertices) for w in range(u + 1, vertices)]


def vertex_to_edge_permutation(vperm: np.ndarray, vertices: int) -> np.ndarray:
    """Edge-coordinate permutation induced by relabeling vertices by ``vperm``.

    Built so that checking invariance under the result is exactly checking
    invariance of the property under the vertex relabeling.
    """
    vperm = np.asarray(vperm, dtype=np.int64)
    edges = edge_list(vertices)
    position = {e: k for k, e in enumerate(edges)}
    inv = np.argsort(vperm)
    tau = np.empty(len(edges), dtype=np.int64)
    for k, (u, w) in enumerate(edges):
        a, b = int(inv[u]), int(inv[w])
        tau[k] = position[(min(a, b), max(a, b))]
    return tau


def vertex_action_generators(vertices: int) -> list[np.ndarray]:
    """Edge permutations induced by a vertex transposition and a vertex cycle."""
    swap = np.arange(vertices)
    swap[[0, 1]] = swap[[1, 0]]
    cycle = np.roll(np.arange(vertices), -1)
    return [
        vertex_to_edge_permutation(swap, vertices),
        vertex_to_edge_permutation(cycle, vertices),
    ]


GRAPH_PROPERTIES = ("most_popular_color", "max_clique_color", "min_independent_set_color")


def graph_property(vertices: int, q: int, property_kind: str) -> QaryFunction:
    """Color-valued monotone property of a q-edge-colored complete graph.

    Coordinates are edge colors in :func:`edge_list` order.  All three kinds
    break ties toward the smaller color index, are invariant under vertex
    relabeling, and are monotone: recoloring edges toward the winning color
    only reinforces it.
    """
    if vertices < 2:
        raise DimensionMismatchError("need at least 2 vertices")
    if property_kind not in GRAPH_PROPERTIES:
        raise InvalidFunctionError(
            f"unknown property {property_kind!r}; use one of {GRAPH_PROPERTIES}"
        )
    edges = edge_list(vertices)
    n = len(edges)
    # vertex subsets grouped by size, with the indices of their internal edges
    subsets_by_size: list[tuple[int, list[int]]] = []
    for size in range(2, vertices + 1):
        for vs in itertools.combinations(range(vertices), size):
            inside = set(vs)
            idxs = [k for k, (u, w) in enumerate(edges) if u in inside and w in inside]
            subsets_by_size.append((size, idxs))

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        N = X.shape[0]
        if property_kind == "most_popular_color":
            counts = np.stack([(X == c).sum(axis=1) for c in range(q)], axis=1)
            return counts.argmax(axis=1)
        score = np.ones((N, q), dtype=np.int64)  # singletons: clique and independent
        for size, idxs in subsets_by_size:
            sub = X[:, idxs]
            for c in range(q):
                if property_kind == "max_clique_color":
                    hit = (sub == c).all(axis=1)
                else:
                    hit = (sub != c).all(axis=1)
                score[hit, c] = size  # sizes ascend, so last write is the max
        if property_kind == "max_clique_color":
            return score.argmax(axis=1)
        return score.argmin(axis=1)

    oracle = Oracle(
        name="graph_property",
        params={"vertices": vertices, "q": q, "property_kind": property_kind},
        batch=batch,
    )
    return QaryFunction.from_oracle(q, n, oracle)


def antisym_majority(n: int) -> QaryFunction:
    """Majority of the first block against the second over ``2n`` bits.

    Interpreting bits as signs, the value is 1 when the first block out-sums
    the second.  Balanced inputs with distinct blocks split exactly in half
    by lexicographic comparison; on identical blocks the first bit decides.
    Swapping the blocks therefore flips the output whenever they differ.
    """
    if n < 1:
        raise DimensionMismatchError("need n >= 1 (input length 2n)")

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        x, y = X[:, :n], X[:, n:]
        diff = x.sum(axis=1) - y.sum(axis=1)
        out = (diff > 0).astype(np.int64)
        tie = diff == 0
        if tie.any():
            unequal = x != y
            has_diff = unequal.any(axis=1)
            j = unequal.argmax(axis=1)
            rows = np.arange(X.shape[0])
            x_first = x[rows, j] > y[rows, j]
            out[tie & has_diff] = x_first[tie & has_diff]
            out[tie & ~has_diff] = x[tie & ~has_diff, 0]
        return out

    oracle = Oracle(name="antisym_majority", params={"n": n}, batch=batch)
    return QaryFunction.from_oracle(2, 2 * n, oracle)


def dictator(q: int, n: int, coord: int = 0) -> QaryFunction:
    """The function returning coordinate ``coord`` verbatim."""
    if not 0 <= coord < n:
        raise DimensionMismatchError(f"coordinate {coord} outside [0, {n})")

    def exact_prob(measure: ProductMeasure, a: int) -> float:
        if measure.q != q:
            raise DimensionMismatchError("measure alphabet mismatch")
        return float(measure.atoms[a])

    oracle = Oracle(
        name="dictator",
        params={"q": q, "n": n, "coord": coord},
        batch=lambda X: np.asarray(X, dtype=np.int64)[:, coord],
        exact_prob=exact_prob,
    )
    return QaryFunction.from_oracle(q, n, oracle)


#: Registry used by function files of the form {"oracle": name, "params": {...}}.
ORACLE_BUILDERS = {
    "plurality": lambda p: plurality(int(p["q"]), int(p["n"]), p.get("tie_break", "first_occurrence")),
    "recursive_plurality": lambda p: recursive_plurality(
        int(p["q"]), int(p["arity"]), int(p["depth"]), p.get("tie_break", "first_occurrence")
    ),
    "graph_property": lambda p: graph_property(
        int(p["vertices"]), int(p["q"]), p["property_kind"]
    ),
    "antisym_majority": lambda p: antisym_majority(int(p["n"])),
    "dictator": lambda p: dictator(int(p["q"]), int(p["n"]), int(p.get("coord", 0))),
}


def resolve_oracle(name: str, params: dict) -> QaryFunction:
    """Instantiate a named family from file parameters."""
    try:
        builder = ORACLE_BUILDERS[name]
    except KeyError:
        raise InvalidFunctionError(f"unknown oracle family {name!r}") from None
    return builder(params)
