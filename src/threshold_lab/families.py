"""Built-in function families: plurality, tree plurality, graph properties,
antisymmetric majority, dictators.

Families are pure oracles with vectorized evaluators; small instances
tabulate on demand.  One gate routine finds every plurality winner: flat
plurality, each tree level and the most-popular-colour property.  A family's
exact law ``P[f = a]``, where it has one, lives in :mod:`.laws`, and its
oracle's ``exact_prob`` names it; plurality's, by Poissonized counts, works at
every (q, n), far beyond the table cap.  Plurality's oracle, and through it the
``most_popular_color`` property's, also names the law's path law as
``path_law``, which exact curves read once per path.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidFunctionError,
    Oracle,
    QaryFunction,
    _check_range,
    _swap_and_cycle,
)
from .laws import _DictatorExact, _PluralityExact

TIE_BREAKS = ("first_occurrence", "smallest_index")


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in TIE_BREAKS:
        raise InvalidFunctionError(f"unknown tie break {tie_break!r}; use one of {TIE_BREAKS}")


# gates up to this width count their inputs one column at a time, wider ones
# each symbol in one reduction.  The two cross near 9-10 on 2000-row uint8
# flat rows, 13-15 on 10000-row ones, 12 on int64 tree levels and 17-19 on
# uint8 tree levels; on tabulate's one-byte blocks the column count leads by
# at most 17% at every width up to 24.  12 bounds the worst loss either way.
_COLUMN_COUNT_MAX_ARITY = 12


def _gate_winners(Y: np.ndarray, q: int, arity: int, tie_break: str) -> np.ndarray:
    """The int64 winner of each ``arity``-wide gate of each row of ``Y``: gate
    g of row r reads ``Y[r, g*arity:(g+1)*arity]``.

    Under ``smallest_index`` only a strictly larger count moves the winner, so
    a tie keeps the smallest symbol.  Under ``first_occurrence`` the first
    input column holding a tied top symbol wins.
    """
    counter = np.min_scalar_type(arity)
    # the j-th input of every gate is the strided slice Y[:, j::arity]
    if arity <= _COLUMN_COUNT_MAX_ARITY:
        counts = np.zeros((q, Y.shape[0], Y.shape[1] // arity), dtype=counter)
        for v in range(q):
            for j in range(arity):
                counts[v] += Y[:, j::arity] == v
    else:
        gates = Y.reshape(Y.shape[0], -1, arity)
        counts = np.stack([np.add.reduce(gates == v, axis=2, dtype=counter) for v in range(q)])
    top = counts[0]
    winners = np.zeros(top.shape, dtype=np.int64)
    for v in range(1, q):
        np.copyto(winners, v, where=counts[v] > top)
        top = np.maximum(top, counts[v])
    if tie_break == "smallest_index":
        return winners
    at_top = counts == top
    unresolved = at_top.sum(axis=0, dtype=counter) > 1
    for j in range(arity):
        if not unresolved.any():
            break
        column = Y[:, j::arity]
        first = np.take_along_axis(at_top, column[None], axis=0)[0] & unresolved
        np.copyto(winners, column, where=first)
        unresolved &= ~first
    return winners


def plurality_winners(X: np.ndarray, q: int, tie_break: str = "first_occurrence") -> np.ndarray:
    """Row-wise plurality winner of an ``(N, n)`` array of symbols, in any
    integer dtype: the one-gate case of the tree gates, with their tie rules.

    ``first_occurrence`` is fair and monotone, but ties make it sensitive to
    the voter order, so it is not anonymous.  ``smallest_index`` is anonymous
    and monotone, but not fair.  With q = 2 and odd n ties never occur and the
    two rules coincide.
    """
    _check_tie_break(tie_break)
    X = np.asarray(X)
    return _gate_winners(X, q, X.shape[1], tie_break)[:, 0]


def plurality(q: int, n: int, tie_break: str = "first_occurrence") -> QaryFunction:
    """The symbol with the most occurrences, ties resolved by ``tie_break``."""
    _check_tie_break(tie_break)
    if q < 2 or n < 1:
        raise DimensionMismatchError("need q >= 2 and n >= 1")
    law = _PluralityExact(q, n, tie_break)
    oracle = Oracle(
        name="plurality",
        params={"q": q, "n": n, "tie_break": tie_break},
        batch=lambda X: plurality_winners(X, q, tie_break),
        exact_prob=law,
        path_law=law.along,
    )
    return QaryFunction.from_oracle(q, n, oracle)


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
        Y = np.asarray(X)
        for _ in range(depth):
            Y = _gate_winners(Y, q, arity, tie_break)
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
    return [vertex_to_edge_permutation(g, vertices) for g in _swap_and_cycle(vertices)]


GRAPH_PROPERTIES = ("most_popular_color", "max_clique_color", "min_independent_set_color")

# rows x subsets bound on the colour counts a clique or independent-set batch holds at once
_GRAPH_COUNT_ENTRIES = 1 << 20


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
    params = {"vertices": vertices, "q": q, "property_kind": property_kind}
    if property_kind == "most_popular_color":
        # plurality over the edge colours, exact law included
        plur = plurality(q, n, "smallest_index").oracle
        oracle = dataclasses.replace(plur, name="graph_property", params=params)
        return QaryFunction.from_oracle(q, n, oracle)
    vertex_ids = range(vertices)
    # column s of ``inside`` marks the edges within subset s of two or more vertices:
    # a clique of colour c has all of them in colour c, an independent set none
    subsets = [s for k in range(2, vertices + 1) for s in itertools.combinations(vertex_ids, k)]
    sizes = np.array([len(s) for s in subsets], dtype=np.min_scalar_type(vertices))
    inside = np.array([[u in s and w in s for s in subsets] for u, w in edges], dtype=np.float32)
    wanted = inside.sum(axis=0) if property_kind == "max_clique_color" else 0.0
    rows = max(1, _GRAPH_COUNT_ENTRIES // len(subsets))

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        score = np.ones((X.shape[0], q), dtype=sizes.dtype)  # singletons: clique and independent
        for lo in range(0, X.shape[0], rows):
            block = X[lo : lo + rows]
            for c in range(q):
                # a subset's edge count in colour c, exact in float32 (at most C(v, 2))
                hit = (block == c).astype(np.float32) @ inside == wanted
                np.max(hit * sizes, axis=1, initial=1, out=score[lo : lo + rows, c])
        if property_kind == "max_clique_color":
            return score.argmax(axis=1)
        return score.argmin(axis=1)

    oracle = Oracle(name="graph_property", params=params, batch=batch)
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
        X = np.asarray(X)
        x, y = X[:, :n], X[:, n:]
        # int64 sums: uint8 sums would come out unsigned and wrap below zero
        diff = x.sum(axis=1, dtype=np.int64) - y.sum(axis=1, dtype=np.int64)
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
    if q < 2 or n < 1:
        raise DimensionMismatchError("need q >= 2 and n >= 1")
    _check_range(coord, n, "coordinate")
    oracle = Oracle(
        name="dictator",
        params={"q": q, "n": n, "coord": coord},
        batch=lambda X: np.asarray(X)[:, coord].astype(np.int64),
        exact_prob=_DictatorExact(q),
    )
    return QaryFunction.from_oracle(q, n, oracle)


#: Registry used by function files of the form {"oracle": name, "params": {...}}:
#: each family's builder, whose arguments are the parameters it takes.
ORACLE_BUILDERS = {
    "plurality": plurality,
    "recursive_plurality": recursive_plurality,
    "graph_property": graph_property,
    "antisym_majority": antisym_majority,
    "dictator": dictator,
}


def _builder_parameters(name: str):
    """The parameters of family ``name``'s builder, by name, each annotated with
    the type ``int`` or ``str`` (resolved, not the annotation's text)."""
    try:
        builder = ORACLE_BUILDERS[name]
    except KeyError:
        raise InvalidFunctionError(f"unknown oracle family {name!r}") from None
    return inspect.signature(builder, eval_str=True).parameters


def resolve_oracle(name: str, params: dict) -> QaryFunction:
    """Instantiate a named family, binding ``params`` by name to its builder's
    arguments.  A parameter the builder needs and ``params`` lacks raises
    ``KeyError`` naming it; one the builder does not take raises
    :class:`InvalidFunctionError`, with its name in the error's ``parameter``."""
    taken = _builder_parameters(name)
    for key in params:
        if key not in taken:
            error = InvalidFunctionError(f"oracle family {name!r} takes no parameter {key!r}")
            error.parameter = key
            raise error
    for key, parameter in taken.items():
        if parameter.default is parameter.empty and key not in params:
            raise KeyError(key)
    return ORACLE_BUILDERS[name](**params)
