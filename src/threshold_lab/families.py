"""Built-in function families: plurality, tree plurality, graph properties,
antisymmetric majority, dictators.

Families are pure oracles with vectorized evaluators; small instances
tabulate on demand.  One gate routine finds every plurality winner: flat
plurality, each tree level and the most-popular-colour property.  A family's
exact law ``P[f = a]``, where it has one, is its oracle's ``law``, from
:mod:`.laws`: plurality's, by Poissonized counts, works at every (q, n), far
beyond the table cap, and the ``most_popular_color`` property shares it.
"""

from __future__ import annotations

import dataclasses
import inspect

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
# in one reduction per symbol (at q = 2, one sum).  Timed on one-byte points
# (2-core x86-64), the two cross near 10 on 2000-row flat rows at q >= 3 and
# near 22 at q = 2, near 20-32 on 10000-row flat rows and on 2000-row tree
# levels, and stay within 12% of each other at every width up to 128 on
# tabulate's column-major blocks.  20 keeps the worst measured loss either way
# under 1.7x.
_COLUMN_COUNT_MAX_ARITY = 20


def _gate_winners(Y: np.ndarray, q: int, arity: int, tie_break: str) -> np.ndarray:
    """The winner of each ``arity``-wide gate of each row of ``Y``, in the
    narrowest unsigned dtype that holds ``q - 1``: gate g of row r reads
    ``Y[r, g*arity:(g+1)*arity]``.

    Each gate is counted once.  At q = 2 the count of ones is the plain sum of
    the inputs, and the winner is ``ones > arity // 2``: a tie at even arity
    goes to 0.  Under ``first_occurrence`` the first input is counted twice, so
    a tie goes to it; both symbols tie, so it holds a top symbol.  At q >= 3
    only symbols 1..q-1 are counted, and symbol 0's count is ``arity`` minus
    their sum.  Under ``smallest_index`` only a strictly larger count moves the
    winner, so a tie keeps the smallest symbol.  Under ``first_occurrence`` a
    tied gate takes its first input whose symbol is at the top count.  Each
    gate marks its top symbols as bits of one unsigned word up to q = 64, so
    an input reads its bit with one shift; past 64 symbols the words stack and
    each input first gathers its word.
    """
    rows, n_gates = Y.shape[0], Y.shape[1] // arity
    if q == 1:
        return np.zeros((rows, n_gates), dtype=np.uint8)  # the one symbol wins every gate
    counter = np.min_scalar_type(arity)
    wide = arity > _COLUMN_COUNT_MAX_ARITY
    gates = Y.reshape(rows, n_gates, arity) if wide else None

    def tally(v=None):
        # per gate, the sum of the inputs (v None) or the count of symbol v
        if wide:
            return np.add.reduce(gates if v is None else gates == v, axis=2, dtype=counter)
        total = np.zeros((rows, n_gates), dtype=counter)
        for j in range(arity):
            x = Y[:, j::arity]  # the j-th input of every gate
            np.add(total, x if v is None else x == v, out=total, casting="unsafe")
        return total

    if q == 2:
        ones = tally()
        if tie_break == "first_occurrence" and arity % 2 == 0:
            # an even arity is below the counter's (odd) maximum, so arity + 1 fits
            np.add(ones, Y[:, ::arity], out=ones, casting="unsafe")
        return (ones > arity // 2).view(np.uint8)
    symbol = np.min_scalar_type(q - 1)
    counts = [tally(v) for v in range(1, q)]
    counts.insert(0, arity - sum(counts))
    top = counts[0].copy()
    winners = np.zeros((rows, n_gates), dtype=symbol)
    for v in range(1, q):
        # every winner so far is below v, so the max moves it to v exactly
        # where v's count beats every smaller symbol's
        np.maximum(winners, (counts[v] > top) * symbol.type(v), out=winners)
        np.maximum(top, counts[v], out=top)
    if tie_break == "smallest_index":
        return winners
    # a gate's top symbols as bits: bit v % width of word v // width is set
    # where v's count is the top count
    word = np.min_scalar_type((1 << min(q, 64)) - 1)
    width = 8 * word.itemsize
    masks = np.zeros((-(-q // width), rows, n_gates), dtype=word)
    # at most arity symbols reach the top count, so the counter holds the ties
    tied = np.zeros((rows, n_gates), dtype=counter)
    for v, count in enumerate(counts):
        at_top = count == top
        tied += at_top
        masks[v // width] |= at_top * word.type(1 << v % width)
    pending = (tied > 1).astype(word)
    # a tied gate's winner is rebuilt as the sum of its one first top input
    winners *= pending == 0
    for j in range(arity):
        if not pending.any():
            break
        x = Y[:, j::arity].astype(word, copy=False)  # the j-th input of every gate
        if len(masks) == 1:
            first = (masks[0] >> x) & pending
        else:
            mask = np.take_along_axis(masks, (x // width)[None], axis=0)[0]
            first = (mask >> x % width) & pending
        np.add(winners, first * x, out=winners, casting="unsafe")
        pending ^= first
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
    return _gate_winners(X, q, X.shape[1], tie_break)[:, 0].astype(np.int64)


def plurality(q: int, n: int, tie_break: str = "first_occurrence") -> QaryFunction:
    """The symbol with the most occurrences, ties resolved by ``tie_break``."""
    _check_tie_break(tie_break)
    if q < 2 or n < 1:
        raise DimensionMismatchError("need q >= 2 and n >= 1")
    oracle = Oracle(
        name="plurality",
        params={"q": q, "n": n, "tie_break": tie_break},
        batch=lambda X: plurality_winners(X, q, tie_break),
        law=_PluralityExact(q, n, tie_break),
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
        return Y[:, 0].astype(np.int64)

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
    # an edge's row marks the points where it can lie in the subset: in colour c
    # for a clique, out of it for an independent set
    member = np.equal if property_kind == "max_clique_color" else np.not_equal
    position = {edge: k for k, edge in enumerate(edges)}

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        # singletons are cliques and independent sets; both kinds are hereditary,
        # so a colour's score is 1 plus the number of sizes k >= 2 that some
        # k-subset of vertices reaches
        score = np.ones((q, X.shape[0]), dtype=np.min_scalar_type(vertices))
        rows = np.empty((n, X.shape[0]), dtype=bool)  # one contiguous row per edge
        found = np.empty(X.shape[0], dtype=bool)
        for c in range(q):
            member(X.T, c, out=rows)
            level = {edge: rows[k] for k, edge in enumerate(edges)}  # subsets of size 2
            while level:
                found[...] = False
                for row in level.values():
                    found |= row
                if not found.any():
                    break
                score[c] += found
                # S + (v,) is S, S with its last vertex s swapped for v, and the edge (s, v)
                level = {
                    s + (v,): level[s] & level[s[:-1] + (v,)] & rows[position[s[-1], v]]
                    for s in level
                    for v in range(s[-1] + 1, vertices)
                }
        if property_kind == "max_clique_color":
            return score.argmax(axis=0)
        return score.argmin(axis=0)

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

    # the narrowest signed dtype that holds -n..n: unsigned sums would wrap below zero
    total = np.min_scalar_type(-n - 1)

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        x, y = X[:, :n], X[:, n:]
        diff = x.sum(axis=1, dtype=total) - y.sum(axis=1, dtype=total)
        out = (diff > 0).astype(np.int64)
        tie = np.flatnonzero(diff == 0)
        if tie.size:
            # on bits, x_j > y_j at the first differing j is x_j itself, and
            # argmax finds no difference at j = 0 on identical blocks
            xt, yt = x[tie], y[tie]
            out[tie] = xt[np.arange(tie.size), (xt != yt).argmax(axis=1)]
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
        law=_DictatorExact(q),
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
