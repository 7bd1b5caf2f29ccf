"""Built-in function families: plurality, tree plurality, graph properties,
antisymmetric majority, dictators.

Families are pure oracles with vectorized evaluators; small instances
tabulate on demand.  One gate routine finds every plurality winner: flat
plurality, each tree level and the most-popular-colour property.  Plurality
carries an exact probability evaluator, by Poissonized counts, that works at
every (q, n), far beyond the table cap.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidFunctionError,
    Oracle,
    ProductMeasure,
    QaryFunction,
    _check_compatible,
    _check_range,
    _check_symbol,
    _swap_and_cycle,
)

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


class _PluralityExact:
    """Exact ``P[plurality = a]`` at any (q, n) by Poissonization (B. Levin,
    *Ann. Statist.* 9, 1981): independent ``N_b ~ Poisson(n mu_b)``
    conditioned on ``sum N_b = n`` are multinomial(n, mu), so with ``pi_b``
    the pmf of ``N_b``::

        P[plur = a] = sum_k pi_a(k) [x^(n-k)] int_0^1 prod_{b != a}
                      (sum_{j<k} pi_b(j) x^j + y_b pi_b(k) x^k) dy / P[sum N = n]

    Under ``first_occurrence`` every ``y_b`` is ``y``: arrangements are
    exchangeable, so ``a`` wins a tie with ``t`` others with probability
    ``1/(t+1) = int y^t dy``, and ``ceil(q/2)`` Gauss-Legendre nodes integrate
    the degree ``q - 1`` integrand exactly.  Under ``smallest_index`` ``y_b``
    is 0 for ``b < a`` and 1 for ``b > a``.  Only pmf entries above 1e-18
    count, every term lies in [0, 1], and a zero atom is a point mass at 0.
    """

    def __init__(self, q: int, n: int, tie_break: str):
        self.q, self.n, self.tie_break = q, n, tie_break
        self._counts = np.arange(n + 1.0)
        # an accurate log-gamma: a cumulative sum of logs drifts by 4e-11 at n = 3051
        self._log_factorials = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])

    @functools.cached_property
    def _gauss_legendre(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``ceil(q/2)`` nodes and weights on [0, 1], made on first use so that
        building the oracle leaves ``numpy.polynomial`` unimported."""
        nodes, weights = np.polynomial.legendre.leggauss((self.q + 1) // 2)
        return (nodes + 1) / 2, weights / 2

    def __call__(self, measure: ProductMeasure, a: int) -> float:
        _check_compatible(self, measure)
        _check_range(a, self.q, "symbol")
        q, n = self.q, self.n
        rates = n * measure.atoms
        # a zero rate's log, clamped to the least normal float, leaves a point
        # mass at 0 once the cut applies
        pmf = np.multiply.outer(np.log(np.maximum(rates, np.finfo(float).tiny)), self._counts)
        pmf -= self._log_factorials
        pmf -= rates[:, None]
        np.exp(pmf, out=pmf)
        kept = pmf > 1e-18
        pmf *= kept
        lo, hi = kept.argmax(axis=1), n - kept[:, ::-1].argmax(axis=1)
        # a's count k is at least n/q and at least every other symbol's least count
        ks = np.arange(max(lo.max(), -(-n // q)), hi[a] + 1)
        if ks.size == 0:
            return 0.0
        others = np.arange(q - 1)
        others[a:] += 1
        if self.tie_break == "first_occurrence":
            nodes, weights = self._gauss_legendre
            y = np.repeat(nodes[:, None], q - 1, axis=1)
        else:
            y, weights = (others > a)[None, :].astype(float), np.ones(1)
        *inner, last = others
        # rows[node, k, m]: the product of the factors but the last at count
        # offset + m; two or more are multiplied by one stacked real FFT
        rows, offset, factors = np.ones((1, ks.size, 1)), 0, []
        for i, b in enumerate(inner):
            top = min(hi[b], ks[-1])
            below = (np.arange(lo[b], top + 1) < ks[:, None]) * pmf[b, lo[b] : top + 1]
            factor = np.repeat(below[None], y.shape[0], axis=0)
            tied = np.flatnonzero(ks <= top)
            factor[:, tied, ks[tied] - lo[b]] = y[:, i, None] * pmf[b, ks[tied]]
            factors.append(factor)
        if len(factors) == 1:
            rows, offset = factors[0], lo[inner[0]]
        elif factors:
            size = sum(factor.shape[-1] for factor in factors) - len(factors) + 1
            length = 1 << (size - 1).bit_length()  # or 3/4 of it: both are fast sizes
            length = 3 * length // 4 if 3 * length >= 4 * size else length
            spectrum = np.fft.rfft(factors[0], length)
            for factor in factors[1:]:
                spectrum *= np.fft.rfft(factor, length)
            rows, offset = np.fft.irfft(spectrum, length)[..., :size], lo[inner].sum()
        # the last factor at count n - k - offset - m is a Hankel view of one
        # vector; it stays below k where m > n - 2k - offset, and its tie at k
        # is one lookup per k
        width = rows.shape[-1]
        counts = n - ks[0] - offset - np.arange(ks.size + width - 1)
        band = pmf[last].take(counts, mode="clip") * (counts >= 0)
        last_rows = np.ndarray((ks.size, width), buffer=band, strides=band.strides * 2)
        tie = n - 2 * ks - offset
        by_k = np.einsum("nkm,km->nk", rows, last_rows * (np.arange(width) > tie[:, None]))
        hit = np.flatnonzero((tie >= 0) & (tie < width))
        by_k[:, hit] += y[:, -1, None] * pmf[last, ks[hit]] * rows[:, hit, tie[hit]]
        total = rates.sum()
        norm = np.exp(n * np.log(total) - total - self._log_factorials[n])
        return float(weights @ by_k @ pmf[a, ks] / norm)


def plurality(q: int, n: int, tie_break: str = "first_occurrence") -> QaryFunction:
    """The symbol with the most occurrences, ties resolved by ``tie_break``."""
    _check_tie_break(tie_break)
    if q < 2 or n < 1:
        raise DimensionMismatchError("need q >= 2 and n >= 1")
    oracle = Oracle(
        name="plurality",
        params={"q": q, "n": n, "tie_break": tie_break},
        batch=lambda X: plurality_winners(X, q, tie_break),
        exact_prob=_PluralityExact(q, n, tie_break),
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
    _check_range(coord, n, "coordinate")

    def exact_prob(measure: ProductMeasure, a: int) -> float:
        _check_compatible(f, measure)
        _check_symbol(f, a)
        return float(measure.atoms[a])

    oracle = Oracle(
        name="dictator",
        params={"q": q, "n": n, "coord": coord},
        batch=lambda X: np.asarray(X)[:, coord].astype(np.int64),
        exact_prob=exact_prob,
    )
    f = QaryFunction.from_oracle(q, n, oracle)
    return f


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
