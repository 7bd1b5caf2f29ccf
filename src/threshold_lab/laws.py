"""Exact laws ``P[f = a]`` of the built-in families, each called as its family
oracle's ``exact_prob(measure, a)`` and named ``exact:<oracle name>`` by
:func:`.core._exact_prob`.  Plurality also has a path law, its oracle's
``path_law(path, a)``: the whole curve ``t -> P[f = a]`` along a path anchored at
``a``, from n + 1 conditional probabilities (:class:`_PluralityPath`).  A leaf
module: it imports only ``.core``, numpy and the stdlib."""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    DimensionMismatchError,
    MeasurePath,
    ProductMeasure,
    _check_compatible,
    _check_range,
)


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

    def _poisson_pmf(self, rates: np.ndarray, top: int) -> np.ndarray:
        """``Poisson(rate)(j)`` for j = 0..``top`` on a new last axis, with every
        entry not above 1e-18 cut to 0.  A zero rate's log, clamped to the least
        normal float, leaves a point mass at 0 once the cut applies."""
        pmf = np.multiply.outer(
            np.log(np.maximum(rates, np.finfo(float).tiny)), self._counts[: top + 1]
        )
        pmf -= self._log_factorials[: top + 1]
        pmf -= rates[..., None]
        np.exp(pmf, out=pmf)
        pmf *= pmf > 1e-18
        return pmf

    def _ties(self, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symbols other than ``a``, the weight ``y[node, i]`` of a tie with
        the i-th of them and the weights of the nodes ``y`` is integrated over."""
        others = np.arange(self.q - 1)
        others[a:] += 1
        if self.tie_break == "first_occurrence":
            nodes, weights = self._gauss_legendre
            return others, np.repeat(nodes[:, None], self.q - 1, axis=1), weights
        return others, (others > a)[None, :].astype(float), np.ones(1)

    def __call__(self, measure: ProductMeasure, a: int) -> float:
        _check_compatible(self, measure)
        _check_range(a, self.q, "symbol")
        q, n = self.q, self.n
        rates = n * measure.atoms
        pmf = self._poisson_pmf(rates, n)
        kept = pmf > 0.0
        lo, hi = kept.argmax(axis=1), n - kept[:, ::-1].argmax(axis=1)
        # a's count k is at least n/q and at least every other symbol's least count
        ks = np.arange(max(lo.max(), -(-n // q)), hi[a] + 1)
        if ks.size == 0:
            return 0.0
        others, y, weights = self._ties(a)
        *inner, last = others
        # rows[node, k, m]: the product of the factors but the last at count
        # offset + m
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
            rows, offset = _product(factors), lo[inner].sum()
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
        # the log-pmf rounding can carry the sum of nonnegative terms past 1
        return min(1.0, float(weights @ by_k @ pmf[a, ks] / norm))

    def along(self, path: MeasurePath, a: int) -> _PluralityPath:
        """The path law ``t -> P[plurality = a]`` along ``path``, anchored at ``a``."""
        _check_compatible(self, path.base)
        if path.anchor != a:
            raise DimensionMismatchError(
                f"the plurality path law reads P[f = anchor]; got symbol {a} "
                f"on a path anchored at {path.anchor}"
            )
        return _PluralityPath(self, path.base, a)


def _product(factors: list[np.ndarray]) -> np.ndarray:
    """The coefficients of the product of the polynomials whose coefficients
    run along the last axis of each factor, by one stacked real FFT."""
    size = sum(factor.shape[-1] for factor in factors) - len(factors) + 1
    length = 1 << (size - 1).bit_length()  # or 3/4 of it: both are fast sizes
    length = 3 * length // 4 if 3 * length >= 4 * size else length
    spectrum = np.fft.rfft(factors[0], length)
    for factor in factors[1:]:
        spectrum *= np.fft.rfft(factor, length)
    return np.fft.irfft(spectrum, length)[..., :size]


def _coefficients(factors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``[x^counts[k]]`` of the product of the polynomials ``factors[b][..., k, :]``
    (coefficients along the last axis), where ``counts`` falls by one per row k:
    the product of all but the last factor, dotted with the last one reversed."""
    *inner, last = factors
    if not inner:
        rows = np.ones(last.shape[:-1] + (1,))
    else:
        rows = inner[0] if len(inner) == 1 else _product(inner)
    last = last[..., : counts[0] + 1]
    width, depth = last.shape[-1], rows.shape[-1]
    # row k of ``padded`` is the reversed last factor, shifted so that column
    # k + j holds its coefficient at counts[k] - j: a skewed view reads it
    pad = counts[0] + 1 - width
    padded = np.zeros(last.shape[:-1] + (max(pad + width, counts.size - 1 + depth),))
    padded[..., pad : pad + width] = last[..., ::-1]
    *outer, row, column = padded.strides
    skewed = np.lib.stride_tricks.as_strided(
        padded, last.shape[:-1] + (depth,), (*outer, row + column, column), writeable=False
    )
    return (rows * skewed).sum(axis=-1)


class _PluralityPath:
    """``G(t) = P[plurality = a]`` along ``mu_t = t delta_a + (1 - t) beta``.

    The anchor's count is ``Bin(n, t)``, and given that count ``c`` the other
    ``n - c`` voters are i.i.d. ``rho``, ``beta`` normalized off ``a``, whatever
    ``t`` is.  So ``G(t) = sum_c Bin(n, t)(c) H(c)`` with the n + 1 numbers
    ``H(c) = P[plur = a | N_a = c]``: 0 below ``ceil(n/q)``, 1 above ``n/2``, and
    in between the chance that ``Mult(n - c, rho)`` puts no other symbol above
    ``c``, ties weighted as in :class:`_PluralityExact`.  That chance is
    Poissonized at rate ``(n - c) rho`` for every ``c`` at once: the coefficient
    of ``x^(n - c)`` in ``prod_{b != a} (sum_{j<c} pi_b(j) x^j + y_b pi_b(c) x^c)``
    over the same coefficient of ``prod_{b != a} sum_j pi_b(j) x^j``, which is
    ``P[Poisson(n - c) = n - c]``; the last factor is read as one dot product
    per ``c``.  ``H`` is built on the first read of ``G``.
    """

    def __init__(self, law: _PluralityExact, base: ProductMeasure, a: int):
        self.law, self.base, self.a = law, base, a

    @functools.cached_property
    def conditional(self) -> np.ndarray:
        """``H(c)`` for c = 0..n."""
        law, n = self.law, self.law.n
        top = n // 2
        H = np.zeros(n + 1)
        H[top + 1 :] = 1.0
        ks = np.arange(-(-n // law.q), top + 1)
        if ks.size == 0:
            return H
        others, y, weights = law._ties(self.a)
        rho = self.base.atoms[others] / self.base.atoms[others].sum()
        rest = n - ks
        pmf = law._poisson_pmf(np.multiply.outer(rho, rest), rest[0])
        # factors[b, node, k, j]: b's count j below a's count k, or tied with it
        # at weight y[node, b]
        factors = pmf[:, None, :, : top + 1] * (np.arange(top + 1) < ks[:, None])
        factors = np.repeat(factors, y.shape[0], axis=1)
        each = np.arange(ks.size)
        factors[:, :, each, ks] = y.T[:, :, None] * pmf[:, None, each, ks]
        wins = _coefficients(factors, rest)
        # the same coefficient of the whole product, P[sum N_b = n - k], from the same
        # pmf entries: their rounding cancels in the ratio, so H is flat where it is 1
        total = _coefficients(pmf[:, None], rest)
        H[ks] = np.clip(weights @ wins / total[0], 0.0, 1.0)
        return H

    @functools.cached_property
    def _binomial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The counts ``c`` from ``ceil(n/q)`` on, below which ``H`` is 0, ``H`` there,
        and ``log C(n, c)``."""
        n, log_factorials = self.law.n, self.law._log_factorials
        c = np.arange(-(-n // self.law.q), n + 1)
        return c, self.conditional[c], log_factorials[n] - log_factorials[c] - log_factorials[n - c]

    def __call__(self, t: float) -> float:
        if t == 0.0:
            return float(self.conditional[0])
        if t == 1.0:
            return float(self.conditional[-1])
        c, H, log_choose = self._binomial
        weights = np.exp(log_choose + c * math.log(t) + (self.law.n - c) * math.log1p(-t))
        # the rounding of the log-weights can carry the sum past 1
        return min(1.0, float(weights @ H))


class _DictatorExact:
    """``P[dictator = a]`` is the atom of ``a``, whichever coordinate dictates."""

    def __init__(self, q: int):
        self.q = q

    def __call__(self, measure: ProductMeasure, a: int) -> float:
        _check_compatible(self, measure)
        _check_range(a, self.q, "symbol")
        return float(measure.atoms[a])
