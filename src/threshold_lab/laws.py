"""Exact laws ``P[f = a]`` of the built-in families, each called as its family
oracle's ``exact_prob(measure, a)`` and named ``exact:<oracle name>`` by
:func:`.core._exact_prob`.  A leaf module: it imports only ``.core``, numpy and
the stdlib."""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import ProductMeasure, _check_compatible, _check_range


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
        # the log-pmf rounding can carry the sum of nonnegative terms past 1
        return min(1.0, float(weights @ by_k @ pmf[a, ks] / norm))


class _DictatorExact:
    """``P[dictator = a]`` is the atom of ``a``, whichever coordinate dictates."""

    def __init__(self, q: int):
        self.q = q

    def __call__(self, measure: ProductMeasure, a: int) -> float:
        _check_compatible(self, measure)
        _check_range(a, self.q, "symbol")
        return float(measure.atoms[a])
