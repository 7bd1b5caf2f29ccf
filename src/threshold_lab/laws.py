"""Exact laws ``P[f = a]`` of the built-in families, each its family oracle's
``law`` and named ``exact:<oracle name>`` by :func:`.core._exact_prob`.  A law is
called as ``law(measure, a)``.  Its ``bounds(atoms, a)`` encloses ``P[f = a]`` at
every row of an ``(M, q)`` atoms array in closed form: dictator's is the atom
itself, plurality's a pair of Chernoff bounds.  Plurality's ``along(path)`` is the
whole curve ``t -> P[f = path.anchor]``, from n + 1 conditional probabilities
(:class:`_PluralityPath`); it and the per-measure law sum over the Poisson pmfs'
supports only.  A leaf module: it imports only ``.core``, numpy and the stdlib."""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
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
    :meth:`_banded` sums over the rivals' supports alone, the widest rival
    through a Hankel view of its pmf, in memory ``O(rows x support)``.
    """

    def __init__(self, q: int, n: int, tie_break: str):
        self.q, self.n, self.tie_break = q, n, tie_break
        # log j! for j = 0..n and log((-1)!) = inf: a count of -1 has chance 0
        self._log_factorials = np.append(_log_factorials(n), np.inf)

    def _poisson_pmf(self, rates: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``Poisson(rate)(j)`` at the counts ``j`` in -1..n on a new last axis,
        each rate against its row of ``counts``, with every entry not above
        1e-18 cut to 0.  A zero rate's log, clamped to the least normal float,
        leaves a point mass at 0 once the cut applies."""
        rates = rates[..., None]
        pmf = np.log(np.maximum(rates, np.finfo(float).tiny)) * counts
        pmf -= self._log_factorials.take(counts)
        pmf -= rates
        np.exp(pmf, out=pmf)
        pmf *= pmf > 1e-18
        return pmf

    def _windows(self, rates: np.ndarray, top: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(start, pmf)`` per row of ``rates``, at most ``top``: ``pmf[k]`` is
        ``Poisson(rates[k])`` on the counts ``start[k] + m`` up to ``top``, on the
        fewest columns that hold every entry the cut keeps.  With ``j! >=
        (j/e)^j`` an entry is at most ``exp(-r h(j/r))`` at rate r, ``h(u) = u log
        u - u + 1``, and ``h(1 - d) >= d^2/2``, ``h(1 + d) >= d^2/(2 + 2d/3)`` put
        it below 1e-18 under ``r - sqrt(c r)`` and over ``r + c/6 + sqrt(c^2/36 +
        c r)``, ``c = 2 log 1e18``."""
        c = 36 * math.log(10)
        lo = np.maximum(np.floor(rates - np.sqrt(c * rates)), 0)
        hi = np.ceil(rates + c / 6 + np.sqrt(c * c / 36 + c * rates))
        width = int(min((hi - lo).max(), top)) + 1
        start = np.minimum(lo, top + 1 - width).astype(int)
        pmf = self._poisson_pmf(rates, start[..., None] + np.arange(width))
        kept = pmf.any(axis=1)
        first, stop = kept.argmax(axis=1), width - kept[:, ::-1].argmax(axis=1)
        return [(s + f, p[:, f:t]) for s, p, f, t in zip(start, pmf, first, stop)]

    def _ties(self, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symbols other than ``a``, the weight ``y[node, i]`` of a tie with
        the i-th of them and the weights of the nodes ``y`` is integrated over."""
        others = np.arange(self.q - 1)
        others[a:] += 1
        if self.tie_break == "first_occurrence":
            nodes, weights = _gauss_legendre((self.q + 1) // 2)
            return others, np.repeat(nodes[:, None], self.q - 1, axis=1), weights
        return others, (others > a)[None, :].astype(float), np.ones(1)

    def _banded(self, rates, windows, sums, ks=None, y=None, weights=None) -> np.ndarray:
        """Row k's ``[x^sums[k]]`` in the product of the rivals' Poisson pmfs at
        ``rates[b]`` (one rate for every row, or one per row), ``sums`` falling by
        one per row.  With ``ks``, b's factor is cut below ``ks[k]`` and its count
        ``ks[k]`` weighted by ``y[node, b]``, integrated over the nodes.

        All rivals but the last are read on their :meth:`_windows` and multiply
        to ``rows`` on the counts ``offset + m``; the last is read at ``sums[k] -
        offset - m``, through a Hankel view of one reversed vector where the rows
        share its rate.  With one rival before the last, ``int (B + y_b T_b)(C +
        y_c T_c) dy = BC + E[y_c] B T_c + E[y_b] T_b C + E[y_b y_c] T_b T_c`` (T
        the ties at ``ks[k]``): ``BC`` is one masked sum, the rest vectors, and
        no node axis is made.  More rivals keep it through their FFT product.
        """
        if not windows:  # one rival: the other is a point mass at 0, of rate 0
            rates = np.concatenate([np.zeros_like(rates), rates])
            windows = [(np.zeros(1, dtype=int), np.ones((1, 1)))]
        if ks is not None:  # no count above every k is kept
            windows = [(lo, pmf[:, : max(1, (ks - lo).max() + 1)]) for lo, pmf in windows]
        offset = sum(lo for lo, _ in windows)
        factors = [pmf for _, pmf in windows]
        nodes = ks is not None and len(windows) > 1
        for i, (lo, pmf) in enumerate(windows if nodes else ()):
            cut = ks - lo
            below = pmf * (np.arange(pmf.shape[-1]) < cut[:, None])
            factors[i] = np.repeat(below[None], len(weights), axis=0)
            tied = np.flatnonzero((cut >= 0) & (cut < pmf.shape[-1]))
            each = tied if len(pmf) > 1 else 0
            factors[i][:, tied, cut[tied]] = y[:, i, None] * pmf[each, cut[tied]]
        rows = factors[0] if len(factors) == 1 else _product(factors)
        width = rows.shape[-1]
        shared = rates.shape[1] == 1  # then row k + 1 reads row k's counts, one lower
        counts = (sums[: 1 if shared else None] - offset)[:, None]
        counts = counts - np.arange(sums.size + width - 1 if shared else width)
        last = self._poisson_pmf(rates[-1], np.maximum(counts, -1))
        if shared:
            last = np.ndarray((sums.size, width), buffer=last, strides=last.strides[1:] * 2)
        if ks is None:
            return np.einsum("km,km->k", rows, last)
        # gap: the others' count when one ties a's count k, at the last's column tied
        gap = sums - ks
        tied, m = (gap - offset)[:, None], np.arange(width)
        if nodes:
            by_k = np.einsum("nkm,km->nk", rows, last * (m > tied))
            hit = np.flatnonzero((tied >= 0) & (tied < width))
            column = tied[hit, 0]
            by_k[:, hit] += y[:, -1, None] * last[hit, column] * rows[:, hit, column]
            return weights @ by_k
        counts = np.maximum(np.stack([ks, gap], axis=1), -1)
        (tie_b, rest_b), (tie, rest) = self._poisson_pmf(rates[[0, -1]], counts).transpose(0, 2, 1)
        mean_b, mean = weights @ y[:, [0, -1]]
        by_k = np.einsum("km,km->k", rows, last * ((m > tied) & (m < (ks - offset)[:, None])))
        by_k += (mean * tie * rest_b + mean_b * tie_b * rest) * (gap < ks)
        return by_k + weights @ (y[:, 0] * y[:, -1]) * tie_b * tie * (gap == ks)

    def __call__(self, measure: ProductMeasure, a: int) -> float:
        _check_compatible(self, measure)
        _check_range(a, self.q, "symbol")
        q, n = self.q, self.n
        rates = n * measure.atoms
        pmf = self._poisson_pmf(rates, np.arange(n + 1))
        kept = pmf > 0.0
        lo, hi = kept.argmax(axis=1), n + 1 - kept[:, ::-1].argmax(axis=1)
        # a's count k is at least n/q and at least every other symbol's least count
        ks = np.arange(max(lo.max(), -(-n // q)), hi[a])
        if ks.size == 0:
            return 0.0
        others, y, weights = self._ties(a)
        order = np.argsort(hi[others] - lo[others], kind="stable")  # the widest last
        others, y = others[order], y[:, order]
        windows = [(lo[b, None], pmf[b, None, lo[b] : hi[b]]) for b in others[:-1]]
        by_k = self._banded(rates[others, None], windows, n - ks, ks, y, weights)
        total = rates.sum()
        norm = np.exp(n * np.log(total) - total - self._log_factorials[n])
        # the log-pmf rounding can carry the sum of nonnegative terms past 1, and
        # the FFT product's rounding can leave it at -1e-32 where it vanishes
        return min(1.0, max(0.0, float(by_k @ pmf[a, ks] / norm)))

    def bounds(self, atoms: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` enclosing ``P[plurality = a]`` at each row of ``atoms``.

        The count difference ``N_a - N_b`` sums n i.i.d. copies of
        ``1[x = a] - 1[x = b]``, whose least exponential moment over
        ``lambda >= 0`` is ``1 - (sqrt(mu_a) - sqrt(mu_b))**2`` when
        ``mu_b >= mu_a`` (H. Chernoff, *Ann. Math. Statist.* 23, 1952), so
        ``P[N_a >= N_b]`` is at most its n-th power.  Under either tie break
        ``a`` wins only if it at least ties every ``b``: ``hi`` is the least
        such tail, 1 if no ``b`` has ``mu_b >= mu_a``.  Where ``mu_a`` exceeds
        every other atom, ``a`` loses only if some ``b`` at least ties it:
        ``lo`` is 1 minus the sum of the same tails, at least 0, else 0.  The
        tails are powers of ``1 - d`` in [0, 1], with no log of 0 at point masses.
        """
        _check_range(a, self.q, "symbol")
        mu_a = atoms[:, a, None]
        others = np.delete(atoms, a, axis=1)
        tails = (1.0 - (np.sqrt(mu_a) - np.sqrt(others)) ** 2) ** self.n
        hi = np.where(others >= mu_a, tails, 1.0).min(axis=1)
        leads = (others < mu_a).all(axis=1)
        lo = np.where(leads, np.maximum(0.0, 1.0 - tails.sum(axis=1)), 0.0)
        return lo, hi

    def along(self, path: MeasurePath) -> _PluralityPath:
        """The path law ``t -> P[plurality = path.anchor]`` along ``path``."""
        _check_compatible(self, path.base)
        return _PluralityPath(self, path.base, path.anchor)


#: ``log(j!)`` for j below its length, grown on demand and never written: an
#: accurate log-gamma, where a cumulative sum of logs drifts by 4e-11 at n = 3051
_LOG_FACTORIALS = np.zeros(0)


def _log_factorials(n: int) -> np.ndarray:
    """``log(j!)`` for j = 0..n, a read-only view of the shared table.  Threads
    that grow it at once each compute the same values: a race repeats work only."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= n:
        grown = [math.lgamma(j + 1.0) for j in range(len(table), max(n + 1, 2 * len(table)))]
        table = np.concatenate([table, grown])
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return table[: n + 1]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Gauss-Legendre nodes and weights on [0, 1], read-only, made on
    first use so that building an oracle leaves ``numpy.polynomial`` unimported."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes, weights = (nodes + 1) / 2, weights / 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    ``P[Poisson(n - c) = n - c]``, both on each row's own pmf windows.  ``H``
    is built on the first read of ``G``.
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
        order = np.argsort(rho, kind="stable")  # the widest last
        rest = n - ks
        rates, y = np.multiply.outer(rho[order], rest), y[:, order]
        windows = law._windows(rates[:-1], rest[0]) if law.q > 2 else []
        wins = law._banded(rates, windows, rest, ks, y, weights)
        # the same coefficient of the whole product, P[sum N_b = n - k], from the same
        # pmf entries: their rounding cancels in the ratio, so H is flat where it is 1
        total = law._banded(rates, windows, rest)
        H[ks] = np.clip(wins / total, 0.0, 1.0)
        return H

    @functools.cached_property
    def _binomial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The counts ``c`` from ``ceil(n/q)`` on, below which ``H`` is 0, and
        ``n - c``, both as floats, ``H`` there and ``log C(n, c)``: read-only."""
        n, log_factorials = self.law.n, self.law._log_factorials
        c = np.arange(-(-n // self.law.q), n + 1)
        terms = (
            c.astype(float),
            (n - c).astype(float),
            self.conditional[c],
            log_factorials[n] - log_factorials[c] - log_factorials[n - c],
        )
        for array in terms:
            array.setflags(write=False)
        return terms

    def __call__(self, t: float) -> float:
        if t == 0.0:
            return float(self.conditional[0])
        if t == 1.0:
            return float(self.conditional[-1])
        c, rest, H, log_choose = self._binomial
        weights = np.exp(log_choose + c * math.log(t) + rest * math.log1p(-t))
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

    def bounds(self, atoms: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
        """The law at each row of ``atoms``, as both ends of its enclosure."""
        _check_range(a, self.q, "symbol")
        return atoms[:, a], atoms[:, a]
