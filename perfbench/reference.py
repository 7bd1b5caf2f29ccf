"""Independent reference values used to check benchmark outputs.

Nothing here imports threshold_lab: every value is recomputed from the
definitions (binomial laws, sequential-binomial splits of a multinomial,
closed forms) so that a wrong answer from the program cannot also be the
reference.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

#: z-multiple allowed between a Monte Carlo estimate and the exact value.
Z = 5.0
#: Tolerance for identities that hold exactly in real arithmetic.
EXACT_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=float)))))


def binom_matrix(N: int, p: float) -> np.ndarray:
    """``B[m, c] = P[Bin(m, p) = c]`` for ``0 <= c <= m <= N`` (zero above the diagonal)."""
    lf = log_factorials(N)
    m = np.arange(N + 1)[:, None]
    c = np.arange(N + 1)[None, :]
    valid = c <= m
    if p <= 0.0:
        return ((c == 0) & valid).astype(float)
    if p >= 1.0:
        return (c == m).astype(float)
    rest = np.clip(m - c, 0, None)
    logp = lf[m] - lf[c] - lf[rest] + c * math.log(p) + rest * math.log1p(-p)
    return np.where(valid, np.exp(np.where(valid, logp, 0.0)), 0.0)


def binom_pmf(n: int, p: float) -> np.ndarray:
    """``P[Bin(n, p) = c]`` for ``c = 0..n``."""
    c = np.arange(n + 1)
    if p <= 0.0 or p >= 1.0:
        return (c == (n if p >= 1.0 else 0)).astype(float)
    lf = log_factorials(n)
    return np.exp(lf[n] - lf[c] - lf[n - c] + c * math.log(p) + (n - c) * math.log1p(-p))


def binomial_tail(n: int, p: float) -> float:
    """``P[Bin(n, p) > n/2]``: plurality on two symbols with odd ``n``."""
    return float(binom_pmf(n, p)[n // 2 + 1 :].sum())


def plurality_prob(atoms, a: int, n: int) -> float:
    """``P[plurality = a]`` with ties split evenly among the tied symbols.

    Under i.i.d. coordinates the arrangement given the counts is
    exchangeable, so each tied symbol wins a tie with equal probability.
    Given ``N_a = k`` the other counts are split symbol by symbol, each a
    binomial of what is left; the weight of an outcome is ``1 / (1 + ties)``
    when no other count exceeds ``k``.
    """
    atoms = np.asarray(atoms, dtype=float)
    q = atoms.size
    pa = float(atoms[a])
    if pa >= 1.0:
        return 1.0
    if pa <= 0.0:
        return 0.0
    rest = np.delete(atoms, a)
    rest = rest / rest.sum()
    tails = np.cumsum(rest[::-1])[::-1]
    rho = [float(rest[j] / tails[j]) if tails[j] > 0 else 0.0 for j in range(q - 1)]
    pk = binom_pmf(n, pa)
    ks = np.arange(n + 1)
    if q == 2:
        m0 = n - ks
        share = (m0 <= ks) / (1.0 + (m0 == ks))
        return float(pk @ share)
    if q == 3:
        # rows indexed by k: the first other symbol takes c of the m0 = n - k left
        B = binom_matrix(n, rho[0])[::-1]
        K = ks[:, None]
        C = ks[None, :]
        D = (n - K) - C
        ok = (D >= 0) & (C <= K) & (D <= K)
        share = ok / (1.0 + (C == K) + (D == K))
        return float(pk @ (B * share).sum(axis=1))
    mats = [binom_matrix(n, rho[j]) for j in range(q - 1)]
    total = 0.0
    for k in range(n + 1):
        if pk[k] < 1e-300:
            continue
        m0 = n - k
        m = np.arange(m0 + 1)
        # last symbol takes whatever is left
        F = np.stack([(m <= k) / (1.0 + t + (m == k)) for t in range(q)], axis=1)
        for j in range(q - 2, 0, -1):
            F = _split_level(F, mats[j], k, m0)
        row = mats[0][m0, : m0 + 1]
        c = np.arange(m0 + 1)
        below = c < k
        value = float(row[below] @ F[m0 - c[below], 0])
        if m0 >= k:
            value += float(row[k] * F[m0 - k, 1])
        total += pk[k] * value
    return total


def _split_level(F_next: np.ndarray, B: np.ndarray, k: int, M: int) -> np.ndarray:
    """One symbol takes ``c <= k`` of ``m`` remaining items; ``c == k`` adds a tie."""
    K = min(k, M)
    m = np.arange(M + 1)[:, None]
    c = np.arange(K + 1)[None, :]
    D = m - c
    W = np.where(D >= 0, B[: M + 1, : K + 1], 0.0)
    G = F_next[np.clip(D, 0, None)]
    out = np.einsum("mc,mct->mt", W[:, :k], G[:, :k])
    if K == k:
        tied = np.zeros_like(G[:, k])
        tied[:, :-1] = G[:, k, 1:]
        out += W[:, k : k + 1] * tied
    return out


def recursive_majority_prob(p: float, arity: int, depth: int) -> float:
    """Majority of ``arity`` (odd) applied ``depth`` times to i.i.d. bits."""
    for _ in range(depth):
        p = binomial_tail(arity, p)
    return p


def antisym_one_prob(p: float, n: int) -> float:
    """``P[antisym_majority = 1]`` with i.i.d. bits of mean ``p`` over ``2n`` inputs.

    Unequal sums decide; equal sums with different blocks split evenly by the
    block-swap symmetry; identical blocks return the first bit.
    """
    pmf = binom_pmf(n, p)
    cdf_below = np.concatenate(([0.0], np.cumsum(pmf)[:-1]))
    greater = float(pmf @ cdf_below)
    equal_sums = float(pmf @ pmf)
    same = p * p + (1.0 - p) ** 2
    identical = same**n
    identical_one = p * p * same ** (n - 1)
    return greater + 0.5 * (equal_sums - identical) + identical_one


def path_atoms(base, anchor: int, t: float) -> np.ndarray:
    atoms = (1.0 - t) * np.asarray(base, dtype=float)
    atoms[anchor] += t
    return atoms


def crossing(G, level: float, tol: float = 1e-10) -> float:
    """Smallest ``t`` in [0, 1] with ``G(t) >= level`` for nondecreasing ``G``."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if G(mid) < level:
            lo = mid
        else:
            hi = mid
    return hi


def simplex_points(q: int, seed: int, count: int) -> list[np.ndarray]:
    """The uniform simplex points a seeded exponential-normalising sampler draws."""
    rng = np.random.default_rng(int(seed))
    out = []
    for _ in range(count):
        draws = rng.exponential(size=q)
        out.append(draws / draws.sum())
    return out


def dictator_critical_measure(q: int, eps: float) -> float:
    """Uniform-simplex measure of ``eps <= mu_a <= 1 - eps`` (``mu_a ~ Beta(1, q-1)``)."""
    return (1.0 - eps) ** (q - 1) - eps ** (q - 1)


def mc_consistent(p_hat: float, p: float, samples: int, z: float = Z) -> bool:
    return abs(p_hat - p) <= z * math.sqrt(max(p * (1.0 - p), 0.0) / samples) + 1.0 / samples


def digits(q: int, n: int) -> np.ndarray:
    """All points of ``[q]**n`` in index order, coordinate 0 most significant."""
    return np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64).reshape(-1, n)


def plurality_table(q: int, n: int) -> np.ndarray:
    """Plurality with ties to the tied symbol that appears first."""
    X = digits(q, n)
    counts = np.stack([(X == v).sum(axis=1) for v in range(q)], axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    first = np.stack(
        [np.where((X == v).any(axis=1), (X == v).argmax(axis=1), n) for v in range(q)], axis=1
    )
    return np.where(tied, first, n + 1).argmin(axis=1)


def product_weights(atoms, n: int) -> np.ndarray:
    w = np.ones(1)
    for _ in range(n):
        w = np.outer(w, atoms).ravel()
    return w


def influences(table: np.ndarray, atoms, q: int, n: int) -> list[float]:
    """``E[Var_i f]``: the expected variance over coordinate ``i`` given the rest."""
    atoms = np.asarray(atoms, dtype=float)
    tensor = np.asarray(table, dtype=float).reshape((q,) * n)
    rest = product_weights(atoms, n - 1)
    out = []
    for i in range(n):
        moved = np.moveaxis(tensor, i, -1).reshape(-1, q)
        mean = moved @ atoms
        second = (moved * moved) @ atoms
        out.append(float(rest @ (second - mean * mean)))
    return out


def lp_norm(table: np.ndarray, atoms, n: int, p: float) -> float:
    w = product_weights(atoms, n)
    return float((w @ np.abs(table) ** p) ** (1.0 / p))


def spectral_problems(components: np.ndarray, table: np.ndarray, atoms, q: int, n: int) -> list[str]:
    """Reconstruction, Parseval and ``Inf_i = sum_{S contains i} ||f_S||^2``."""
    problems = []
    table = np.asarray(table, dtype=float)
    w = product_weights(atoms, n)
    recon = components.sum(axis=0)
    err = float(np.abs(recon - table).max())
    if err > EXACT_TOL:
        problems.append(f"components do not reconstruct f (max error {err:.3g})")
    norms = np.einsum("ij,ij,j->i", components, components, w)
    total = float(w @ (table * table))
    if abs(norms.sum() - total) > EXACT_TOL * max(1.0, total):
        problems.append(f"Parseval fails: {norms.sum()!r} != {total!r}")
    masks = np.arange(components.shape[0])
    for i, inf in enumerate(influences(table, atoms, q, n)):
        spectral = float(norms[(masks >> i & 1).astype(bool)].sum())
        if abs(inf - spectral) > EXACT_TOL * max(1.0, inf):
            problems.append(f"influence {i}: {inf!r} != spectral {spectral!r}")
    return problems


def plurality_strict_winner(orders, weights, mask: int) -> int | None:
    """The strict plurality winner of ``mask`` in a weighted profile, or None on a tie."""
    tally: dict[int, int] = {}
    for ranking, weight in zip(orders, weights):
        top = next(a for a in ranking if mask >> a & 1)
        tally[top] = tally.get(top, 0) + weight
    best = max(tally.values())
    leaders = [a for a, v in tally.items() if v == best]
    return leaders[0] if len(leaders) == 1 else None

