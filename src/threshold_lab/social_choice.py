"""Choice functions, voting rules over linear orders, and indeterminacy
experiments: McGarvey profiles for arbitrary tournaments by pairwise majority,
and plurality realization of arbitrary choice functions.

Alternatives are ``0..m-1``.  Subsets of alternatives are bitmasks with bit
``j`` standing for alternative ``j``; :func:`subset_members` and
:func:`subset_mask`, re-exported here, are defined once in ``core`` and
shared with the Efron-Stein components.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .core import (
    MAX_TABLE_SIZE,
    DimensionMismatchError,
    Report,
    TableSizeError,
    ThresholdLabError,
    _categorical,
    _check_range,
    subset_mask,
    subset_members,
)
from .families import plurality_winners


class SearchBudgetExceededError(ThresholdLabError):
    """A realizing profile exists but needs more voters than the budget allows."""

    def __init__(self, message: str, minimal_size: int):
        super().__init__(message)
        self.minimal_size = minimal_size


def nonempty_subsets(m: int):
    return range(1, 1 << m)


def _subset(m: int, subset) -> int:
    """The bitmask of ``subset``, refused unless it is a nonempty subset of the
    alternatives ``[0, m)``."""
    mask = subset_mask(subset)
    if not 0 < mask < 1 << m:
        raise DimensionMismatchError(
            f"subset mask {mask} is not a nonempty subset of the alternatives [0, {m})"
        )
    return mask


def _whole(value, what: str) -> int:
    """``value`` as an int, refused unless it is integral: ``2.0`` reads as 2,
    but ``2.7`` is never truncated to 2."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf and nan have no int
        whole = None
    if whole != value:
        raise DimensionMismatchError(f"{what} {value!r} is not an integer")
    return whole


@dataclasses.dataclass(frozen=True)
class LinearOrder:
    """A strict ranking of the ``m`` alternatives, best first."""

    m: int
    ranking: tuple

    def __post_init__(self) -> None:
        ranking = tuple(_whole(a, "alternative") for a in self.ranking)
        if sorted(ranking) != list(range(self.m)):
            raise DimensionMismatchError(f"{ranking} is not a ranking of [{self.m})")
        object.__setattr__(self, "ranking", ranking)

    def top_of(self, subset) -> int:
        mask = _subset(self.m, subset)
        return next(a for a in self.ranking if mask >> a & 1)

    def prefers(self, a: int, b: int) -> bool:
        return self.ranking.index(a) < self.ranking.index(b)


@dataclasses.dataclass(frozen=True)
class VoterProfile:
    """A weighted multiset of linear orders.

    The voter sequence is the orders in listed order, each repeated by its
    weight; sequence-sensitive tie breaking refers to that expansion.
    """

    m: int
    orders: tuple  # of (LinearOrder, weight)

    def __post_init__(self) -> None:
        if not self.orders:
            raise DimensionMismatchError("profile must contain at least one voter")
        normalized = []
        for order, weight in self.orders:
            if order.m != self.m:
                raise DimensionMismatchError("order size mismatch")
            weight = _whole(weight, "weight")
            if weight < 1:
                raise DimensionMismatchError("weights must be positive integers")
            normalized.append((order, weight))
        object.__setattr__(self, "orders", tuple(normalized))

    @property
    def total_weight(self) -> int:
        return sum(w for _, w in self.orders)

    @classmethod
    def from_rankings(cls, m: int, rankings, weights=None) -> "VoterProfile":
        rankings = list(rankings)
        weights = [1] * len(rankings) if weights is None else list(weights)
        if len(weights) != len(rankings):
            raise DimensionMismatchError(f"{len(rankings)} rankings but {len(weights)} weights")
        return cls(m, tuple((LinearOrder(m, r), w) for r, w in zip(rankings, weights)))

    def order_weights(self) -> dict:
        """Aggregated weight per distinct ranking."""
        agg: dict = {}
        for order, weight in self.orders:
            agg[order.ranking] = agg.get(order.ranking, 0) + weight
        return agg


@dataclasses.dataclass(frozen=True)
class ChoiceFunction:
    """An element ``c(S) in S`` for every nonempty subset of alternatives."""

    m: int
    choices: dict  # mask -> alternative

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DimensionMismatchError(f"a choice function needs m >= 1 alternatives, got {self.m}")
        cleaned = {}
        for mask in nonempty_subsets(self.m):
            if mask not in self.choices:
                raise DimensionMismatchError(f"missing choice for subset mask {mask}")
            a = int(self.choices[mask])
            if not mask >> a & 1:
                raise DimensionMismatchError(f"choice {a} not inside subset mask {mask}")
            cleaned[mask] = a
        for mask in self.choices:
            if mask not in cleaned:
                raise DimensionMismatchError(
                    f"choice for subset mask {mask} outside [1, {1 << self.m})"
                )
        for a in range(self.m):
            if cleaned[1 << a] != a:
                raise DimensionMismatchError("singleton subsets must choose their element")
        object.__setattr__(self, "choices", cleaned)

    def get(self, subset) -> int:
        return self.choices[_subset(self.m, subset)]

    @classmethod
    def from_order(cls, order: LinearOrder) -> "ChoiceFunction":
        return cls(
            order.m, {mask: order.top_of(mask) for mask in nonempty_subsets(order.m)}
        )


@dataclasses.dataclass(frozen=True)
class Tournament:
    """A complete asymmetric relation: one winner per unordered pair."""

    m: int
    beats: np.ndarray  # (m, m) bool, beats[a, b] iff a beats b

    def __post_init__(self) -> None:
        beats = np.asarray(self.beats, dtype=bool)
        if beats.shape != (self.m, self.m):
            raise DimensionMismatchError("beats matrix shape mismatch")
        for a in range(self.m):
            if beats[a, a]:
                raise DimensionMismatchError("no self-beats allowed")
            for b in range(a + 1, self.m):
                if beats[a, b] == beats[b, a]:
                    raise DimensionMismatchError(
                        f"pair ({a}, {b}) must have exactly one winner"
                    )
        beats.setflags(write=False)
        object.__setattr__(self, "beats", beats)

    @classmethod
    def from_pairs(cls, m: int, pairs) -> "Tournament":
        beats = np.zeros((m, m), dtype=bool)
        for winner, loser in pairs:
            for a in (winner, loser):
                _check_range(a, m, "alternative")
            beats[int(winner), int(loser)] = True
        return cls(m, beats)

    @classmethod
    def random(cls, m: int, rng: np.random.Generator) -> "Tournament":
        beats = np.zeros((m, m), dtype=bool)
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < 0.5:
                    beats[a, b] = True
                else:
                    beats[b, a] = True
        return cls(m, beats)


def is_rational(c: ChoiceFunction) -> LinearOrder | None:
    """A linear order generating ``c`` by maximization, if one exists.

    Tries the order induced by the pairwise choices (sorted by pairwise win
    count) and keeps it if its choice function, the top of every subset, is ``c``.
    """
    m = c.m
    wins = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            winner = c.get(subset_mask((a, b)))
            wins[winner] += 1
    if sorted(wins) != list(range(m)):
        return None  # pairwise relation is not a linear order
    order = LinearOrder(m, tuple(sorted(range(m), key=lambda a: -wins[a])))
    return order if ChoiceFunction.from_order(order).choices == c.choices else None


def plurality_choice(
    profile: VoterProfile, subset, tie_break: str = "first_occurrence"
) -> int:
    """Plurality over the voters' top choices within the subset.

    Depends only on the individual tops (independence of rejected
    alternatives) and always returns some voter's top (Pareto).
    """
    mask = _subset(profile.m, subset)
    tops, weights = zip(*((order.top_of(mask), weight) for order, weight in profile.orders))
    # the voter sequence: each listed voter's top repeated by its weight
    voters = np.repeat(tops, weights)[None, :]
    return int(plurality_winners(voters, profile.m, tie_break)[0])


def mcgarvey_profile(tournament: Tournament) -> VoterProfile:
    """A profile whose strict pairwise majority relation equals the tournament.

    Uses the classical two-voters-per-pair gadget: for each beat ``a -> b``
    add one voter ranking ``a, b`` on top of the remaining alternatives and
    one ranking them below the reversed remainder; all other pairwise margins
    cancel, leaving a 2-vote margin exactly on ``(a, b)``.
    """
    m = tournament.m
    if m < 2:
        raise DimensionMismatchError("McGarvey construction needs m >= 2")
    rankings = []
    for a in range(m):
        for b in range(m):
            if tournament.beats[a, b]:
                rest = [x for x in range(m) if x not in (a, b)]
                rankings.append((a, b, *rest))
                rankings.append((*reversed(rest), a, b))
    return VoterProfile.from_rankings(m, rankings)


def majority_relation(profile: VoterProfile) -> np.ndarray:
    """Strict pairwise majority matrix of a profile (ties leave both False): each
    order adds its weight wherever its rank positions put ``a`` before ``b``."""
    margin = np.zeros((profile.m, profile.m), dtype=np.int64)
    for order, weight in profile.orders:
        rank = np.argsort(order.ranking)  # rank[a]: a's position in the order
        margin += weight * (rank[:, None] < rank[None, :])
    return margin > margin.T


def all_orders(m: int) -> list[LinearOrder]:
    return [LinearOrder(m, p) for p in itertools.permutations(range(m))]


def _top_table(rankings, m: int) -> np.ndarray:
    """The ``(2^m - 1, K)`` table of each of the K rankings' top on each
    nonempty subset, row ``mask - 1`` for subset ``mask``, in the narrowest
    unsigned dtype that holds ``m - 1``.  A subset's tops are its members of
    least rank, read from one array of rank positions."""
    rank = np.argsort(np.reshape(rankings, (-1, m)), axis=1)  # rank[k, a]: a's place in ranking k
    table = np.empty(((1 << m) - 1, len(rank)), dtype=np.min_scalar_type(m - 1))
    for mask in nonempty_subsets(m):
        members = np.array(subset_members(mask))
        table[mask - 1] = members[rank[:, members].argmin(axis=1)]
    return table


#: seconds the integer program of :func:`saari_search` may run before it is
#: refused: past m = 5 a search can run for minutes
_SAARI_TIME_LIMIT_S = 60


def saari_search(
    c0: ChoiceFunction, max_profile_size: int = 10_000
) -> VoterProfile | None:
    """Integer weights over all ``m!`` orders making plurality realize ``c0``.

    Solved as an exact integer program minimizing the number of voters,
    requiring the target to win every subset strictly (so no tie break is
    ever consulted): one constraint row per subset ``S`` and rival ``b``, the
    strict margin ``#tops(S) = c0(S)`` minus ``#tops(S) = b`` as a linear form in
    the weights.  The ``(2**m - 1, m!)`` table of tops is built by
    :func:`_top_table`: for each subset, each order's member of least rank,
    read from one array of rank positions.  The rounded solution is checked
    against the same rows, each at least 1.  Returns ``None`` when no profile
    of any size exists; raises :class:`SearchBudgetExceededError` when the
    minimal realizing profile exceeds the budget, :class:`TableSizeError`,
    before any order is built, when the table exceeds :data:`MAX_TABLE_SIZE`
    (so m <= 8), and :class:`ThresholdLabError` when the solver reaches its
    time limit, ``_SAARI_TIME_LIMIT_S`` = 60 s, before it proves a minimum.
    """
    from scipy.optimize import LinearConstraint, milp  # deferred: scipy is slow to import

    m = c0.m
    size = math.factorial(m) * ((1 << m) - 1)
    if size > MAX_TABLE_SIZE:
        raise TableSizeError(
            f"saari_search at m = {m} tabulates {m}! orders' tops on 2**{m} - 1 subsets, "
            f"{size} entries, past the exact-computation cap {MAX_TABLE_SIZE}"
        )
    orders = all_orders(m)
    k = len(orders)
    if m == 1:
        return VoterProfile(1, ((orders[0], 1),))
    tops = _top_table([order.ranking for order in orders], m)
    rows = []
    for mask in nonempty_subsets(m):
        members = subset_members(mask)
        if len(members) < 2:
            continue
        target = c0.get(mask)
        for b in members:
            if b == target:
                continue
            rows.append((tops[mask - 1] == target).astype(float) - (tops[mask - 1] == b))
    matrix = np.array(rows)
    result = milp(
        c=np.ones(k),
        constraints=LinearConstraint(matrix, lb=np.ones(matrix.shape[0])),
        integrality=np.ones(k),
        options={"time_limit": _SAARI_TIME_LIMIT_S},
    )
    if result.status == 2:  # proven infeasible
        return None
    if result.status == 1:  # time limit reached
        raise ThresholdLabError(
            f"saari_search at m = {m} reached its {_SAARI_TIME_LIMIT_S} s time limit "
            "before the integer program was solved"
        )
    if not result.success:
        raise ThresholdLabError(f"integer program failed: {result.message}")
    weights = np.rint(result.x).astype(int)
    total = int(weights.sum())
    if total > max_profile_size:
        raise SearchBudgetExceededError(
            f"minimal realizing profile has {total} voters, budget {max_profile_size}",
            minimal_size=total,
        )
    # each row of the matrix is one strict margin, a count of voters far below 2^53
    if (matrix @ weights < 1).any():
        raise ThresholdLabError("integer rounding broke a strict margin")
    chosen = [(orders[j], int(w)) for j, w in enumerate(weights) if w > 0]
    return VoterProfile(m, tuple(chosen))


@dataclasses.dataclass(frozen=True)
class IndeterminacyReport(Report):
    """Agreement rates between sampled plurality outcomes and the target choices.

    Keys are those the report's document prints: ``per_subset`` is keyed by
    the decimal string of each subset mask (``"5"`` for ``{0, 2}``), ``weights``
    by the comma-joined ranking (``"2,0,1"``).
    """

    m: int
    n_voters: int
    trials: int
    seed: int
    per_subset: dict  # empirical P[c(S) = c0(S)]
    min_subset: float
    joint: float
    weights: dict  # sampling probability


#: voter draws per block of trials: a block's uniforms and its tally's indices, 8
#: bytes an entry each, stay near 0.5 MB
_BLOCK_ENTRIES = 1 << 15


def _draw_blocks(
    rng: np.random.Generator, probs: np.ndarray, trials: int, n_voters: int, block: int
):
    """The draws of one ``_categorical(rng, probs, (trials, n_voters))`` call, in
    blocks of ``block`` whole trials.  The blocks take one uniform per entry in
    row order, so they leave ``rng`` where that call does."""
    for start in range(0, trials, block):
        yield _categorical(rng, probs, (min(block, trials - start), n_voters))


def _sampled_agreement(
    rng: np.random.Generator,
    probs: np.ndarray,
    top_table: np.ndarray,
    targets: np.ndarray,
    n_voters: int,
    trials: int,
) -> tuple[list[int], int]:
    """How many of ``trials`` electorates of ``n_voters`` orders drawn with
    ``probs`` have plurality on subset ``s`` pick ``targets[s]``, per subset, and
    on every subset at once.

    With no more orders K than voters, each block's trials are tallied by order
    into one ``(trials, K)`` count table, and subset ``s``'s symbol counts are
    that table times the ``(K, m)`` indicator of each order's top on ``s``.  A
    unique top count names the winner; only the trials whose top count is tied
    are recounted voter by voter, by :func:`plurality_winners` under
    ``first_occurrence``.  With more orders than voters, that recount is made
    for every trial.
    """
    k, m = len(probs), int(top_table.max()) + 1  # each symbol tops its singleton
    # the tally costs K*m multiply-adds a trial and subset against n_voters for a
    # count of tops, and with K <= n_voters it is no larger than the block's draws
    by_tally = k <= n_voters
    if by_tally:
        covers = [(tops[:, None] == np.arange(m)).astype(np.int64) for tops in top_table]
    hits, joint = [0] * len(top_table), 0
    block = max(1, _BLOCK_ENTRIES // n_voters)
    for draws in _draw_blocks(rng, probs, trials, n_voters, block):
        rows = np.arange(len(draws))
        if by_tally:
            tally = np.bincount((draws + k * rows[:, None]).ravel(), minlength=k * len(draws))
            tally = tally.reshape(-1, k)
        every = np.ones(len(draws), dtype=bool)
        for s, tops in enumerate(top_table):
            if by_tally:
                counts = tally @ covers[s]
                winners = counts.argmax(axis=1)
                tied = np.flatnonzero((counts == counts[rows, winners, None]).sum(axis=1) > 1)
                if tied.size:
                    winners[tied] = plurality_winners(tops[draws[tied]], m, "first_occurrence")
            else:
                winners = plurality_winners(tops[draws], m, "first_occurrence")
            agree = winners == targets[s]
            hits[s] += int(np.count_nonzero(agree))
            every &= agree
        joint += int(np.count_nonzero(every))
    return hits, joint


def indeterminacy_experiment(
    c0: ChoiceFunction,
    n_voters: int,
    trials: int,
    seed: int = 0,
    profile: VoterProfile | None = None,
) -> IndeterminacyReport:
    """Sample electorates from the realizing profile's order distribution.

    Each trial draws ``n_voters`` i.i.d. orders with probabilities
    proportional to the realizing profile's weights, then evaluates the
    plurality choice on every nonempty subset.  Reports per-subset agreement
    with ``c0``, the minimum over subsets, and the joint agreement rate.
    With a single voter the outcome law is the top distribution itself, so
    the probabilities are computed in closed form instead of sampled.

    The draws are those of one ``rng.choice`` of shape ``(trials, n_voters)``
    over the rankings in sorted order, made in blocks of whole trials of about
    ``_BLOCK_ENTRIES`` = 32768 voters.  When the K rankings of positive weight
    are no more than the voters, each block is tallied into a count per trial
    and ranking, and a subset's plurality is the unique top count of the
    rankings' tops on it; only trials with a tied top count are recounted
    voter by voter under ``first_occurrence``.  With more rankings than
    voters, every trial is recounted voter by voter.  A block's uniforms and
    tally take at most 32768 entries each, near 0.5 MB, its draws a byte a
    voter (up to 256 rankings), and only per-subset hit counts outlive it, so
    past the ``(2^m - 1, K)`` table of tops the peak does not grow with the
    number of trials: about 2 bytes per drawn voter at 1001 voters and 200
    trials.  That table is :func:`_top_table`'s, as in :func:`saari_search`:
    each ranking's member of least rank on each subset.
    """
    if n_voters < 1 or trials < 1:
        raise DimensionMismatchError("need positive voters and trials")
    if profile is None:
        profile = saari_search(c0)
        if profile is None:
            raise ThresholdLabError("no realizing profile exists for this choice function")
    elif profile.m != c0.m:
        raise DimensionMismatchError(
            f"profile on {profile.m} alternatives, choice function on {c0.m}"
        )
    agg = profile.order_weights()
    rankings = sorted(agg)
    probs = np.array([agg[r] for r in rankings], dtype=float)
    probs /= probs.sum()
    masks = list(nonempty_subsets(c0.m))
    top_table = _top_table(rankings, c0.m)
    targets = np.array([c0.get(mask) for mask in masks])
    if n_voters == 1:
        agree_matrix = top_table == targets[:, None]
        per_subset = {
            str(mask): float(probs[agree_matrix[row]].sum())
            for row, mask in enumerate(masks)
        }
        joint = float(probs[agree_matrix.all(axis=0)].sum())
    else:
        hits, joint = _sampled_agreement(
            np.random.default_rng(seed), probs, top_table, targets, n_voters, trials
        )
        per_subset = {str(mask): h / trials for mask, h in zip(masks, hits)}
        joint /= trials
    return IndeterminacyReport(
        m=c0.m,
        n_voters=n_voters,
        trials=trials,
        seed=seed,
        per_subset=per_subset,
        min_subset=min(per_subset.values()),
        joint=joint,
        weights={",".join(map(str, r)): float(p) for r, p in zip(rankings, probs)},
    )

