import itertools
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_indeterminacy

from threshold_lab import (
    ChoiceFunction,
    DimensionMismatchError,
    InvalidFunctionError,
    LinearOrder,
    TableSizeError,
    ThresholdLabError,
    Tournament,
    VoterProfile,
    indeterminacy_experiment,
    is_rational,
    majority_relation,
    mcgarvey_profile,
    plurality_choice,
    saari_search,
)
from threshold_lab import social_choice
from threshold_lab.core import _categorical
from threshold_lab.social_choice import all_orders, nonempty_subsets, subset_mask, subset_members


def cyclic_choice_m3():
    """Pairwise cycle 0 -> 1 -> 2 -> 0; not rationalizable."""
    choices = {
        0b001: 0, 0b010: 1, 0b100: 2,
        0b011: 0,  # {0,1} -> 0
        0b110: 1,  # {1,2} -> 1
        0b101: 2,  # {0,2} -> 2
        0b111: 0,
    }
    return ChoiceFunction(3, choices)


def _no_orders(m):
    raise AssertionError("built the orders")


def pairwise_margin(profile, a, b):
    margin = 0
    for order, weight in profile.orders:
        margin += weight if order.prefers(a, b) else -weight
    return margin


class TestLinearOrderAndProfile:
    def test_order_validation(self):
        with pytest.raises(DimensionMismatchError):
            LinearOrder(3, (0, 0, 1))

    @pytest.mark.parametrize("value", [1.7, 0.5, float("nan"), float("inf")])
    def test_order_refuses_a_fractional_alternative(self, value):
        # truncated, 1.7 would read as 1 and the ranking as (0, 1); int() of
        # nan or inf raises ValueError or OverflowError of its own
        message = f"alternative {value!r} is not an integer"
        with pytest.raises(DimensionMismatchError, match=message):
            LinearOrder(2, (0.0, value))
        assert LinearOrder(2, (1.0, np.int64(0))).ranking == (1, 0)

    def test_top_of_subset(self):
        order = LinearOrder(4, (2, 0, 3, 1))
        assert order.top_of(subset_mask((0, 1, 3))) == 0

    def test_subset_mask_refuses_a_negative_element(self):
        with pytest.raises(DimensionMismatchError, match="subset element -1 is negative"):
            subset_mask([-1])

    def test_profile_weights(self):
        profile = VoterProfile.from_rankings(2, [(0, 1), (1, 0)], [3, 2])
        assert profile.total_weight == 5
        assert profile.order_weights() == {(0, 1): 3, (1, 0): 2}

    @pytest.mark.parametrize("value", [2.7, 0.5, float("nan"), float("inf")])
    def test_profile_refuses_a_fractional_weight(self, value):
        # 0.5 is refused as fractional, not truncated to a zero weight
        with pytest.raises(DimensionMismatchError, match=f"weight {value!r} is not an integer"):
            VoterProfile.from_rankings(2, [(0, 1)], [value])
        assert VoterProfile.from_rankings(2, [(0, 1)], [2.0]).orders[0][1] == 2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6))
    def test_top_table_is_each_orders_top(self, data, m):
        orders = all_orders(m)
        picked = data.draw(st.permutations(orders))[: data.draw(st.integers(1, len(orders)))]
        table = social_choice._top_table([order.ranking for order in picked], m)
        assert table.dtype == np.min_scalar_type(m - 1)
        assert table.tolist() == [
            [order.top_of(mask) for order in picked] for mask in nonempty_subsets(m)
        ]

    @pytest.mark.parametrize("rankings,weights", [([(0, 1), (1, 0)], [3]), ([(0, 1)], [3, 4])])
    def test_from_rankings_refuses_unequal_lengths(self, rankings, weights):
        message = f"{len(rankings)} rankings but {len(weights)} weights"
        with pytest.raises(DimensionMismatchError, match=message):
            VoterProfile.from_rankings(2, rankings, weights)


class TestChoiceFunction:
    def test_requires_membership(self):
        with pytest.raises(DimensionMismatchError):
            ChoiceFunction(2, {0b01: 0, 0b10: 1, 0b11: 5})

    def test_requires_all_subsets(self):
        with pytest.raises(DimensionMismatchError):
            ChoiceFunction(2, {0b01: 0, 0b10: 1})

    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_an_alternative(self, m):
        with pytest.raises(DimensionMismatchError, match=f"needs m >= 1 alternatives, got {m}"):
            ChoiceFunction(m, {})

    def test_from_order_is_rational(self):
        order = LinearOrder(3, (1, 2, 0))
        c = ChoiceFunction.from_order(order)
        recovered = is_rational(c)
        assert recovered is not None
        assert recovered.ranking == (1, 2, 0)


class TestIsRational:
    def test_cycle_is_not_rational(self):
        assert is_rational(cyclic_choice_m3()) is None

    def test_pair_consistent_but_triple_breaks(self):
        # pairs from the order 0 > 1 > 2 but the full set picks 1
        c = ChoiceFunction(
            3,
            {0b001: 0, 0b010: 1, 0b100: 2, 0b011: 0, 0b110: 1, 0b101: 0, 0b111: 1},
        )
        assert is_rational(c) is None


class TestPluralityChoice:
    def test_single_voter_top(self):
        profile = VoterProfile.from_rankings(3, [(2, 0, 1)])
        assert plurality_choice(profile, (0, 1, 2)) == 2
        assert plurality_choice(profile, (0, 1)) == 0

    def test_one_alternative(self):
        profile = VoterProfile.from_rankings(1, [(0,), (0,)], [2, 3])
        for tie_break in ("first_occurrence", "smallest_index"):
            assert plurality_choice(profile, 1, tie_break) == 0

    def test_three_voters(self):
        profile = VoterProfile.from_rankings(3, [(0, 1, 2), (0, 2, 1), (1, 0, 2)])
        assert plurality_choice(profile, (0, 1)) == 0

    def test_condorcet_cycle_tie_goes_to_first_listed(self):
        profile = VoterProfile.from_rankings(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert plurality_choice(profile, (0, 1, 2)) == 0

    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_cycle_tie_breaks(self, shift):
        # the three voters of a Condorcet cycle each top a different alternative:
        # first occurrence follows the voter listed first, smallest index does not
        cycle = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        profile = VoterProfile.from_rankings(3, cycle[shift:] + cycle[:shift])
        assert plurality_choice(profile, 0b111) == shift
        assert plurality_choice(profile, 0b111, "smallest_index") == 0

    @pytest.mark.parametrize("tie_break", ["first_occurrence", "smallest_index"])
    def test_pairs_agree_with_majority(self, rng, tie_break):
        # on two alternatives plurality is pairwise majority; a tied pair is
        # left undecided by majority_relation and chosen by the tie break
        for _ in range(30):
            m = 4
            rankings = [tuple(rng.permutation(m)) for _ in range(4)]
            profile = VoterProfile.from_rankings(m, rankings, rng.integers(1, 3, size=4))
            beats = majority_relation(profile)
            for a, b in itertools.combinations(range(m), 2):
                winner = plurality_choice(profile, (a, b), tie_break)
                if beats[a, b] or beats[b, a]:
                    assert beats[winner, a + b - winner]
                else:
                    assert winner in (a, b)

    def test_unknown_tie_break_is_invalid_function(self):
        # the same error plurality() raises for the same name
        profile = VoterProfile.from_rankings(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        with pytest.raises(InvalidFunctionError, match="unknown tie break"):
            plurality_choice(profile, 0b111, "bogus")

    def test_weights_act_as_repeated_voters(self, rng):
        for _ in range(40):
            m = 4
            rankings = [tuple(rng.permutation(m)) for _ in range(4)]
            weights = rng.integers(1, 4, size=4).tolist()
            weighted = VoterProfile.from_rankings(m, rankings, weights)
            expanded = VoterProfile.from_rankings(
                m, [r for r, w in zip(rankings, weights) for _ in range(w)]
            )
            mask = int(rng.integers(1, 1 << m))
            for tie_break in ("first_occurrence", "smallest_index"):
                assert plurality_choice(weighted, mask, tie_break) == plurality_choice(
                    expanded, mask, tie_break
                )

    def test_independence_of_rejected_alternatives(self, rng):
        # mutating rankings below the subset tops never changes the outcome
        for _ in range(20):
            m = 4
            rankings = [tuple(rng.permutation(m)) for _ in range(5)]
            profile = VoterProfile.from_rankings(m, rankings)
            mask = int(rng.integers(1, 1 << m))
            outcome = plurality_choice(profile, mask)
            mutated = []
            for r in rankings:
                top = LinearOrder(m, r).top_of(mask)
                rest = [a for a in rng.permutation(m) if a != top]
                mutated.append((top, *rest))
            profile2 = VoterProfile.from_rankings(m, mutated)
            assert plurality_choice(profile2, mask) == outcome

    def test_pareto_membership(self, rng):
        for _ in range(30):
            m = 4
            rankings = [tuple(rng.permutation(m)) for _ in range(6)]
            profile = VoterProfile.from_rankings(m, rankings)
            mask = int(rng.integers(1, 1 << m))
            tops = {LinearOrder(m, r).top_of(mask) for r in rankings}
            assert plurality_choice(profile, mask) in tops

    def test_neutrality_exhaustive_m3(self):
        rankings = [(0, 1, 2), (1, 2, 0), (2, 1, 0), (0, 2, 1)]
        profile = VoterProfile.from_rankings(3, rankings)
        for pi in itertools.permutations(range(3)):
            relabeled = VoterProfile.from_rankings(
                3, [tuple(pi[a] for a in r) for r in rankings]
            )
            for mask in nonempty_subsets(3):
                members = subset_members(mask)
                relabeled_mask = subset_mask(pi[a] for a in members)
                assert plurality_choice(relabeled, relabeled_mask) == pi[
                    plurality_choice(profile, mask)
                ]


class TestMcGarvey:
    def test_two_alternatives(self):
        t = Tournament.from_pairs(2, [(0, 1)])
        profile = mcgarvey_profile(t)
        assert pairwise_margin(profile, 0, 1) > 0

    def test_three_cycle(self):
        t = Tournament.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        profile = mcgarvey_profile(t)
        assert np.array_equal(majority_relation(profile), t.beats)

    def test_margins_are_exactly_two(self):
        t = Tournament.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        profile = mcgarvey_profile(t)
        for a in range(3):
            for b in range(3):
                if t.beats[a, b]:
                    assert pairwise_margin(profile, a, b) == 2

    @pytest.mark.parametrize("loser", [5, -1])
    def test_pairs_outside_the_alternatives_refused(self, loser):
        # unchecked, 5 would index past the matrix and -1 wrap round to alternative 2
        with pytest.raises(DimensionMismatchError, match=f"alternative {loser} outside"):
            Tournament.from_pairs(3, [(0, 1), (1, 2), (2, 0), (0, loser)])

    def test_random_tournaments(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 7))
            t = Tournament.random(m, rng)
            profile = mcgarvey_profile(t)
            assert np.array_equal(majority_relation(profile), t.beats)


class TestMajorityRelation:
    def test_weighted_tie_leaves_both_false(self):
        # 0 and 1 split 3 : 3; 2 loses to both
        profile = VoterProfile.from_rankings(3, [(0, 1, 2), (1, 0, 2), (2, 0, 1)], [2, 3, 1])
        assert majority_relation(profile).tolist() == [
            [False, False, True],
            [False, False, True],
            [False, False, False],
        ]

    def test_weighted_profiles_match_pairwise_counts(self, rng):
        ties = 0
        for _ in range(200):
            m = int(rng.integers(2, 6))
            rankings = [tuple(rng.permutation(m)) for _ in range(int(rng.integers(1, 7)))]
            weights = rng.integers(1, 5, size=len(rankings)).tolist()
            profile = VoterProfile.from_rankings(m, rankings, weights)
            want = np.zeros((m, m), dtype=bool)
            for a, b in itertools.permutations(range(m), 2):
                margin = pairwise_margin(profile, a, b)
                want[a, b] = margin > 0
                ties += margin == 0
            assert np.array_equal(majority_relation(profile), want)
        assert ties > 0  # the draws reach tied pairs


class TestSaariSearch:
    def test_two_alternatives_single_voter(self):
        c = ChoiceFunction(2, {0b01: 0, 0b10: 1, 0b11: 0})
        profile = saari_search(c)
        assert profile is not None
        assert profile.total_weight == 1
        assert profile.orders[0][0].ranking == (0, 1)

    def test_round_trip_from_random_profile(self, rng):
        for _ in range(5):
            rankings = [tuple(rng.permutation(3)) for _ in range(7)]
            profile = VoterProfile.from_rankings(3, rankings)
            choices = {
                mask: plurality_choice(profile, mask) for mask in nonempty_subsets(3)
            }
            c0 = ChoiceFunction(3, choices)
            found = saari_search(c0)
            assert found is not None
            for mask in nonempty_subsets(3):
                assert plurality_choice(found, mask) == c0.get(mask)

    def test_realizes_the_cycle(self):
        profile = saari_search(cyclic_choice_m3())
        assert profile is not None
        for mask in nonempty_subsets(3):
            assert plurality_choice(profile, mask) == cyclic_choice_m3().get(mask)

    def test_rounding_that_breaks_a_margin_is_refused(self, monkeypatch):
        import scipy.optimize

        # one voter, ranking 0 > 1 > 2, cannot realize the cycle
        solution = types.SimpleNamespace(status=0, success=True, message="", x=np.eye(6)[0])
        monkeypatch.setattr(scipy.optimize, "milp", lambda **_: solution)
        with pytest.raises(ThresholdLabError, match="integer rounding broke a strict margin"):
            saari_search(cyclic_choice_m3())

    def test_refuses_nine_alternatives_before_building_an_order(self, monkeypatch):
        monkeypatch.setattr(social_choice, "all_orders", _no_orders)
        c9 = ChoiceFunction.from_order(LinearOrder(9, range(9)))
        with pytest.raises(TableSizeError, match=r"m = 9 tabulates 9! orders' tops"):
            saari_search(c9)
        # m = 8 is inside the cap: it gets as far as building the orders
        with pytest.raises(AssertionError, match="built the orders"):
            saari_search(ChoiceFunction.from_order(LinearOrder(8, range(8))))

    def test_time_limit_ends_the_search(self, monkeypatch):
        # a random choice function on 6 alternatives: unbounded, its search runs for minutes
        rng = np.random.default_rng(1)
        c6 = ChoiceFunction(6, {
            mask: subset_members(mask)[rng.integers(len(subset_members(mask)))]
            for mask in nonempty_subsets(6)
        })
        monkeypatch.setattr(social_choice, "_SAARI_TIME_LIMIT_S", 0.5)
        with pytest.raises(ThresholdLabError, match="m = 6 reached its 0.5 s time limit"):
            saari_search(c6)

    def test_budget_exhaustion_raises(self):
        from threshold_lab.social_choice import SearchBudgetExceededError

        with pytest.raises(SearchBudgetExceededError) as err:
            saari_search(cyclic_choice_m3(), max_profile_size=1)
        assert err.value.minimal_size > 1

    def test_all_choice_functions_m3(self):
        # every assignment on the three pairs and the triple is realizable
        count = 0
        for p01 in (0, 1):
            for p12 in (1, 2):
                for p02 in (0, 2):
                    for triple in (0, 1, 2):
                        c = ChoiceFunction(
                            3,
                            {
                                0b001: 0, 0b010: 1, 0b100: 2,
                                0b011: p01, 0b110: p12, 0b101: p02,
                                0b111: triple,
                            },
                        )
                        profile = saari_search(c)
                        assert profile is not None
                        count += 1
                        for mask in nonempty_subsets(3):
                            assert plurality_choice(profile, mask) == c.get(mask)
        assert count == 24


def test_saari_m4_random_sample_reported(rng):
    # whether the budget ever binds at m = 4 is an experimental outcome;
    # every outcome must either verify or be a typed budget report
    from threshold_lab.social_choice import SearchBudgetExceededError

    realized = 0
    over_budget = 0
    for _ in range(5):
        choices = {}
        for mask in nonempty_subsets(4):
            members = subset_members(mask)
            choices[mask] = int(members[rng.integers(0, len(members))])
        c0 = ChoiceFunction(4, choices)
        try:
            profile = saari_search(c0, max_profile_size=100_000)
        except SearchBudgetExceededError:
            over_budget += 1
            continue
        assert profile is not None
        for mask in nonempty_subsets(4):
            assert plurality_choice(profile, mask) == c0.get(mask)
        realized += 1
    assert realized + over_budget == 5


class TestIndeterminacy:
    # one alternative: every subset's count is the electorate, with no tie
    @pytest.mark.parametrize("ranking", [(2, 0, 1), (0,)])
    def test_concentrated_distribution_always_agrees(self, ranking):
        order = LinearOrder(len(ranking), ranking)
        c0 = ChoiceFunction.from_order(order)
        profile = VoterProfile(order.m, ((order, 5),))
        rep = indeterminacy_experiment(c0, n_voters=9, trials=50, seed=1, profile=profile)
        assert rep.min_subset == 1.0
        assert rep.joint == 1.0

    def test_single_voter_closed_form(self):
        c0 = cyclic_choice_m3()
        profile = saari_search(c0)
        weights = profile.order_weights()
        total = profile.total_weight
        rep = indeterminacy_experiment(c0, n_voters=1, trials=10, seed=3, profile=profile)
        for mask in nonempty_subsets(3):
            closed = sum(
                w for r, w in weights.items()
                if LinearOrder(3, r).top_of(mask) == c0.get(mask)
            ) / total
            assert rep.per_subset[str(mask)] == pytest.approx(closed, abs=1e-12)
        joint_closed = sum(
            w for r, w in weights.items()
            if all(
                LinearOrder(3, r).top_of(mask) == c0.get(mask)
                for mask in nonempty_subsets(3)
            )
        ) / total
        assert rep.joint == pytest.approx(joint_closed, abs=1e-12)

    def test_agreement_improves_with_more_voters(self):
        c0 = cyclic_choice_m3()
        profile = saari_search(c0)
        small = indeterminacy_experiment(c0, 100, 200, seed=5, profile=profile)
        large = indeterminacy_experiment(c0, 10_000, 200, seed=5, profile=profile)
        assert large.min_subset > small.min_subset

    def test_runs_search_when_no_profile_given(self):
        rep = indeterminacy_experiment(cyclic_choice_m3(), 50, 20, seed=2)
        assert 0.0 <= rep.min_subset <= 1.0

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(2, 4), n_voters=st.integers(2, 8),
           trials=st.integers(1, 12), block=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_agrees_with_a_voter_by_voter_recount(self, data, m, n_voters, trials, block, seed):
        # even electorates tie often; blocks of `block` voters hold 1 to 10 trials,
        # so most runs cross a block boundary
        rankings = list(itertools.permutations(range(m)))
        weights = data.draw(
            st.lists(st.integers(0, 3), min_size=len(rankings), max_size=len(rankings)).filter(any)
        )
        profile = VoterProfile.from_rankings(
            m, [r for r, w in zip(rankings, weights) if w], [w for w in weights if w]
        )
        c0 = ChoiceFunction(
            m, {mask: data.draw(st.sampled_from(subset_members(mask))) for mask in nonempty_subsets(m)}
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(social_choice, "_BLOCK_ENTRIES", block)
            rep = indeterminacy_experiment(c0, n_voters, trials, seed=seed, profile=profile)
        drawn = [tuple(map(int, key.split(","))) for key in rep.weights]
        draws = np.random.default_rng(seed).choice(
            len(drawn), size=(trials, n_voters), p=list(rep.weights.values())
        )
        per_subset, joint = brute_indeterminacy(c0, drawn, draws)
        assert rep.per_subset == per_subset
        assert rep.joint == joint
        assert rep.min_subset == min(per_subset.values())

    @pytest.mark.parametrize("block, trials, n_voters", [(2, 10, 3), (1, 4, 5), (5, 9, 11), (4, 3, 40)])
    def test_blocks_draw_as_one_call(self, block, trials, n_voters):
        probs = np.array([0.5, 0.0, 0.2, 0.3])
        rng, whole = np.random.default_rng(4), np.random.default_rng(4)
        blocks = list(social_choice._draw_blocks(rng, probs, trials, n_voters, block))
        expected = _categorical(whole, probs, (trials, n_voters))
        assert [len(draws) for draws in blocks[:-1]] == [block] * (len(blocks) - 1)
        np.testing.assert_array_equal(np.concatenate(blocks), expected)
        assert rng.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("n_voters, trials, bound", [
        (1001, 200, 4 * 1001 * 200),  # bytes per drawn entry
        (10_000, 200, 8_000_000),  # the README example
    ])
    def test_peak_memory(self, n_voters, trials, bound):
        c0 = cyclic_choice_m3()
        profile = saari_search(c0)
        indeterminacy_experiment(c0, n_voters, 2, seed=1, profile=profile)
        tracemalloc.start()
        try:
            indeterminacy_experiment(c0, n_voters, trials, seed=1, profile=profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_peak_memory_with_more_orders_than_voters(self):
        # all 720 orders of 6 alternatives and 3 voters: a (trials, 720) tally
        # of a block would take tens of MB
        profile = VoterProfile.from_rankings(6, list(itertools.permutations(range(6))))
        c0 = ChoiceFunction.from_order(LinearOrder(6, tuple(range(6))))
        indeterminacy_experiment(c0, 3, 2, seed=1, profile=profile)
        tracemalloc.start()
        try:
            indeterminacy_experiment(c0, 3, 20_000, seed=1, profile=profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_500_000

    @pytest.mark.parametrize("m", [2, 4])
    def test_refuses_a_profile_on_other_alternatives(self, m):
        c0 = ChoiceFunction.from_order(LinearOrder(3, (0, 1, 2)))
        profile = VoterProfile.from_rankings(m, [tuple(range(m))])
        message = f"profile on {m} alternatives, choice function on 3"
        with pytest.raises(DimensionMismatchError, match=message):
            indeterminacy_experiment(c0, 5, 5, profile=profile)


_TWO = VoterProfile.from_rankings(2, [(0, 1)])

#: each rule on a subset of the two alternatives of ``_TWO``
_SUBSET_RULES = {
    "plurality": lambda subset: plurality_choice(_TWO, subset),
    "choice_function": lambda subset: ChoiceFunction(2, {1: 0, 2: 1, 3: 0}).get(subset),
    "top_of": lambda subset: LinearOrder(2, (1, 0)).top_of(subset),
}


class TestSubsetsOfTheAlternatives:
    """Every rule reads a nonempty subset of ``[0, m)`` and refuses any other."""

    @pytest.mark.parametrize("rule", _SUBSET_RULES)
    @pytest.mark.parametrize("subset", [0, (), 4, 8, 12, -1, (0, 2), np.uint8(8)])
    def test_refuses_a_subset_outside_the_alternatives(self, rule, subset):
        with pytest.raises(
            DimensionMismatchError, match=r"is not a nonempty subset of the alternatives \[0, 2\)"
        ):
            _SUBSET_RULES[rule](subset)

    @pytest.mark.parametrize("rule", _SUBSET_RULES)
    def test_refuses_a_negative_member(self, rule):
        with pytest.raises(DimensionMismatchError, match="subset element -1 is negative"):
            _SUBSET_RULES[rule]((0, -1))


@pytest.mark.parametrize("np_int", [np.int64, np.uint8])
def test_numpy_integer_masks_choose_as_int_masks(rng, np_int):
    c = ChoiceFunction.from_order(LinearOrder(4, (2, 0, 3, 1)))
    for _ in range(10):
        profile = VoterProfile.from_rankings(
            4, [tuple(rng.permutation(4)) for _ in range(5)], rng.integers(1, 4, size=5)
        )
        for mask in nonempty_subsets(4):
            assert c.get(np_int(mask)) == c.get(mask)
            assert plurality_choice(profile, np_int(mask)) == plurality_choice(profile, mask)
            assert c.get(np_int(mask)) == LinearOrder(4, (2, 0, 3, 1)).top_of(np_int(mask))


@settings(max_examples=100)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=24
    ).filter(lambda w: sum(w) > 0),
    trials=st.integers(1, 30),
    voters=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_order_draws_are_rng_choice_bitwise(weights, trials, voters, seed):
    # indeterminacy_experiment draws its orders from a weight vector of up to m! entries
    probs = np.array(weights) / sum(weights)
    got = _categorical(np.random.default_rng(seed), probs, (trials, voters))
    want = np.random.default_rng(seed).choice(len(probs), size=(trials, voters), p=probs)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
