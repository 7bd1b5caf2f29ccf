import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    CheckResult,
    DimensionMismatchError,
    InvalidFunctionError,
    ProductMeasure,
    QaryFunction,
    SymmetryGroup,
    check_fair,
    check_monotone,
    check_symmetric,
    check_zero_monotone,
    dictator,
    fileio,
    graph_property,
    leq_a,
    plurality,
    prob_value,
)
from threshold_lab import checks, core
from threshold_lab.checks import _cover_violation
from threshold_lab.cli import main
from threshold_lab.core import _Histogram, _swap_and_cycle, index_of
from threshold_lab.families import vertex_action_generators

from oracles import (
    brute_monotone,
    enum_cover_violation,
    enum_histogram,
    enum_prob,
    full_slab_cover_violation,
    ix_relabel,
    points,
    random_positive_measure,
)


def reverify_monotone_witness(f, witness):
    a = witness["a"]
    assert leq_a(witness["x"], witness["y"], a)
    assert f(witness["x"]) == a and f(witness["y"]) != a


class TestLeqA:
    def test_reflexive_on_examples(self):
        assert leq_a((1, 2), (1, 2), 0)

    def test_single_change_to_anchor(self):
        assert leq_a((1, 2), (0, 2), 0)

    def test_change_to_non_anchor_fails(self):
        assert not leq_a((1, 2), (0, 1), 0)

    @settings(max_examples=200)
    @given(st.integers(2, 3), st.integers(1, 5), st.integers(0, 2**31), st.integers(0, 2))
    def test_partial_order_axioms(self, q, n, seed, a):
        a = a % q
        rng = np.random.default_rng(seed)
        x, y, z = (tuple(rng.integers(0, q, size=n)) for _ in range(3))
        # reflexivity
        assert leq_a(x, x, a)
        # antisymmetry
        if leq_a(x, y, a) and leq_a(y, x, a):
            assert x == y
        # transitivity
        if leq_a(x, y, a) and leq_a(y, z, a):
            assert leq_a(x, z, a)


class TestCheckMonotone:
    def test_dictator_passes(self):
        assert check_monotone(dictator(3, 3, 1).tabulate()).passed

    @pytest.mark.parametrize("tie_break", ["first_occurrence", "smallest_index"])
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (3, 4)])
    def test_plurality_passes(self, q, n, tie_break):
        assert check_monotone(plurality(q, n, tie_break).tabulate()).passed

    def test_anti_plurality_fails_with_witness(self):
        # least popular symbol wins, q=2 n=3: minority rule
        pts = itertools.product((0, 1), repeat=3)
        f = QaryFunction.from_table(2, 3, [1 if x.count(0) >= 2 else 0 for x in pts])
        result = check_monotone(f)
        assert not result.passed
        reverify_monotone_witness(f, result.witness)

    def test_cover_check_equals_brute_force(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            f = QaryFunction.from_table(q, n, rng.integers(0, q, size=q**n))
            assert check_monotone(f).passed == brute_monotone(f)

    @settings(max_examples=60)
    @given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2**31), st.booleans())
    def test_cover_witness_equals_enumeration(self, q, n, seed, from_plurality):
        rng = np.random.default_rng(seed)
        if from_plurality:
            # one flipped entry breaks monotonicity near a single point
            table = plurality(q, n).tabulate().table.copy()
            k = int(rng.integers(q**n))
            table[k] = (table[k] + rng.integers(1, q)) % q
        else:
            table = rng.integers(0, q, size=q**n)
        for a in range(q):
            assert _cover_violation(table, q, n, [a], False) == enum_cover_violation(
                table, q, n, a, False
            )
            indicator = (table == a).astype(np.int64)
            assert _cover_violation(indicator, q, n, [a], True) == enum_cover_violation(
                indicator, q, n, a, True
            )


    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 7), st.integers(0, 2**31), st.booleans())
    def test_slabs_off_the_anchor_equal_the_full_view(self, q, n, seed, from_plurality):
        # verdicts and witnesses of both predicates as the whole-view AND gave them,
        # and check_monotone's as its loop over every anchor gave them
        rng = np.random.default_rng(seed)
        if from_plurality:
            table = plurality(q, n).tabulate().table.copy()
            flips = rng.integers(q**n, size=int(rng.integers(0, 3)))
            table[flips] = (table[flips] + rng.integers(1, q, size=len(flips))) % q
        else:
            table = rng.integers(0, q, size=q**n)
        witnesses = []
        for a in range(q):
            witness = full_slab_cover_violation(table, q, n, a, False)
            assert _cover_violation(table, q, n, [a], False) == witness
            witnesses.append(witness)
            indicator = (table == a).astype(np.int64)
            assert _cover_violation(indicator, q, n, [a], True) == full_slab_cover_violation(
                indicator, q, n, a, True
            )
        first = next((w for w in witnesses if w is not None), None)
        result = check_monotone(QaryFunction.from_table(q, n, table))
        assert (result.passed, result.witness) == (first is None, first)


class TestCheckZeroMonotone:
    def test_plurality_indicator_reduction(self):
        # relabeling a symbol to 0 turns value-a monotonicity into 0-monotonicity
        from threshold_lab import permute_input_symbols

        f = plurality(3, 3).tabulate()
        assert check_monotone(f).passed
        for a in range(3):
            swap = list(range(3))
            swap[0], swap[a] = swap[a], swap[0]
            relabeled = permute_input_symbols(f, swap)
            ind = relabeled.indicator(swap[0] if a == 0 else a)
            # f(swap(x)) = a iff relabeled hits a; anchor is now symbol 0
            ind_tab = QaryFunction.from_table(
                3, 3, (permute_input_symbols(f, swap).table == a).astype(float),
                codomain="real",
            )
            assert check_zero_monotone(ind_tab).passed

    def test_constant_passes(self):
        f = QaryFunction.from_table(2, 2, [0.0] * 4, codomain="real")
        assert check_zero_monotone(f).passed

    def test_real_table_witness_holds_ints(self, tmp_path, capsys):
        # 1[x_0 != 0] on [3]**3 as a real table: the witness reads the float table
        # itself, and its values print as the int64 copy it once read printed them
        values = [float(x[0] != 0) for x in itertools.product(range(3), repeat=3)]
        f = QaryFunction.from_table(3, 3, values, codomain="real")
        witness = check_zero_monotone(f).witness
        assert witness["f_x"] == 1 and type(witness["f_x"]) is int
        assert witness["f_y"] == 0 and type(witness["f_y"]) is int
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        assert main(["check", "--function", path]) == 0
        out = capsys.readouterr().out
        digest = "91d56a874944ea802c8fedfb7fb54ded353a9049646e6673c377dd4d48f3e54d"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_anti_dictator_fails(self):
        # 1[x0 != 0]
        f = QaryFunction.from_table(2, 2, [0.0, 0.0, 1.0, 1.0], codomain="real")
        result = check_zero_monotone(f)
        assert not result.passed
        w = result.witness
        assert leq_a(w["x"], w["y"], 0)
        assert f(w["x"]) == 1.0 and f(w["y"]) == 0.0

    def test_rejects_non_binary(self):
        f = QaryFunction.from_table(2, 1, [0.0, 2.0], codomain="real")
        with pytest.raises(InvalidFunctionError):
            check_zero_monotone(f)


class TestCheckSymmetric:
    def test_count_based_plurality_is_anonymous(self):
        f = plurality(3, 4, "smallest_index").tabulate()
        result = check_symmetric(f, SymmetryGroup.full_symmetric(4))
        assert result.passed
        assert result.group_transitive

    def test_tie_free_plurality_is_anonymous(self):
        # q=2 with odd n never ties, so the tie break is irrelevant
        f = plurality(2, 3).tabulate()
        assert check_symmetric(f, SymmetryGroup.full_symmetric(3)).passed

    def test_first_occurrence_breaks_anonymity_at_ties(self):
        # the sequence-sensitive tie break trades anonymity for fairness
        f = plurality(2, 4).tabulate()
        result = check_symmetric(f, SymmetryGroup.full_symmetric(4))
        assert not result.passed

    def test_dictator_fails_under_cyclic_group(self):
        f = dictator(2, 3, 0).tabulate()
        result = check_symmetric(f, SymmetryGroup.cyclic(3))
        assert not result.passed
        w = result.witness
        sigma = w["permutation"]
        x = w["x"]
        permuted = [x[sigma[i]] for i in range(3)]
        assert f(permuted) != f(x)

    def test_witness_on_rotated_bits(self):
        # x = (0,1,1) changes value under rotation for the first-bit dictator
        f = dictator(2, 3, 0).tabulate()
        sigma = [1, 2, 0]
        x = (0, 1, 1)
        assert f([x[s] for s in sigma]) != f(x)

    def test_graph_property_under_vertex_action(self):
        f = graph_property(4, 2, "most_popular_color").tabulate()
        group = SymmetryGroup(f.n, tuple(vertex_action_generators(4)))
        result = check_symmetric(f, group)
        assert result.passed
        assert result.group_transitive

    def test_transitivity_checker(self):
        assert SymmetryGroup.cyclic(5).is_transitive()
        assert SymmetryGroup.full_symmetric(4).is_transitive()
        # the identity alone is not transitive for n >= 2
        assert not SymmetryGroup(3, (list(range(3)),)).is_transitive()

    @pytest.mark.parametrize("build", [SymmetryGroup.cyclic, SymmetryGroup.full_symmetric])
    def test_no_group_on_zero_coordinates(self, build):
        # an empty permutation passes the permutation check, and is_transitive indexes past it
        with pytest.raises(DimensionMismatchError, match="n >= 1"):
            build(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_cyclic_generator_is_the_shift(self, n):
        [g] = SymmetryGroup.cyclic(n).generators
        assert g.tolist() == [(j + 1) % n for j in range(n)]

    def test_transitivity_is_the_orbit_over_the_whole_group(self):
        # brute force on random small generator sets: every element of the
        # generated group, by composing generators, then the images of 0
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            gens = [rng.permutation(n).tolist() for _ in range(rng.integers(0, 4))]
            group = {tuple(range(n))}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for g in gens:
                    h = tuple(g[j] for j in p)
                    if h not in group:
                        group.add(h)
                        frontier.append(h)
            orbit = {p[0] for p in group}
            assert SymmetryGroup(n, tuple(gens)).is_transitive() == (len(orbit) == n), gens

    @pytest.mark.parametrize(
        "table,witness",
        [
            ([0, 0, 1, 1], {"permutation": [1, 0], "x": [0, 1], "f_x": 0, "f_x_sigma": 1}),
            ([0, 1, 1, 1], None),
            ([1, 0, 1, 1], {"permutation": [1, 0], "x": [0, 1], "f_x": 0, "f_x_sigma": 1}),
        ],
    )
    def test_two_coordinates_need_one_generator(self, table, witness):
        # at n = 2 the transposition is the 2-cycle: listing it twice changes nothing
        f = QaryFunction.from_table(2, 2, table)
        group = SymmetryGroup.full_symmetric(2)
        assert [g.tolist() for g in group.generators] == [[1, 0]]
        result = check_symmetric(f, group)
        assert result == check_symmetric(f, SymmetryGroup(2, ([1, 0], [1, 0])))
        assert result.witness == witness and result.group_transitive

    @pytest.mark.parametrize("kind", ["most_popular_color", "max_clique_color",
                                      "min_independent_set_color"])
    def test_one_edge_graph_needs_one_generator(self, kind):
        f = graph_property(2, 3, kind).tabulate()
        gens = vertex_action_generators(2)
        assert [g.tolist() for g in gens] == [[0]]
        result = check_symmetric(f, SymmetryGroup(f.n, tuple(gens)))
        assert result == check_symmetric(f, SymmetryGroup(f.n, ([0], [0])))
        assert result.passed and result.group_transitive

    def test_one_vertex_graph_has_no_edges_to_permute(self):
        assert [g.tolist() for g in vertex_action_generators(1)] == [[]]
        with pytest.raises(DimensionMismatchError):
            SymmetryGroup(1, tuple(vertex_action_generators(1)))


class TestCheckFair:
    def test_dictator_passes(self):
        assert check_fair(dictator(3, 2, 1).tabulate()).passed

    def test_smallest_index_plurality_fails_at_tie(self):
        f = plurality(2, 2, "smallest_index").tabulate()
        result = check_fair(f)
        assert not result.passed
        w = result.witness
        assert w["x"] == [0, 1]
        pi = w["symbol_permutation"]
        x = w["x"]
        assert f([pi[v] for v in x]) != pi[f(x)]

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 3), (3, 4)])
    def test_first_occurrence_plurality_passes(self, q, n):
        assert check_fair(plurality(q, n).tabulate()).passed

    def test_fair_functions_have_uniform_outcome_probabilities(self):
        mu = ProductMeasure.uniform(3)
        f = plurality(3, 4).tabulate()
        assert check_fair(f).passed
        for a in range(3):
            assert prob_value(f, mu, a) == pytest.approx(1 / 3, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_binary_witness_from_the_ix_relabelling(self, n, rng):
        # a fair table with one entry flipped fails at the first index whose
        # mirror image 2**n - 1 - index disagrees
        f = dictator(2, n, n // 2).tabulate()
        table = f.table.copy()
        table[rng.integers(table.size)] ^= 1
        result = check_fair(QaryFunction.from_table(2, n, table))
        swap = np.array([1, 0])
        relabeled = ix_relabel(table, 2, n, swap)
        bad = np.flatnonzero(relabeled != swap[table])
        assert not result.passed
        assert result.witness == {
            "symbol_permutation": [1, 0],
            "x": [int(v) for v in np.unravel_index(bad[0], (2,) * n)],
            "f_pi_x": int(relabeled[bad[0]]),
            "pi_f_x": int(swap[table[bad[0]]]),
        }

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_witness_from_the_ix_relabelling(self, q, rng):
        for n in range(1, 5):
            f = QaryFunction.from_table(q, n, rng.integers(0, q, size=q**n))
            result = check_fair(f)
            for pi in _swap_and_cycle(q):
                bad = np.flatnonzero(ix_relabel(f.table, q, n, pi) != pi[f.table])
                if bad.size:
                    break
            assert result.passed == (bad.size == 0)
            if not result.passed:
                w = result.witness
                assert w["symbol_permutation"] == pi.tolist()
                assert index_of(w["x"], q) == bad[0]
                assert w["f_pi_x"] == ix_relabel(f.table, q, n, pi)[bad[0]]


def _enum_symmetry_violation(table, q, n, sigma):
    """First ``x`` in index order with ``f(x_sigma) != f(x)``, by enumeration."""
    pts = list(points(q, n))
    position = {x: k for k, x in enumerate(pts)}
    for k, x in enumerate(pts):
        f_x_sigma = table[position[tuple(x[s] for s in sigma)]]
        if f_x_sigma != table[k]:
            return {"permutation": list(sigma), "x": list(x), "f_x": table[k], "f_x_sigma": f_x_sigma}
    return None


class TestNarrowTables:
    """Alphabet tables are stored in one or two bytes per entry; every check and
    every probability reads them as the enumeration reads the int64 values."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.6, 0.95, 1.0]),
        st.sampled_from([None, 256, 300]),
    )
    def test_checks_and_probabilities_match_the_enumeration(self, q, n, seed, zeros, out_q):
        rng = np.random.default_rng(seed)
        symbols = out_q or q
        values = rng.integers(0, symbols, size=q**n)
        values[rng.random(q**n) < zeros] = 0
        f = QaryFunction.from_table(q, n, values, out_q=out_q)
        assert f.table.dtype == (np.uint16 if symbols > 256 else np.uint8)
        wide = values.tolist()
        if out_q is None:
            anchors = range(1 if q == 2 else q)
            violations = (enum_cover_violation(values, q, n, a, False) for a in anchors)
            first = next((w for w in violations if w is not None), None)
            assert check_monotone(f) == CheckResult(first is None, first)
            fair = CheckResult(True)
            for pi in _swap_and_cycle(q):
                relabeled = ix_relabel(values, q, n, pi)
                bad = np.flatnonzero(relabeled != pi[values])
                if bad.size:
                    x = [int(v) for v in np.unravel_index(bad[0], (q,) * n)]
                    fair = CheckResult(False, {
                        "symbol_permutation": pi.tolist(), "x": x,
                        "f_pi_x": int(relabeled[bad[0]]), "pi_f_x": int(pi[values[bad[0]]]),
                    })
                    break
            assert check_fair(f) == fair
        else:
            for check in (check_monotone, check_fair):
                with pytest.raises(InvalidFunctionError):
                    check(f)
        group = SymmetryGroup.full_symmetric(n)
        violations = (_enum_symmetry_violation(wide, q, n, g.tolist()) for g in group.generators)
        first = next((w for w in violations if w is not None), None)
        result = check_symmetric(f, group)
        assert (result.passed, result.witness) == (first is None, first)
        mu = random_positive_measure(q, rng)
        for a in {0, symbols - 1, *np.unique(values[:3]).tolist()}:
            law = _Histogram(f.table == a, q, n)
            got = {tuple(s): int(c) for s, c in zip(law.symbols.tolist(), law.counts)}
            assert got == enum_histogram(values, q, n, a)
            assert abs(prob_value(f, mu, a) - enum_prob(f, mu, a)) <= 1e-14

    def test_tabulate_and_check_fair_hold_one_and_two_bytes_per_entry(self, monkeypatch):
        # blocks of 1024 points keep the point buffer at 16 KiB; an int64 table
        # alone would take 8 bytes per entry
        monkeypatch.setattr(core, "_TABULATE_COORDS", 16 * 1024)
        f = plurality(2, 16)
        size = f.q**f.n
        tracemalloc.start()
        try:
            tab = f.tabulate()
            _, built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            result = check_fair(tab)
            _, checked = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed
        # the one-byte table, the point buffer and the batch's work on one block
        assert built <= size + (48 << 10)
        # check_fair's relabeled table and its mask, one byte per entry each
        assert checked - held <= 2 * size + (4 << 10)


#: Sizes at which the cover check reads its last coordinates on the rotated copy
#: (q**n of at least 64 entries up to q**L, and up to 2**14 beyond it).
ROTATED_SIZES = st.one_of(
    st.tuples(st.just(2), st.integers(7, 14)),
    st.tuples(st.just(3), st.integers(4, 9)),
    st.tuples(st.just(4), st.integers(3, 6)),
)


def _ix_fair_result(values, q, n):
    """check_fair's result from the ``np.ix_`` relabelling, as the enumeration reads it."""
    for pi in _swap_and_cycle(q):
        relabeled = ix_relabel(values, q, n, pi)
        bad = np.flatnonzero(relabeled != pi[values])
        if bad.size:
            x = [int(v) for v in np.unravel_index(bad[0], (q,) * n)]
            return CheckResult(False, {
                "symbol_permutation": pi.tolist(), "x": x,
                "f_pi_x": int(relabeled[bad[0]]), "pi_f_x": int(pi[values[bad[0]]]),
            })
    return CheckResult(True)


class TestLongRuns:
    """The cover check and check_fair at the sizes where their passes read the
    table in long runs: the last coordinates on a rotated copy, input symbols
    relabelled axis by axis."""

    @settings(max_examples=60, deadline=None)
    @given(ROTATED_SIZES, st.integers(0, 2**31), st.integers(1, 6), st.booleans())
    def test_flips_in_the_last_coordinates(self, size, seed, depth, tiled):
        # a table of the last `depth` coordinates alone breaks covers only there;
        # a flipped plurality table breaks them wherever its flips reach
        q, n = size
        rng = np.random.default_rng(seed)
        depth = min(depth, n)
        if tiled:
            table = np.tile(rng.integers(0, q, size=q**depth), q ** (n - depth))
        else:
            table = plurality(q, n).tabulate().table.copy()
            flips = q**n - 1 - rng.integers(q**depth, size=int(rng.integers(1, 4)))
            table[flips] = (table[flips] + rng.integers(1, q, size=len(flips))) % q
        witnesses = []
        for a in range(q):
            witness = full_slab_cover_violation(table, q, n, a, False)
            assert _cover_violation(table, q, n, [a], False) == witness
            witnesses.append(witness)
            indicator = (table == a).astype(np.int64)
            assert _cover_violation(indicator, q, n, [a], True) == full_slab_cover_violation(
                indicator, q, n, a, True
            )
        first = next((w for w in witnesses if w is not None), None)
        assert _cover_violation(table, q, n, range(q), False) == first
        assert check_fair(QaryFunction.from_table(q, n, table)) == _ix_fair_result(table, q, n)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_fair_maps_outputs_across_blocks(self, monkeypatch, block, rng):
        # a flipped entry anywhere: the first failing index lies in any block
        monkeypatch.setattr(checks, "_MAP_BLOCK", block)
        for q in (3, 4):
            for n in range(1, 5):
                table = plurality(q, n).tabulate().table.copy()
                k = rng.integers(q**n)
                table[k] = (table[k] + 1) % q
                f = QaryFunction.from_table(q, n, table)
                assert check_fair(f) == _ix_fair_result(table, q, n)

    @pytest.mark.parametrize("check", [check_monotone, check_zero_monotone])
    def test_cover_check_holds_at_most_3_3_bytes_per_entry(self, check):
        # the mask, its rotated copy (or the table's) and a spare of 1/q byte per entry
        f = plurality(2, 16).tabulate()
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            check(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 3.3 * f.table.size

    def test_check_fair_holds_at_most_4_bytes_per_entry_at_q3(self):
        # two one-byte tables while relabelling, then one and a block of the map
        f = plurality(3, 10).tabulate()
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            result = check_fair(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak - held <= 4 * f.table.size

    @pytest.mark.parametrize("q", [256, 300])
    def test_fair_at_the_widest_alphabets(self, q):
        # one-byte symbols up to 256, two-byte past it: no map wraps around
        f = dictator(q, 2, 1).tabulate()
        assert f.table.dtype == (np.uint8 if q == 256 else np.uint16)
        assert check_fair(f).passed
        table = f.table.copy()
        table[[5, -1]] = [3, 0]
        g = QaryFunction.from_table(q, 2, table)
        assert check_fair(g) == _ix_fair_result(table.astype(np.int64), q, 2)
        assert not check_fair(g).passed
