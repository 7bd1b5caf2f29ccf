import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    ChoiceFunction,
    DimensionMismatchError,
    InvalidFunctionError,
    ProductMeasure,
    QaryFunction,
    Tournament,
    VoterProfile,
    antisym_majority,
    dictator,
    efron_stein,
    graph_property,
    plurality,
    recursive_plurality,
    scan_path,
)
from threshold_lab import fileio
from threshold_lab.core import all_points
from threshold_lab.families import ORACLE_BUILDERS, _builder_parameters


class TestFunctionFiles:
    def test_table_round_trip(self, tmp_path, rng):
        f = QaryFunction.from_table(3, 2, rng.integers(0, 3, size=9))
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        g = fileio.load_function(path)
        assert g.q == f.q and g.n == f.n and g.codomain == f.codomain
        assert np.array_equal(g.table, f.table)

    def test_real_table_round_trip(self, tmp_path, rng):
        f = QaryFunction.from_table(2, 3, rng.standard_normal(8), codomain="real")
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        g = fileio.load_function(path)
        assert np.array_equal(g.table, f.table)

    def test_oracle_round_trip(self, tmp_path):
        f = plurality(3, 501)
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        g = fileio.load_function(path)
        assert g.oracle.name == "plurality"
        assert g.n == 501
        x = np.zeros(501, dtype=int)
        assert g(x.tolist()) == 0

    def test_missing_field(self):
        with pytest.raises(fileio.FileFormatError):
            fileio.function_from_dict({"q": 2})

    @pytest.mark.parametrize("f", [
        plurality(3, 5),
        recursive_plurality(2, 3, 2),
        graph_property(4, 2, "most_popular_color"),
        antisym_majority(3),
        dictator(3, 4, 2),
    ], ids=lambda f: f.oracle.name)
    def test_oracle_sizes_checked(self, f):
        doc = fileio.function_to_dict(f)
        g = fileio.function_from_dict(doc)
        assert (g.q, g.n) == (f.q, f.n)
        for field, wrong in (("q", f.q + 1), ("n", f.n + 1)):
            with pytest.raises(fileio.FileFormatError):
                fileio.function_from_dict({**doc, field: wrong})


FAMILY_INSTANCES = [
    plurality(3, 5),
    plurality(4, 6, "smallest_index"),
    recursive_plurality(2, 3, 2),
    recursive_plurality(3, 2, 2, "smallest_index"),
    *(graph_property(4, 2, kind) for kind in ("most_popular_color", "max_clique_color",
                                              "min_independent_set_color")),
    antisym_majority(3),
    dictator(3, 4),
    dictator(3, 4, 2),
]


class TestOracleParams:
    @pytest.mark.parametrize(
        "f", FAMILY_INSTANCES, ids=lambda f: "-".join(map(str, f.oracle.params.values()))
    )
    def test_every_family_round_trips(self, f):
        doc = json.loads(fileio.dumps(fileio.function_to_dict(f)))
        g = fileio.function_from_dict(doc)
        assert g.oracle.name == f.oracle.name and g.oracle.params == f.oracle.params
        assert (g.q, g.n, g.codomain, g.out_q) == (f.q, f.n, f.codomain, f.out_q)
        points = all_points(f.q, f.n)
        assert np.array_equal(g.batch(points), f.batch(points))

    @pytest.mark.parametrize(
        "name, params, unknown",
        [
            ("plurality", {"q": 3, "n": 5, "tiebreak": "smallest_index"}, "tiebreak"),
            ("dictator", {"q": 3, "n": 5, "tie_break": "smallest_index"}, "tie_break"),
            ("antisym_majority", {"n": 3, "q": 2}, "q"),
        ],
    )
    def test_unknown_parameter_refused(self, name, params, unknown):
        doc = {"schema": fileio.FUNCTION_SCHEMA, "oracle": name, "params": params}
        with pytest.raises(InvalidFunctionError) as info:
            fileio.function_from_dict(doc)
        assert str(info.value) == f"oracle family {name!r} takes no parameter {unknown!r}"

    def test_numeric_string_parameter_refused(self):
        doc = {"schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
               "params": {"q": "3", "n": 5}}
        with pytest.raises(fileio.FileFormatError, match="malformed field") as info:
            fileio.function_from_dict(doc)
        assert "params.q must be an integer, got '3'" in str(info.value)

    @pytest.mark.parametrize("name", sorted(ORACLE_BUILDERS))
    def test_every_builder_parameter_is_int_or_str(self, name):
        # function_from_dict reads a parameter as an integer exactly when its
        # builder's annotation is ``int``
        annotations = {p.annotation for p in _builder_parameters(name).values()}
        assert annotations <= {int, str}


class TestMeasureFiles:
    def test_round_trip(self, tmp_path):
        mu = ProductMeasure(3, [0.2, 0.5, 0.3])
        path = str(tmp_path / "mu.json")
        fileio.save_measure(mu, path)
        again = fileio.load_measure(path)
        assert np.array_equal(again.atoms, mu.atoms)


class TestProfileAndChoiceFiles:
    def test_profile_round_trip(self, tmp_path):
        profile = VoterProfile.from_rankings(3, [(0, 1, 2), (2, 1, 0)], [2, 5])
        path = str(tmp_path / "p.json")
        fileio.save_profile(profile, path)
        again = fileio.load_profile(path)
        assert again.m == 3
        assert again.orders[0][0].ranking == (0, 1, 2)
        assert again.orders[1][1] == 5

    def test_choice_round_trip(self, tmp_path):
        c = ChoiceFunction(2, {0b01: 0, 0b10: 1, 0b11: 1})
        path = str(tmp_path / "c.json")
        fileio.save_choice_function(c, path)
        again = fileio.load_choice_function(path)
        assert again.choices == c.choices

    def test_tournament_round_trip(self, tmp_path):
        t = Tournament.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        path = str(tmp_path / "t.json")
        fileio.save_tournament(t, path)
        again = fileio.load_tournament(path)
        assert np.array_equal(again.beats, t.beats)


class TestSchemaValidation:
    LOADERS = [
        (fileio.function_from_dict, fileio.FUNCTION_SCHEMA),
        (fileio.measure_from_dict, fileio.MEASURE_SCHEMA),
        (fileio.profile_from_dict, fileio.PROFILE_SCHEMA),
        (fileio.choice_function_from_dict, fileio.CHOICE_SCHEMA),
        (fileio.tournament_from_dict, fileio.TOURNAMENT_SCHEMA),
    ]

    # each maps the loader's own schema to a document it must refuse
    BAD_DOCS = {
        "missing": lambda schema: {"q": 2, "m": 2},
        "wrong-version": lambda schema: {"schema": schema.replace("/v1", "/v9"), "q": 2, "m": 2},
        "wrong-type": lambda schema: {"schema": fileio.CURVE_SCHEMA, "q": 2, "m": 2},
        "not-an-object": lambda schema: [0.5, 0.5],
    }

    @pytest.mark.parametrize("loader, schema", LOADERS)
    @pytest.mark.parametrize("bad", BAD_DOCS)
    def test_missing_or_unknown_schema(self, loader, schema, bad):
        with pytest.raises(fileio.FileFormatError, match="schema"):
            loader(self.BAD_DOCS[bad](schema))

    MISSING_FIELD = {
        fileio.FUNCTION_SCHEMA: "function document missing field 'q'",
        fileio.MEASURE_SCHEMA: "measure document missing field 'q'",
        fileio.PROFILE_SCHEMA: "profile document missing field 'm'",
        fileio.CHOICE_SCHEMA: "choice document missing field 'm'",
        fileio.TOURNAMENT_SCHEMA: "tournament document missing field 'm'",
    }

    @pytest.mark.parametrize("loader, schema", LOADERS)
    def test_missing_field(self, loader, schema):
        with pytest.raises(fileio.FileFormatError, match="missing field") as info:
            loader({"schema": schema})
        assert str(info.value) == self.MISSING_FIELD[schema]

    @pytest.mark.parametrize(
        "loader, doc",
        [
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1,
                                         "table": "ab"}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "q": "two", "n": 1,
                                         "table": [0, 1]}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
                                         "params": {"q": "three", "n": 3}}),
            (fileio.measure_from_dict, {"schema": fileio.MEASURE_SCHEMA, "q": None,
                                        "atoms": [0.5, 0.5]}),
            (fileio.measure_from_dict, {"schema": fileio.MEASURE_SCHEMA, "q": 2,
                                        "atoms": ["a", 0.5]}),
            (fileio.profile_from_dict, {"schema": fileio.PROFILE_SCHEMA, "m": 2,
                                        "orders": [{"ranking": [0, "b"]}]}),
            (fileio.choice_function_from_dict, {"schema": fileio.CHOICE_SCHEMA, "m": 2,
                                                "choices": {"x": 0, "2": 1, "3": 0}}),
            (fileio.tournament_from_dict, {"schema": fileio.TOURNAMENT_SCHEMA, "m": 2,
                                           "pairs": [[0]]}),
            # fractions, bools and numeric strings are never truncated or parsed
            (fileio.measure_from_dict, {"schema": fileio.MEASURE_SCHEMA, "q": 2.7,
                                        "atoms": [0.5, 0.5]}),
            (fileio.measure_from_dict, {"schema": fileio.MEASURE_SCHEMA, "q": True,
                                        "atoms": [1.0]}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1.5,
                                         "table": [0, 1]}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
                                         "params": {"q": 3.5, "n": 5}}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
                                         "params": {"q": 3, "n": 5}, "n": 5.5}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1,
                                         "codomain": "real", "table": ["1.5", "0"]}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1,
                                         "table": ["1", "0"]}),
            (fileio.profile_from_dict, {"schema": fileio.PROFILE_SCHEMA, "m": 2,
                                        "orders": [{"ranking": [0, 1], "weight": 1.5}]}),
            (fileio.profile_from_dict, {"schema": fileio.PROFILE_SCHEMA, "m": 2,
                                        "orders": [{"ranking": [0.5, 1]}]}),
            (fileio.choice_function_from_dict, {"schema": fileio.CHOICE_SCHEMA, "m": 2.5,
                                                "choices": {"1": 0, "2": 1, "3": 0}}),
            (fileio.choice_function_from_dict, {"schema": fileio.CHOICE_SCHEMA, "m": 2,
                                                "choices": {"1": 0, "2": 1, "3": 0.5}}),
            (fileio.tournament_from_dict, {"schema": fileio.TOURNAMENT_SCHEMA, "m": 2,
                                           "pairs": [[0, 1.5]]}),
        ],
    )
    def test_malformed_field(self, loader, doc):
        with pytest.raises(fileio.FileFormatError, match="malformed field"):
            loader(doc)

    # each reader's container field as another JSON type: an array or a string
    # where an object belongs, an object or a string where an array does
    @pytest.mark.parametrize(
        "loader, doc",
        [
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
                                         "params": [3, 5]}),
            (fileio.function_from_dict, {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1,
                                         "table": {"0": 0, "1": 1}}),
            (fileio.measure_from_dict, {"schema": fileio.MEASURE_SCHEMA, "q": 2,
                                        "atoms": {"0": 0.5, "1": 0.5}}),
            (fileio.profile_from_dict, {"schema": fileio.PROFILE_SCHEMA, "m": 2,
                                        "orders": {"ranking": [0, 1]}}),
            (fileio.profile_from_dict, {"schema": fileio.PROFILE_SCHEMA, "m": 2,
                                        "orders": [[0, 1]]}),
            (fileio.choice_function_from_dict, {"schema": fileio.CHOICE_SCHEMA, "m": 2,
                                                "choices": [1, 2]}),
            (fileio.choice_function_from_dict, {"schema": fileio.CHOICE_SCHEMA, "m": 2,
                                                "choices": "abc"}),
            (fileio.tournament_from_dict, {"schema": fileio.TOURNAMENT_SCHEMA, "m": 2,
                                           "pairs": {"0": 1}}),
            (fileio.tournament_from_dict, {"schema": fileio.TOURNAMENT_SCHEMA, "m": 2,
                                           "pairs": "ab"}),
        ],
        ids=["params-array", "table-object", "atoms-object", "orders-object", "orders-arrays",
             "choices-array", "choices-string", "pairs-object", "pairs-string"],
    )
    def test_container_of_another_json_type(self, loader, doc):
        with pytest.raises(fileio.FileFormatError, match="malformed field"):
            loader(doc)

    def test_out_q_is_read_as_an_integer(self):
        doc = {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1, "table": [0, 1], "out_q": 2.5}
        with pytest.raises(fileio.FileFormatError, match="out_q must be an integer, got 2.5"):
            fileio.function_from_dict(doc)
        f = fileio.function_from_dict({**doc, "out_q": 2.0})
        assert f.out_q == 2 and type(f.out_q) is int

    def test_integral_floats_still_read(self):
        measure = fileio.measure_from_dict(
            {"schema": fileio.MEASURE_SCHEMA, "q": 2.0, "atoms": [0.5, 0.5]}
        )
        assert measure.q == 2 and type(measure.q) is int

    def test_choice_mask_outside_the_subsets_refused(self):
        doc = {"schema": fileio.CHOICE_SCHEMA, "m": 2,
               "choices": {"1": 0, "2": 1, "3": 0, "7": 2}}
        with pytest.raises(DimensionMismatchError, match="mask 7 outside"):
            fileio.choice_function_from_dict(doc)


class TestDecompositionExport:
    def test_components_and_metadata(self):
        f = QaryFunction.from_table(2, 2, [0.0, 1.0, 1.0, 0.0], codomain="real")
        mu = ProductMeasure.uniform(2)
        doc = fileio.decomposition_to_dict(efron_stein(f, mu))
        assert doc["schema"] == fileio.DECOMPOSITION_SCHEMA
        assert doc["q"] == 2 and doc["n"] == 2
        assert len(doc["components"]) == 4
        by_subset = {tuple(c["S"]): c["table"] for c in doc["components"]}
        assert by_subset[()] == [0.5, 0.5, 0.5, 0.5]
        assert by_subset[(0, 1)] == [-0.5, 0.5, 0.5, -0.5]


class TestCurveExport:
    def test_csv_columns_and_rows(self):
        curve = scan_path(plurality(2, 3), 0, ProductMeasure(2, [0.0, 1.0]), grid_size=3)
        text = fileio.curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "t,G,method,half_width"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[2] == "exact" and first[3] == ""

    def test_json_has_schema_and_seed_for_mc(self):
        curve = scan_path(
            plurality(2, 3), 0, ProductMeasure(2, [0.0, 1.0]),
            grid_size=3, method="mc", samples=100, seed=7,
        )
        doc = fileio.curve_to_dict(curve)
        assert doc["schema"] == fileio.CURVE_SCHEMA
        assert doc["seed"] == 7
        assert len(doc["half_width"]) == 3


def test_atomic_write_replaces_content(tmp_path):
    path = str(tmp_path / "out.json")
    fileio.atomic_write(path, "first")
    fileio.atomic_write(path, "second")
    with open(path) as handle:
        assert handle.read() == "second"
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_dumps_is_deterministic():
    doc = {"b": 1.0 / 3.0, "a": [1, 2]}
    assert fileio.dumps(doc) == fileio.dumps(dict(reversed(doc.items())))


def _stdlib_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _assert_writes_as_stdlib(doc) -> None:
    """``fileio.dumps`` gives the stdlib's bytes, or raises where it raises."""
    try:
        expected = _stdlib_dumps(doc)
    except TypeError:
        with pytest.raises(TypeError):
            fileio.dumps(doc)
        return
    assert fileio.dumps(doc) == expected


_NAN = float("nan")  # one object: a list repeats a NaN as the same object
_EDGE_FLOATS = [0.0, -0.0, _NAN, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 0.1, 1.0]
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_ints = st.one_of(st.integers(), st.sampled_from([2**53 + 1, -(2**63), 2**64, 0, 1]))
_scalars = st.one_of(
    st.none(), st.booleans(), _ints, _floats, st.text(max_size=8),
    _floats.map(np.float64),
)
# keys of one kind per dict, so that most dicts sort; int, float, bool and
# None keys sort before they become strings, and a dict whose keys do not
# sort raises TypeError on both sides
_keys = st.sampled_from([
    st.text(max_size=6), _ints, _floats, st.booleans(), st.none(),
    st.one_of(st.text(max_size=2), st.integers(0, 3)),
])
# leaves json cannot write: TypeError on both sides
_unwritable = st.sampled_from([np.int64(1), np.bool_(True), b"x", {1, 2}, np.zeros(2)])


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        _keys.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        # the one-join paths: flat lists of plain floats or plain ints
        st.lists(_floats, max_size=12),
        st.lists(st.sampled_from(_EDGE_FLOATS), max_size=12),
        st.lists(_ints, max_size=12),
    )


_documents = st.recursive(_scalars, _containers, max_leaves=30)


class TestCanonicalWriter:
    @settings(max_examples=300)
    @given(_documents)
    def test_matches_the_stdlib_on_nested_documents(self, doc):
        _assert_writes_as_stdlib(doc)

    @settings(max_examples=100)
    @given(st.recursive(st.one_of(_scalars, _unwritable), _containers, max_leaves=12))
    def test_raises_where_the_stdlib_raises(self, doc):
        _assert_writes_as_stdlib(doc)

    @pytest.mark.parametrize("doc", [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 1.5, -0.0, 1.5],
        {"a": [0.0, 2.0], "b": [-0.0, 2.0]},
        [_NAN, _NAN, float("nan"), 1.0],
        {-0.0: "k", 1.5: [True, 1, 1.0, None]},
        (1.0, (2.0, ()), {}),
        "\u00e9\u2603",
        np.float64(-0.0),
    ])
    def test_signed_zeros_nans_and_shared_texts(self, doc):
        _assert_writes_as_stdlib(doc)

    def test_circular_references_raise_value_error(self):
        loop = [1.0]
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            fileio.dumps({"a": loop})

    @pytest.mark.parametrize("codomain", ["alphabet", "real"])
    def test_function_tables_are_the_stdlib_bytes(self, rng, codomain):
        values = rng.integers(0, 3, 3**9) if codomain == "alphabet" else rng.standard_normal(3**9)
        doc = fileio.function_to_dict(QaryFunction.from_table(3, 9, values, codomain=codomain))
        assert fileio.dumps(doc) == _stdlib_dumps(doc)

    def test_decomposition_documents_are_the_stdlib_bytes(self):
        d = efron_stein(plurality(3, 4).as_real(), ProductMeasure(3, [0.2, 0.3, 0.5]))
        doc = fileio.decomposition_to_dict(d)
        assert fileio.dumps(doc) == _stdlib_dumps(doc)
