import json

import numpy as np
import pytest

from threshold_lab import (
    ChoiceFunction,
    ProductMeasure,
    QaryFunction,
    Tournament,
    VoterProfile,
    efron_stein,
    plurality,
    scan_path,
)
from threshold_lab import fileio


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

    @pytest.mark.parametrize("loader, schema", LOADERS)
    def test_missing_field(self, loader, schema):
        with pytest.raises(fileio.FileFormatError, match="missing field"):
            loader({"schema": schema})


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
