import json
import os
import subprocess
import sys

import numpy as np
import pytest

import threshold_lab
from threshold_lab import ChoiceFunction, ProductMeasure, QaryFunction, Tournament, dictator
from threshold_lab import fileio
from threshold_lab.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_COMMON = {"out": None, "format": "json", "seed": 0}
_FUNCTION = {
    "function": None, "family": None, "q": None, "n": None, "tie_break": None,
    "arity": None, "depth": None, "vertices": None, "property": None, "coord": None,
}
_CURVE = {"anchor": 0, "base": None, "grid": 101, "method": "exact", "samples": 10_000}

PARSED = [
    (
        ["family", "--family", "plurality", "--q", "3", "--n", "5", "--tie-break", "first"],
        {**_COMMON, **_FUNCTION, "command": "family", "family": "plurality", "q": 3, "n": 5,
         "tie_break": "first"},
    ),
    (
        ["check", "--family", "graph_property", "--vertices", "4",
         "--property", "max_clique_color", "--group", "graph"],
        {**_COMMON, **_FUNCTION, "command": "check", "family": "graph_property",
         "vertices": 4, "property": "max_clique_color", "group": "graph"},
    ),
    (
        ["decompose", "--family", "dictator", "--q", "2", "--n", "2", "--atoms", "0.5,0.5"],
        {**_COMMON, **_FUNCTION, "command": "decompose", "family": "dictator", "q": 2, "n": 2,
         "measure": None, "atoms": "0.5,0.5"},
    ),
    (
        ["influences", "--function", "f.json", "--measure", "m.json", "--format", "csv"],
        {**_COMMON, **_FUNCTION, "command": "influences", "function": "f.json",
         "measure": "m.json", "atoms": None, "format": "csv"},
    ),
    (
        ["verify", "--suite", "hyper"],
        {**_COMMON, "command": "verify", "suite": "hyper", "trials": 200, "qmax": 4,
         "nmax": 3},
    ),
    (
        ["scan", "--family", "plurality", "--q", "2", "--n", "9", "--base", "b.json"],
        {**_COMMON, **_FUNCTION, **_CURVE, "command": "scan", "family": "plurality", "q": 2,
         "n": 9, "base": "b.json", "format": "csv"},
    ),
    (
        ["window", "--family", "recursive_plurality", "--q", "2", "--arity", "3", "--depth",
         "2", "--method", "mc", "--eps", "0.2"],
        {**_COMMON, **_FUNCTION, **_CURVE, "command": "window",
         "family": "recursive_plurality", "q": 2, "arity": 3, "depth": 2, "method": "mc",
         "eps": 0.2},
    ),
    (
        ["sweep", "--family", "dictator", "--q", "2", "--n", "1", "--coord", "0",
         "--inner-samples", "50"],
        {**_COMMON, **_FUNCTION, "command": "sweep", "family": "dictator", "q": 2, "n": 1,
         "coord": 0, "anchor": 0, "eps": 0.1, "samples": 10_000, "inner_samples": 50},
    ),
    (
        ["jury", "--family", "plurality", "--q", "3", "--n", "501", "--atoms",
         "0.45,0.275,0.275", "--leader", "1"],
        {**_COMMON, **_FUNCTION, "command": "jury", "family": "plurality", "q": 3, "n": 501,
         "measure": None, "atoms": "0.45,0.275,0.275", "leader": 1, "samples": 10_000},
    ),
    (
        ["mcgarvey", "--tournament", "t.json", "--out", "p.json"],
        {**_COMMON, "command": "mcgarvey", "tournament": "t.json", "out": "p.json"},
    ),
    (
        ["saari", "--choice", "c.json", "--budget", "50", "--seed", "3"],
        {**_COMMON, "command": "saari", "choice": "c.json", "budget": 50, "seed": 3},
    ),
    (
        ["indeterminacy", "--choice", "c.json", "--profile", "p.json"],
        {**_COMMON, "command": "indeterminacy", "choice": "c.json", "profile": "p.json",
         "voters": 1000, "samples": 200, "budget": 10_000},
    ),
]


@pytest.mark.parametrize("argv,expected", PARSED, ids=[a[0] for a, _ in PARSED])
def test_parsed_options(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    parsed.pop("handler", None)
    assert parsed == expected


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
    code = "import sys, threshold_lab.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


class TestCheckCommand:
    def test_dictator_file_passes(self, tmp_path, capsys):
        path = str(tmp_path / "dictator.json")
        fileio.save_function(dictator(2, 3, 0).tabulate(), path)
        rc, out, _ = run(capsys, "check", "--function", path)
        assert rc == 0
        doc = json.loads(out)
        assert doc["checks"]["monotone"]["passed"]
        assert doc["checks"]["fair"]["passed"]

    def test_family_flags(self, capsys):
        rc, out, _ = run(capsys, "check", "--family", "plurality", "--q", "3", "--n", "3")
        assert rc == 0
        assert json.loads(out)["checks"]["monotone"]["passed"]

    def test_witness_emitted_on_failure(self, tmp_path, capsys):
        f = QaryFunction.from_table(2, 2, [1, 1, 0, 0])  # anti-dictator
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        rc, out, _ = run(capsys, "check", "--function", path)
        assert rc == 0
        doc = json.loads(out)
        assert not doc["checks"]["monotone"]["passed"]
        assert doc["checks"]["monotone"]["witness"] is not None


class TestScanCommand:
    def test_endpoints_in_csv(self, capsys):
        rc, out, _ = run(
            capsys, "scan", "--family", "plurality", "--q", "2", "--n", "9",
            "--anchor", "0", "--grid", "101", "--format", "csv",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,G,method,half_width"
        assert float(lines[1].split(",")[1]) == 0.0
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_window_json(self, capsys):
        rc, out, _ = run(
            capsys, "window", "--family", "plurality", "--q", "2", "--n", "81",
            "--eps", "0.1",
        )
        assert rc == 0
        doc = json.loads(out)
        assert 0 < doc["width"] < 1


class TestDeterminism:
    def test_sweep_twice_same_seed_byte_identical(self, tmp_path, capsys):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        for out in (out1, out2):
            rc = main([
                "sweep", "--family", "dictator", "--q", "2", "--n", "1",
                "--samples", "500", "--seed", "11", "--out", out,
            ])
            assert rc == 0
        assert open(out1).read() == open(out2).read()

    def test_mc_scan_seed_changes_output(self, tmp_path):
        paths = []
        for seed in ("3", "4"):
            out = str(tmp_path / f"s{seed}.csv")
            rc = main([
                "scan", "--family", "plurality", "--q", "2", "--n", "9",
                "--method", "mc", "--samples", "200", "--seed", seed,
                "--grid", "5", "--format", "csv", "--out", out,
            ])
            assert rc == 0
            paths.append(open(out).read())
        assert paths[0] != paths[1]


class TestSocialChoiceCommands:
    def test_mcgarvey(self, tmp_path, capsys):
        t = Tournament.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        path = str(tmp_path / "t.json")
        fileio.save_tournament(t, path)
        rc, out, _ = run(capsys, "mcgarvey", "--tournament", path)
        assert rc == 0
        doc = json.loads(out)
        assert doc["majority_matches_target"]
        assert len(doc["orders"]) == 6

    def test_saari_and_indeterminacy(self, tmp_path, capsys):
        c = ChoiceFunction(
            3,
            {0b001: 0, 0b010: 1, 0b100: 2, 0b011: 0, 0b110: 1, 0b101: 2, 0b111: 0},
        )
        cpath = str(tmp_path / "c.json")
        fileio.save_choice_function(c, cpath)
        rc, out, _ = run(capsys, "saari", "--choice", cpath)
        assert rc == 0
        doc = json.loads(out)
        assert doc["realizable"] and doc["strict"]
        rc, out, _ = run(
            capsys, "indeterminacy", "--choice", cpath, "--voters", "200",
            "--samples", "50", "--seed", "2",
        )
        assert rc == 0
        rep = json.loads(out)
        assert 0.0 <= rep["min_subset"] <= 1.0


class TestExitCodes:
    def test_unparseable_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "check", "--function", str(bad))
        assert rc == 2
        assert "error" in err

    def test_missing_file_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "check", "--function", "/nonexistent.json")
        assert rc == 2

    def test_domain_error_is_exit_one(self, tmp_path, capsys):
        # constant function: the window never crosses the levels
        f = QaryFunction.from_table(2, 2, [1, 1, 1, 1])
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        rc, _, err = run(capsys, "window", "--function", path, "--anchor", "1")
        assert rc == 1
        doc = json.loads(err)
        assert doc["error"] == "WindowUndefinedError"

    def test_jury_without_leader_is_exit_one(self, capsys):
        rc, _, err = run(
            capsys, "jury", "--family", "plurality", "--q", "2", "--n", "3",
            "--atoms", "0.5,0.5", "--samples", "10",
        )
        assert rc == 1
        assert json.loads(err)["error"] == "NoStrictLeaderError"


    @pytest.mark.parametrize(
        "argv,option",
        [
            (["--family", "plurality", "--q", "3"], "--n"),
            (["--family", "recursive_plurality", "--q", "2", "--arity", "3"], "--depth"),
            (["--family", "graph_property", "--q", "2", "--vertices", "3"], "--property"),
        ],
    )
    def test_family_missing_parameter_is_usage_error(self, capsys, argv, option):
        rc, out, err = run(capsys, "scan", *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: --family {argv[1]} needs {option}\n"

    @pytest.mark.parametrize(
        "argv", [["--leader", "7"], ["--leader", "-1", "--atoms", "0.2,0.3,0.5"]]
    )
    def test_jury_leader_out_of_range_is_exit_one(self, capsys, argv):
        rc, out, err = run(
            capsys, "jury", "--family", "plurality", "--q", "3", "--n", "5",
            "--samples", "10", *argv,
        )
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "DimensionMismatchError"

    def test_schema_mismatch_is_exit_one(self, tmp_path, capsys):
        measure = str(tmp_path / "mu.json")
        fileio.save_measure(ProductMeasure(2, [0.5, 0.5]), measure)
        # a measure document where a function document belongs
        rc, _, err = run(capsys, "check", "--function", measure)
        assert rc == 1
        assert json.loads(err)["error"] == "FileFormatError"
        # a measure document of an unknown version
        doc = json.loads((tmp_path / "mu.json").read_text())
        doc["schema"] = "threshold-lab/measure/v9"
        (tmp_path / "mu.json").write_text(json.dumps(doc))
        rc, _, err = run(
            capsys, "influences", "--family", "plurality", "--q", "2", "--n", "3",
            "--measure", measure,
        )
        assert rc == 1
        assert json.loads(err)["error"] == "FileFormatError"


class TestVerifyCommand:
    def test_hyper_suite_clean(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "hyper", "--trials", "30", "--seed", "5"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["violations"] == 0

    def test_level_suite_clean(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "level", "--trials", "20", "--seed", "5"
        )
        assert rc == 0
        assert json.loads(out)["violations"] == 0

    def test_level_suite_margin_at_twelve_bits(self, capsys):
        # min_margin printed by the decomposition-based level check (one
        # 2**n * q**n store per level) that the subset-norm kernel replaced
        rc, out, _ = run(
            capsys, "verify", "--suite", "level", "--trials", "20", "--nmax", "12",
            "--qmax", "2", "--seed", "7",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["min_margin"] == pytest.approx(5.743210836030783, rel=0.0, abs=1e-12)


class TestFamilyCommand:
    def test_tabulates_to_function_file(self, tmp_path):
        out = str(tmp_path / "f.json")
        rc = main(["family", "--family", "plurality", "--q", "2", "--n", "3", "--out", out])
        assert rc == 0
        f = fileio.load_function(out)
        assert f.table is not None and len(f.table) == 8

    def test_round_trip_reparses_equal(self, tmp_path):
        out = str(tmp_path / "f.json")
        main(["family", "--family", "dictator", "--q", "3", "--n", "2", "--out", out])
        f = fileio.load_function(out)
        doc1 = fileio.function_to_dict(f)
        doc2 = fileio.function_to_dict(fileio.function_from_dict(doc1))
        assert doc1 == doc2


class TestInfluencesAndDecompose:
    def test_influences_json(self, capsys):
        rc, out, _ = run(
            capsys, "influences", "--family", "plurality", "--q", "2", "--n", "3"
        )
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["influences"]) == 3
        assert doc["talagrand"]["variance"] > 0

    @pytest.mark.parametrize("q,n", [(2, 13), (3, 10)])
    def test_influences_past_the_decomposition_cap(self, capsys, q, n):
        # 2**n * q**n exceeds the table cap, q**n does not
        assert 2**n * q**n > threshold_lab.MAX_TABLE_SIZE
        rc, out, err = run(
            capsys, "influences", "--family", "plurality", "--q", str(q), "--n", str(n)
        )
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert len(doc["influences"]) == n
        tal = doc["talagrand"]
        assert tal["m2_sum"] == pytest.approx(tal["variance"], rel=0.0, abs=1e-9)

    def test_decompose_json(self, capsys):
        rc, out, _ = run(
            capsys, "decompose", "--family", "dictator", "--q", "2", "--n", "2",
            "--atoms", "0.5,0.5",
        )
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["components"]) == 4
