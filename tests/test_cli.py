import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import threshold_lab
from threshold_lab import (
    ChoiceFunction,
    LinearOrder,
    ProductMeasure,
    QaryFunction,
    Tournament,
    VoterProfile,
    dictator,
)
from threshold_lab import decomposition, fileio, plurality, social_choice, threshold
from threshold_lab.cli import _SUBCOMMANDS, REPORT_SCHEMA, build_parser, main
from threshold_lab.decomposition import influence_report, talagrand_report


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_COMMON = {"out": None}
_FUNCTION = {
    "function": None, "family": None, "q": None, "n": None, "tie_break": None,
    "arity": None, "depth": None, "vertices": None, "property": None, "coord": None,
}
_CURVE = {"anchor": 0, "base": None, "grid": 101, "method": "exact", "samples": 10_000,
          "seed": 0}

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
         "measure": None, "atoms": (0.5, 0.5)},
    ),
    (
        ["influences", "--function", "f.json", "--measure", "m.json"],
        {**_COMMON, **_FUNCTION, "command": "influences", "function": "f.json",
         "measure": "m.json", "atoms": None},
    ),
    (
        ["verify", "--suite", "hyper"],
        {**_COMMON, "command": "verify", "suite": "hyper", "trials": 200, "qmax": 4,
         "nmax": 3, "seed": 0},
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
         "coord": 0, "anchor": 0, "eps": 0.1, "samples": 10_000, "inner_samples": 50,
         "seed": 0},
    ),
    (
        ["jury", "--family", "plurality", "--q", "3", "--n", "501", "--atoms",
         "0.45,0.275,0.275", "--leader", "1"],
        {**_COMMON, **_FUNCTION, "command": "jury", "family": "plurality", "q": 3, "n": 501,
         "measure": None, "atoms": (0.45, 0.275, 0.275), "leader": 1, "samples": 10_000,
         "seed": 0},
    ),
    (
        ["mcgarvey", "--tournament", "t.json", "--out", "p.json"],
        {**_COMMON, "command": "mcgarvey", "tournament": "t.json", "out": "p.json"},
    ),
    (
        ["saari", "--choice", "c.json", "--budget", "50"],
        {**_COMMON, "command": "saari", "choice": "c.json", "budget": 50},
    ),
    (
        ["indeterminacy", "--choice", "c.json", "--profile", "p.json"],
        {**_COMMON, "command": "indeterminacy", "choice": "c.json", "profile": "p.json",
         "voters": 1000, "samples": 200, "budget": 10_000, "seed": 0},
    ),
]


@pytest.mark.parametrize("argv,expected", PARSED, ids=[a[0] for a, _ in PARSED])
def test_parsed_options(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    parsed.pop("handler", None)
    assert parsed == expected


#: One run per subcommand.  Each sets every option the subcommand accepts but
#: those it cannot take together with the ones set: ``--family`` and the
#: family's own options, not ``--function``; ``--atoms``, not ``--measure``;
#: ``--budget``, not ``--profile``.  ``--out`` is added to every run.
READ_ARGV = {
    "family": "--family plurality --q 2 --n 3 --tie-break smallest_index",
    "check": "--family graph_property --vertices 3 --q 2 --property max_clique_color "
             "--group graph",
    "decompose": "--family dictator --q 2 --n 2 --coord 1 --atoms 0.4,0.6",
    "influences": "--family antisym_majority --n 2 --atoms 0.3,0.7",
    "verify": "--suite level --trials 2 --qmax 2 --nmax 2 --seed 1",
    "scan": "--family recursive_plurality --q 2 --arity 3 --depth 2 --base {base} --anchor 0 "
            "--grid 3 --method mc --samples 20 --seed 1 --format json",
    "window": "--family plurality --q 2 --n 9 --anchor 1 --grid 11 --method exact "
              "--samples 10 --seed 1 --eps 0.2",
    "sweep": "--family dictator --q 2 --n 1 --anchor 0 --eps 0.1 --samples 3 "
             "--inner-samples 10 --seed 1",
    "jury": "--family plurality --q 2 --n 5 --atoms 0.6,0.4 --leader 0 --samples 20 --seed 1",
    "mcgarvey": "--tournament {tournament}",
    "saari": "--choice {choice} --budget 50",
    "indeterminacy": "--choice {choice} --voters 20 --samples 3 --budget 50 --seed 1",
}


def test_every_accepted_option_is_read(tmp_path):
    files = {name: str(tmp_path / f"{name}.json") for name in ("base", "tournament", "choice")}
    fileio.save_measure(ProductMeasure(2, [0.0, 1.0]), files["base"])
    fileio.save_tournament(Tournament.from_pairs(3, [(0, 1), (1, 2), (2, 0)]),
                           files["tournament"])
    fileio.save_choice_function(ChoiceFunction(
        3, {0b001: 0, 0b010: 1, 0b100: 2, 0b011: 0, 0b110: 1, 0b101: 2, 0b111: 0}
    ), files["choice"])
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    assert set(READ_ARGV) == set(_SUBCOMMANDS)
    unread = {}
    for command, options in READ_ARGV.items():
        argv = [command, *options.format(**files).split(), "--out", str(tmp_path / command)]
        parsed = vars(build_parser().parse_args(argv))
        args = Recording(**parsed)
        read.clear()
        parsed["handler"](args)
        missed = set(parsed) - {"command", "handler"} - read
        if missed:
            unread[command] = sorted(missed)
    assert unread == {}


#: Modules only some commands use, which every CLI run would pay for if the
#: package imported them eagerly.
LAZY_MODULES = ("scipy", "numpy.random", "numpy.fft", "numpy.polynomial")


def test_import_leaves_scipy_unloaded():
    # and the other LAZY_MODULES, in the one subprocess
    src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
    code = f"import sys, threshold_lab.cli; print([m for m in {LAZY_MODULES} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


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

    def test_most_popular_color_window_is_exact(self, capsys):
        # the colour property is plurality over the 15 edges of K6
        rc, out, _ = run(
            capsys, "window", "--family", "graph_property", "--vertices", "6", "--q", "3",
            "--property", "most_popular_color",
        )
        assert rc == 0
        assert json.loads(out)["method"] == "exact"
        rc, same, _ = run(
            capsys, "window", "--family", "plurality", "--q", "3", "--n", "15",
            "--tie-break", "smallest_index",
        )
        assert out == same


class TestPastTheEnumeration:
    """plurality(5, 83) has 2,225,895 count vectors, past what was enumerated."""

    def test_window_brackets_the_crossings(self, capsys):
        rc, out, _ = run(
            capsys, "window", "--family", "plurality", "--q", "5", "--n", "83", "--eps", "0.1",
        )
        assert rc == 0
        doc = json.loads(out)
        f = plurality(5, 83)

        def G(t):
            atoms = np.full(5, (1.0 - t) / 4)
            atoms[0] = t
            return f.oracle.exact_prob(ProductMeasure(5, atoms), 0)

        for t, level in ((doc["t_lo"], 0.1), (doc["t_hi"], 0.9)):
            assert G(t - 1e-5) <= level <= G(t + 1e-5)

    def test_sweep_is_exact(self, capsys, monkeypatch):
        def nested_mc(*args, **kwargs):
            raise AssertionError("sweep sampled a measure by Monte Carlo")

        monkeypatch.setattr(threshold, "mc_estimate", nested_mc)
        rc, out, _ = run(
            capsys, "sweep", "--family", "plurality", "--q", "5", "--n", "83", "--samples", "5",
        )
        assert rc == 0
        assert json.loads(out)["samples"] == 5


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


# sha256 of the stdout of each command.  The Monte Carlo ones were printed when
# points were drawn with rng.choice into int64 and every family evaluator
# widened to int64; the one-byte draws and the evaluators that read them must
# keep every byte
PINNED_STDOUT = [
    ("scan --family plurality --q 3 --n 31 --method mc --grid 11 --samples 600 --seed 5",
     "535774427e026015d3715983c19c311dfca34200413ab7f2cf7b9bb98a3a821a"),
    ("scan --family plurality --q 3 --n 30 --method mc --grid 7 --samples 500 --seed 6 "
     "--tie-break smallest_index",
     "e58a127c75a7786481f895441718b4f2339de94987a43a0bd2097cf6c3e4d2ca"),
    ("scan --family recursive_plurality --q 3 --arity 3 --depth 3 --method mc --grid 9 "
     "--samples 400 --seed 2",
     "4500f510388c2c5fa5b7e27ea3fd6adb6f8242eca46a728db18cb62c61dd17d2"),
    ("scan --family recursive_plurality --q 2 --arity 3 --depth 4 --method mc --grid 11 "
     "--samples 500 --seed 8 --format json",
     "c58ce2767483fb079822ce6ce0153039233a6aadc3368b88011a340a2101a886"),
    ("window --family antisym_majority --n 31 --method mc --grid 21 --samples 800 --seed 13 "
     "--eps 0.2",
     "af6abfbae40fa59a9e90b96f2e659f1d37bf7ddc6587a3794e7506a28366f986"),
    ("window --family plurality --q 3 --n 45 --method mc --grid 11 --samples 500 --seed 14 "
     "--eps 0.25 --anchor 1",
     "feff101c30719b1302402ebfa58ba878e5f05d983e94b06684e8fd9a3af31da9"),
    # printed when the jury read plurality's law (p_hat 0.6574035746502244, half-width 0)
    # rather than sampling it
    ("jury --family plurality --q 4 --n 40 --atoms 0.4,0.3,0.3,0.0 --samples 1000 --seed 22",
     "71c29f8aeeb040fff546b8b65b1af9962a43a83c7156e27587d34a4a885a5e27"),
    ("jury --family recursive_plurality --q 3 --arity 3 --depth 3 --atoms 0.4,0.35,0.25 "
     "--samples 1000 --seed 23",
     "5baae0dcf6a7df73e3eefc14c8969c7dd508181c78104477e768da8a87de12c1"),
    ("sweep --family antisym_majority --n 10 --samples 15 --inner-samples 400 --seed 6",
     "0d619d4405e18fc1fbd48eb0593dd8789a472b5627e7e3b194739d67a7487e91"),
    ("indeterminacy --choice {choice} --voters 200 --samples 50 --seed 2",
     "2d6fc7a7c348958a5d80a696d8b2cc594aae19bcde94a7e51907e59cf6796ef1"),
    # printed when each level made its own subset-norm pass
    ("verify --suite level --trials 20 --nmax 12 --qmax 2 --seed 7",
     "b1996fb6444fb1eab827f69bee5c1288d70001a80d3aff07acbe9897d45308e7"),
    # printed when the coordinate average had three implementations: a
    # broadcast over the (q,)*n tensor, an einsum on the axis view, and a
    # product with the table's axis moved last
    ("decompose --family plurality --q 3 --n 4 --atoms 0.2,0.3,0.5",
     "fc0da0aca69fb3cfccb72ad999b3cd751d2a2d150c435a747a1ed90f6adc42d7"),
    ("verify --suite hyper --trials 50 --nmax 6 --qmax 4 --seed 3",
     "22873ea4781ec34870460f659a9bfb0c3fe5e48e0bab6d9a76d87efc03b48418"),
    ("check --family plurality --q 2 --n 7 --group cyclic",
     "f9d10d5bcd3c7c36b24bde0a5227dc5a47f3cd0061ebc6bef9452ce0a8300a55"),
    # printed when graph_property widened its points to int64 and counted
    # colours itself for most_popular_color
    ("sweep --family graph_property --vertices 5 --q 3 --property max_clique_color "
     "--samples 20 --inner-samples 300 --seed 9",
     "9c09708a363de2f69b1ef9b2c48d0b7cc6cab85fca92512d03a9648d33112eed"),
    ("scan --family graph_property --vertices 6 --q 3 --property most_popular_color "
     "--method mc --grid 9 --samples 400 --seed 10",
     "d01a8ea05076ec7e83d4c042eb1d9c3702d27460811f796e103761e21dede1ba"),
    # exact evaluators: printed when threshold chose between the table and the
    # oracle's exact_prob itself, apart from core.prob_value
    ("window --family plurality --q 3 --n 45 --tie-break smallest_index --anchor 1",
     "c227747cf05b21659144947672031a022a8aa368f5fd82eb5747c4e0134956f0"),
    # printed when exact plurality curves read the path law sum_c Bin(n, t)(c) H(c)
    # (the per-measure law was at most 3.6e-14 away, at t = 0.32)
    ("scan --family plurality --q 4 --n 61 --anchor 3 --format json",
     "2ce2d3022028eb0628b28d4400f6d4f2211b4d2792044d81ab63450cacaf1b94"),
    ("sweep --family plurality --q 4 --n 63 --samples 30 --seed 5",
     "128bc85a2704a276f27e9b8895a0eb2e80f14b9400888c1dcd4b5622df168b0e"),
    ("sweep --family dictator --q 4 --n 5 --samples 2000 --seed 3",
     "874287e090459418b4ea085aa8188f95784128b299625ab344c346d45a5eff07"),
    # printed when table probabilities integrate out one coordinate at a time
    # (a q**n weight table put these values up to 3.3e-16 away)
    ("window --function {table} --anchor 1 --eps 0.2",
     "a45d022b9f887121f3b6f997e5fd18b71cb8258f2af491b1160dfc7e6b8e230e"),
    # printed when a law-less oracle of at most 2**16 points was tabulated for its
    # sweep (estimate 0.5; nested Monte Carlo at 300 draws had printed 0.45)
    ("sweep --family recursive_plurality --q 3 --arity 3 --depth 2 --samples 20 "
     "--inner-samples 300 --seed 4",
     "a5fa89c28b4984b6132a4014561e4f39c42e9acc506c08789eb6d4206bd1b740"),
    # printed when table probabilities were read from composition histograms (the
    # one-coordinate contraction put 6 of these 21 values 1.1e-16 away)
    ("scan --function {table} --anchor 2 --grid 21",
     "5961f09904c5dc20b49522a79d3d0c3a33d999c10cae998dc5bad98326905126"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=[a for a, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(tmp_path, capsys, argv, digest):
    choice = ChoiceFunction(
        3, {0b001: 0, 0b010: 1, 0b100: 2, 0b011: 0, 0b110: 1, 0b101: 2, 0b111: 0}
    )
    path = str(tmp_path / "c.json")
    fileio.save_choice_function(choice, path)
    table = str(tmp_path / "plurality-3-7.json")
    assert main(["family", "--family", "plurality", "--q", "3", "--n", "7", "--out", table]) == 0
    rc, out, _ = run(capsys, *argv.format(choice=path, table=table).split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


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


#: Each exits 2 with one ``error:`` line on stderr and nothing on stdout:
#: options given together that read the same input, options the subcommand
#: does not take, and a group no one defined.
REFUSED = [
    ("check --function f.json --family plurality", "error: --function takes no --family"),
    ("check --function f.json --q 3", "error: --function takes no --q"),
    ("jury --function f.json --tie-break smallest_index --atoms 0.6,0.4",
     "error: --function takes no --tie-break"),
    ("influences --family plurality --q 2 --n 3 --measure m.json --atoms 0.5,0.5",
     "error: --measure takes no --atoms"),
    ("window --family plurality --q 2 --n 9 --format csv",
     "threshold-lab: error: unrecognized arguments: --format csv"),
    ("influences --function f.json --measure m.json --format csv",
     "threshold-lab: error: unrecognized arguments: --format csv"),
    ("check --family plurality --q 2 --n 3 --seed 1",
     "threshold-lab: error: unrecognized arguments: --seed 1"),
    ("saari --choice c.json --budget 50 --seed 3",
     "threshold-lab: error: unrecognized arguments: --seed 3"),
    ("check --family plurality --q 2 --n 3 --vertices 3 --group graph",
     "error: --family plurality takes no --vertices"),
    ("check --family plurality --q 2 --n 3 --group dihedral",
     "threshold-lab check: error: argument --group: invalid choice: 'dihedral'"),
]


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

    def test_numeric_string_param_is_named(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
                                    "params": {"q": "3", "n": 5}}))
        rc, out, err = run(capsys, "check", "--function", str(path))
        assert (rc, out) == (1, "")
        assert json.loads(err) == {
            "error": "FileFormatError",
            "message": "function document has a malformed field: "
                       "params.q must be an integer, got '3'",
        }

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

    # every subcommand that takes --seed, each with an otherwise valid request
    SEEDED = {
        "verify": "--suite hyper --trials 2",
        "scan": "--family recursive_plurality --q 2 --arity 3 --depth 2 --method mc --grid 3",
        "window": "--family recursive_plurality --q 2 --arity 3 --depth 2 --method mc",
        "sweep": "--family dictator --q 2 --n 1 --samples 5",
        "jury": "--family plurality --q 3 --n 5 --atoms 0.5,0.3,0.2 --samples 10",
        "indeterminacy": "--choice {choice} --voters 20 --samples 2",
    }

    def test_every_seeded_subcommand_is_listed(self):
        seeded = {name for name, spec in _SUBCOMMANDS.items() if "seed" in spec[2]}
        assert seeded == set(self.SEEDED)

    @pytest.mark.parametrize("command", list(SEEDED))
    @pytest.mark.parametrize("seed", ["-1", "-3", "x"])
    def test_bad_seed_is_a_usage_error(self, tmp_path, capsys, command, seed):
        # a negative seed once reached numpy and exited 1 with a raw traceback,
        # or, for an exact jury, was echoed in the report
        choice = tmp_path / "c.json"
        choice.write_text("{}")  # never read: the seed is refused first
        argv = [command, *self.SEEDED[command].format(choice=choice).split(), "--seed", seed]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert line.endswith(
            f"error: argument --seed: must be a non-negative integer, got {seed}"
            if seed != "x" else "error: argument --seed: invalid int value: 'x'"
        )


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
        "argv,option",
        [
            (["--family", "dictator", "--q", "3", "--n", "5", "--tie-break", "smallest_index",
              "--depth", "7"], "--tie-break"),
            (["--family", "antisym_majority", "--n", "3", "--q", "2"], "--q"),
            (["--family", "plurality", "--q", "3", "--n", "5", "--property", "x"], "--property"),
            (["--family", "plurality", "--q", "3", "--n", "5", "--vertices", "4"], "--vertices"),
        ],
    )
    def test_family_unknown_parameter_is_usage_error(self, capsys, argv, option):
        rc, out, err = run(capsys, "window", *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: --family {argv[1]} takes no {option}\n"

    def test_graph_group_takes_its_vertex_count_from_n(self, capsys):
        # anonymous plurality over the 6 edges of K4 is invariant under relabelling vertices
        rc, out, _ = run(
            capsys, "check", "--family", "plurality", "--q", "2", "--n", "6",
            "--tie-break", "smallest_index", "--group", "graph",
        )
        assert rc == 0
        assert json.loads(out)["checks"]["symmetric"]["passed"]

    @pytest.mark.parametrize("argv,message", REFUSED, ids=[argv for argv, _ in REFUSED])
    def test_refused_option_is_one_usage_error(self, capsys, argv, message):
        try:
            rc = main(argv.split())
        except SystemExit as exc:  # argparse's own refusals
            rc = exc.code
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith(message)

    def test_unknown_parameter_in_a_file_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "schema": fileio.FUNCTION_SCHEMA, "oracle": "plurality",
            "params": {"q": 3, "n": 5, "tiebreak": "smallest_index"},
        }))
        rc, out, err = run(capsys, "check", "--function", str(path))
        assert rc == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "InvalidFunctionError",
            "message": "oracle family 'plurality' takes no parameter 'tiebreak'",
        }

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

    @pytest.mark.parametrize("command", ["scan", "window", "sweep"])
    @pytest.mark.parametrize(
        "function,q",
        [
            ("--family plurality --q 3 --n 5", 3),
            ("--function {table}", 3),  # plurality(3, 7) as a table
            ("--family antisym_majority --n 3", 2),  # no law: tabulated, 2**6 points
            ("--family graph_property --vertices 4 --q 2 --property max_clique_color", 2),
        ],
    )
    @pytest.mark.parametrize("past", [False, True])
    def test_anchor_out_of_range_is_exit_one(
        self, tmp_path, capsys, command, function, q, past
    ):
        table = str(tmp_path / "f.json")
        fileio.save_function(plurality(3, 7).tabulate(), table)
        anchor = str(q) if past else "-1"
        argv = [command, *function.format(table=table).split(), "--anchor", anchor]
        if command == "sweep":
            argv += ["--samples", "2", "--inner-samples", "20"]
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "DimensionMismatchError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "hyper", "--nmax", "0"],
            ["--suite", "hyper", "--qmax", "1"],
            ["--suite", "level", "--trials", "0"],
            ["--suite", "talagrand", "--trials", "0"],
        ],
    )
    def test_verify_empty_corpus_is_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2
        assert out == ""
        assert err == "error: verify needs --trials >= 1, --qmax >= 2 and --nmax >= 1\n"

    @pytest.mark.parametrize("command", ["jury", "decompose"])
    @pytest.mark.parametrize("atoms", ["0.5,abc", ""])
    def test_malformed_atoms_is_a_usage_error(self, capsys, command, atoms):
        # "" must not fall back to the uniform measure; valid --atoms keep
        # their bytes in the pinned jury and decompose runs
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "plurality", "--q", "3", "--n", "5", "--atoms", atoms])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert line.endswith(f"error: argument --atoms: invalid number list: {atoms!r}")

    # in a subprocess under a timeout, as redrawing each measure until every atom
    # clears 1e-3 would take ~1e46 draws at q = 300 and never end past q = 1000
    @pytest.mark.parametrize("qmax,code", [("1000", 0), ("1001", 2)])
    def test_verify_at_many_symbols_ends(self, qmax, code):
        src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "threshold_lab.cli", "verify", "--suite", "hyper",
             "--trials", "4", "--qmax", qmax, "--nmax", "1"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == code, result.stderr
        if code:
            assert result.stderr == (
                "error: verify needs --qmax <= 1000, the most symbols whose measures can "
                "have every atom >= 0.001\n"
            )
        else:
            assert json.loads(result.stdout)["violations"] == 0

    # 2**60 entries would be a 1 EiB draw, 3**16 a 344 MB one
    @pytest.mark.parametrize("qmax,nmax", [(2, 60), (2, 25), (3, 16), (1000, 3)])
    def test_verify_past_the_table_cap_is_a_usage_error(self, capsys, qmax, nmax):
        rc, out, err = run(capsys, "verify", "--suite", "hyper", "--trials", "1",
                           "--qmax", str(qmax), "--nmax", str(nmax), "--seed", "7")
        assert (rc, out) == (2, "")
        assert err == (
            "error: verify needs --qmax ** --nmax <= 16777216, the exact-computation cap "
            "on its largest table\n"
        )

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

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["check", "--family", "plurality", "--q", "2", "--n", "2", "--group", "graph"],
             None),
            (["influences", "--family", "plurality", "--q", "2", "--n", "3", "--measure", "{doc}"],
             {"schema": fileio.MEASURE_SCHEMA, "q": None, "atoms": [0.5, 0.5]}),
            (["saari", "--choice", "{doc}"],
             {"schema": fileio.CHOICE_SCHEMA, "m": 2, "choices": {"x": 0, "2": 1, "3": 0}}),
            (["check", "--function", "{doc}"],
             {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1, "table": "ab"}),
            (["check", "--function", "{doc}"],
             {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 2, "table": [0, 0.9, 1.5, 1]}),
            (["jury", "--family", "plurality", "--q", "3", "--n", "5",
              "--atoms", "nan,0.2,0.3", "--samples", "10"], None),
            (["influences", "--family", "plurality", "--q", "2", "--n", "3",
              "--atoms", "nan,0.5"], None),
            (["saari", "--choice", "{doc}"],
             {"schema": fileio.CHOICE_SCHEMA, "m": 2, "choices": [1, 2]}),
            (["saari", "--choice", "{doc}"],
             {"schema": fileio.CHOICE_SCHEMA, "m": 2, "choices": "abc"}),
            (["mcgarvey", "--tournament", "{doc}"],
             {"schema": fileio.TOURNAMENT_SCHEMA, "m": 3, "pairs": [[0, 5]]}),
            (["mcgarvey", "--tournament", "{doc}"],
             {"schema": fileio.TOURNAMENT_SCHEMA, "m": 3, "pairs": [[0, -1]]}),
            (["check", "--function", "{doc}"],
             {"schema": fileio.FUNCTION_SCHEMA, "q": 2, "n": 1, "table": [0, 1], "out_q": 2.5}),
            (["saari", "--choice", "{doc}"],
             {"schema": fileio.CHOICE_SCHEMA, "m": 0, "choices": {}}),
            (["indeterminacy", "--choice", "{doc}", "--voters", "3"],
             {"schema": fileio.CHOICE_SCHEMA, "m": 0, "choices": {}}),
        ],
        ids=["non-triangular-graph", "null-q", "mask-x", "string-table", "fractional-table",
             "nan-jury", "nan-influences", "choices-array", "choices-string", "pair-past-m",
             "negative-pair", "fractional-out-q", "saari-no-alternatives",
             "indeterminacy-no-alternatives"],
    )
    def test_invalid_input_is_one_typed_error(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "doc.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, *(arg.format(doc=path) for arg in argv))
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")

        def names(cls):
            return {cls.__name__}.union(*(names(sub) for sub in cls.__subclasses__()))

        assert json.loads(err)["error"] in names(threshold_lab.ThresholdLabError)

    def test_indeterminacy_refuses_a_profile_on_other_alternatives(self, tmp_path, capsys):
        choice, profile = tmp_path / "c3.json", tmp_path / "p4.json"
        fileio.save_choice_function(ChoiceFunction.from_order(LinearOrder(3, range(3))), str(choice))
        fileio.save_profile(VoterProfile.from_rankings(4, [(0, 1, 2, 3)]), str(profile))
        rc, out, err = run(capsys, "indeterminacy", "--choice", str(choice), "--profile", str(profile))
        assert (rc, out) == (1, "")
        assert json.loads(err) == {
            "error": "DimensionMismatchError",
            "message": "profile on 4 alternatives, choice function on 3",
        }

    def test_saari_past_the_table_cap_is_refused_at_once(self, tmp_path, capsys, monkeypatch):
        def no_orders(m):
            raise AssertionError("built the orders")

        monkeypatch.setattr(social_choice, "all_orders", no_orders)
        path = tmp_path / "c9.json"
        fileio.save_choice_function(ChoiceFunction.from_order(LinearOrder(9, range(9))), str(path))
        rc, out, err = run(capsys, "saari", "--choice", str(path))
        assert (rc, out) == (1, "")
        assert json.loads(err) == {
            "error": "TableSizeError",
            "message": "saari_search at m = 9 tabulates 9! orders' tops on 2**9 - 1 subsets, "
            "185431680 entries, past the exact-computation cap 16777216",
        }


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

    @pytest.mark.parametrize("q,n,seed", [(2, 6, 1), (2, 9, 2), (3, 4, 3), (3, 5, 4), (4, 3, 5)])
    def test_influences_prints_the_two_reports(self, tmp_path, capsys, q, n, seed):
        # the Talagrand terms come from the influence report's norms, so the
        # output must be exactly what the two library reports print
        rng = np.random.default_rng(seed)
        f = QaryFunction.from_table(q, n, rng.standard_normal(q**n), codomain="real")
        atoms = rng.dirichlet(np.ones(q))
        mu = ProductMeasure(q, atoms)
        path = str(tmp_path / "f.json")
        fileio.save_function(f, path)
        rc, out, err = run(
            capsys, "influences", "--function", path, "--atoms", ",".join(repr(float(a)) for a in atoms)
        )
        assert (rc, err) == (0, "")
        doc = influence_report(f, mu).as_dict()
        doc["talagrand"] = talagrand_report(f, mu).as_dict()
        doc["schema"] = REPORT_SCHEMA
        assert out == fileio.dumps(doc)

    def test_influences_builds_one_difference_table_per_coordinate(self, capsys, monkeypatch):
        built = []
        delta = decomposition._delta

        def counting(f, measure, i):
            built.append(i)
            return delta(f, measure, i)

        monkeypatch.setattr(decomposition, "_delta", counting)
        rc, _, _ = run(capsys, "influences", "--family", "plurality", "--q", "3", "--n", "5")
        assert rc == 0
        assert built == [0, 1, 2, 3, 4]

    def test_influences_refuses_a_zero_atom(self, capsys):
        rc, out, err = run(
            capsys, "influences", "--family", "plurality", "--q", "3", "--n", "3",
            "--atoms", "0.5,0.5,0.0",
        )
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == "DegenerateMeasureError"

    def test_decompose_json(self, capsys):
        rc, out, _ = run(
            capsys, "decompose", "--family", "dictator", "--q", "2", "--n", "2",
            "--atoms", "0.5,0.5",
        )
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["components"]) == 4

    def test_decompose_past_the_store_cap_fails(self, capsys):
        # 2**13 * 2**13 component entries exceed the 2**24 cap
        rc, out, err = run(capsys, "decompose", "--family", "plurality", "--q", "2", "--n", "13")
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == "TableSizeError"

    @pytest.mark.slow
    def test_decompose_at_the_store_cap_is_pinned(self):
        # 2**12 components of 2**12 entries: a 515 MB document, hashed as it
        # streams out of a CLI subprocess; the digest is that of the dense
        # component store and the stdlib encoder the factors replaced
        src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
        argv = ["decompose", "--family", "plurality", "--q", "2", "--n", "12",
                "--atoms", "0.3,0.7"]
        with subprocess.Popen(
            [sys.executable, "-m", "threshold_lab.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        ) as proc:
            digest = hashlib.sha256()
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(chunk)
        assert proc.returncode == 0
        assert digest.hexdigest() == (
            "8843a234eea08b36d6776f408d5c8ed9da3a3bde867b8c3f392eb5dfd5665f1d"
        )
