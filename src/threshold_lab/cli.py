"""Command-line front end: one subcommand per experiment.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage or input-parse error, a negative ``--seed`` among them.  The verify,
sweep, jury and indeterminacy reports and a Monte Carlo JSON scan record their
seed; a window report and a CSV scan do not.  Identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fileio
from .checks import SymmetryGroup, check_fair, check_monotone, check_symmetric, check_zero_monotone
from .core import (
    MAX_TABLE_SIZE,
    DimensionMismatchError,
    InvalidFunctionError,
    ProductMeasure,
    QaryFunction,
    SimplexSampler,
    ThresholdLabError,
    _check_range,
    expectation,
)
from .decomposition import (
    _talagrand,
    efron_stein,
    influence_report,
    talagrand_report,
    verify_hypercontractivity,
    verify_level_bounds,
)
from .families import resolve_oracle, vertex_action_generators
from .social_choice import (
    indeterminacy_experiment,
    majority_relation,
    mcgarvey_profile,
    saari_search,
)
from .threshold import ThresholdCurve, jury_experiment, scan_path, simplex_sweep, threshold_window

REPORT_SCHEMA = "threshold-lab/report/v1"


def _emit(args, text: str) -> None:
    if args.out:
        fileio.atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    doc.setdefault("schema", REPORT_SCHEMA)
    _emit(args, fileio.dumps(doc))


class UsageError(Exception):
    """Usage error carrying the message for exit code 2."""


#: Family parameter -> the option that sets it.
_FAMILY_PARAMS = {
    "q": "q",
    "n": "n",
    "tie_break": "tie-break",
    "arity": "arity",
    "depth": "depth",
    "vertices": "vertices",
    "property_kind": "property",
    "coord": "coord",
}


def _load_function(args) -> QaryFunction:
    params = {key: getattr(args, opt.replace("-", "_")) for key, opt in _FAMILY_PARAMS.items()}
    params = {k: v for k, v in params.items() if v is not None}
    if args.function:
        if args.family or params:
            option = "family" if args.family else _FAMILY_PARAMS[next(iter(params))]
            raise UsageError(f"--function takes no --{option}")
        return fileio.load_function(args.function)
    if not args.family:
        raise UsageError("one of --function/--family is required")
    try:
        return resolve_oracle(args.family, params)
    except KeyError as exc:  # the family needs a parameter no option set
        option = _FAMILY_PARAMS[exc.args[0]]
        raise UsageError(f"--family {args.family} needs --{option}") from None
    except InvalidFunctionError as exc:
        key = getattr(exc, "parameter", None)
        if key is None:
            raise
        raise UsageError(f"--family {args.family} takes no --{_FAMILY_PARAMS[key]}") from None


def _load_measure(args, q: int) -> ProductMeasure:
    if args.measure and args.atoms is not None:
        raise UsageError("--measure takes no --atoms")
    if args.measure:
        return fileio.load_measure(args.measure)
    if args.atoms is not None:
        return ProductMeasure(len(args.atoms), args.atoms)
    return ProductMeasure.uniform(q)


def _cmd_family(args) -> None:
    f = _load_function(args).tabulate()
    _emit(args, fileio.dumps(fileio.function_to_dict(f)))


def _symmetry_group(args, f: QaryFunction) -> SymmetryGroup | None:
    if not args.group:
        return None
    if args.group == "cyclic":
        return SymmetryGroup.cyclic(f.n)
    if args.group == "full":
        return SymmetryGroup.full_symmetric(f.n)
    v = (1 + math.isqrt(1 + 8 * f.n)) // 2  # the n coordinates are the C(v, 2) edges of K_v
    if math.comb(v, 2) != f.n:
        raise DimensionMismatchError(f"--group graph needs n = C(v, 2) edges, got n = {f.n}")
    return SymmetryGroup(f.n, tuple(vertex_action_generators(v)))


def _cmd_check(args) -> None:
    f = _load_function(args).tabulate()
    results = {}
    if f.codomain == "alphabet" and f.out_q == f.q:
        results["monotone"] = check_monotone(f)
        results["fair"] = check_fair(f)
    if f.is_binary():
        results["zero_monotone"] = check_zero_monotone(f)
    group = _symmetry_group(args, f)
    if group is not None:
        results["symmetric"] = check_symmetric(f, group)
    if not results:
        raise UsageError("no applicable checks for this function")
    _emit_json(args, {"checks": {name: r.as_dict() for name, r in results.items()}})


def _cmd_decompose(args) -> None:
    f = _load_function(args).tabulate().as_real()
    measure = _load_measure(args, f.q)
    _emit(args, fileio.dumps(fileio.decomposition_to_dict(efron_stein(f, measure))))


def _cmd_influences(args) -> None:
    f = _load_function(args).tabulate().as_real()
    measure = _load_measure(args, f.q)
    report = influence_report(f, measure)
    doc = report.as_dict()
    # the Talagrand terms are the L1 and L2 difference norms the report holds
    doc["talagrand"] = _talagrand(f, measure, zip(report.delta_l1, report.delta_l2)).as_dict()
    _emit_json(args, doc)


#: Smallest atom of a ``verify`` corpus measure (the bounds degrade as ``1/alpha``).
_VERIFY_ATOM_FLOOR = 1e-3


def _verify_one(suite: str, q: int, n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    atoms = rng.dirichlet(np.ones(q))
    if atoms.min() < _VERIFY_ATOM_FLOOR:
        # a second draw mapped affinely onto {every atom >= floor}, where it is
        # uniform, as the first draw is when it clears the floor
        floor = _VERIFY_ATOM_FLOOR
        atoms = floor + (1.0 - q * floor) * rng.dirichlet(np.ones(q))
    measure = ProductMeasure(q, atoms)
    table = rng.standard_normal(q**n)
    g = QaryFunction.from_table(q, n, table, codomain="real")
    if suite == "hyper":
        rep = verify_hypercontractivity(g, measure)
        return {"ok": rep.ok, "margin": rep.rhs - rep.lhs}
    if suite == "level":
        mean = expectation(g, measure)
        centered = QaryFunction.from_table(q, n, table - mean, codomain="real")
        reps = verify_level_bounds(centered, measure)
        return {"ok": all(r.ok for r in reps), "margin": min(r.rhs - r.lhs for r in reps)}
    rep = talagrand_report(g, measure)
    return {"ok": True, "empirical_c": rep.empirical_c}


def _cmd_verify(args) -> None:
    if args.trials < 1 or args.qmax < 2 or args.nmax < 1:
        raise UsageError("verify needs --trials >= 1, --qmax >= 2 and --nmax >= 1")
    if args.qmax * _VERIFY_ATOM_FLOOR > 1:
        raise UsageError(f"verify needs --qmax <= {1 / _VERIFY_ATOM_FLOOR:.0f}, the most "
                         f"symbols whose measures can have every atom >= {_VERIFY_ATOM_FLOOR}")
    # an --nmax of at least the cap's bit length is past it at every q >= 2, and
    # refusing it first keeps qmax**nmax small
    if args.nmax >= MAX_TABLE_SIZE.bit_length() or args.qmax**args.nmax > MAX_TABLE_SIZE:
        raise UsageError(f"verify needs --qmax ** --nmax <= {MAX_TABLE_SIZE}, the "
                         "exact-computation cap on its largest table")
    rng = np.random.default_rng(args.seed)
    results = []
    for _ in range(args.trials):
        q = int(rng.integers(2, args.qmax + 1))
        n = int(rng.integers(1, args.nmax + 1))
        results.append(_verify_one(args.suite, q, n, int(rng.integers(0, 2**63 - 1))))
    violations = sum(1 for r in results if not r.get("ok", True))
    doc = {
        "suite": args.suite,
        "trials": args.trials,
        "violations": violations,
        "seed": args.seed,
    }
    if args.suite in ("hyper", "level"):
        doc["min_margin"] = min(r["margin"] for r in results)
    else:
        cs = [r["empirical_c"] for r in results if r["empirical_c"] is not None]
        doc["empirical_c_max"] = max(cs) if cs else None
    _emit_json(args, doc)


def _curve(args) -> ThresholdCurve:
    f = _load_function(args)
    if args.base:
        base = fileio.load_measure(args.base)
    else:
        _check_range(args.anchor, f.q, "anchor")  # the default base indexes its atoms by it
        atoms = np.full(f.q, 1.0 / (f.q - 1))
        atoms[args.anchor] = 0.0
        base = ProductMeasure(f.q, atoms)
    return scan_path(
        f, args.anchor, base, grid_size=args.grid, method=args.method,
        samples=args.samples, seed=args.seed,
    )


def _cmd_scan(args) -> None:
    curve = _curve(args)
    if args.format == "csv":
        _emit(args, fileio.curve_to_csv(curve))
    else:
        _emit(args, fileio.dumps(fileio.curve_to_dict(curve)))


def _cmd_window(args) -> None:
    _emit_json(args, threshold_window(_curve(args), args.eps).as_dict())


def _cmd_sweep(args) -> None:
    f = _load_function(args)
    sampler = SimplexSampler(f.q, args.seed)
    report = simplex_sweep(
        f, args.anchor, args.eps, sampler, args.samples,
        inner_samples=args.inner_samples,
    )
    _emit_json(args, report.as_dict())


def _cmd_jury(args) -> None:
    f = _load_function(args)
    measure = _load_measure(args, f.q)
    report = jury_experiment(f, measure, args.leader, args.samples, seed=args.seed)
    _emit_json(args, report.as_dict())


def _cmd_mcgarvey(args) -> None:
    tournament = fileio.load_tournament(args.tournament)
    profile = mcgarvey_profile(tournament)
    doc = fileio.profile_to_dict(profile)
    doc["majority_matches_target"] = bool(
        (majority_relation(profile) == tournament.beats).all()
    )
    _emit(args, fileio.dumps(doc))


def _cmd_saari(args) -> None:
    c0 = fileio.load_choice_function(args.choice)
    profile = saari_search(c0, max_profile_size=args.budget)
    doc = {"realizable": profile is not None, "budget": args.budget, "strict": True}
    if profile is not None:  # a profile document; a report otherwise
        doc.update(fileio.profile_to_dict(profile), total_weight=profile.total_weight)
    _emit_json(args, doc)


def _cmd_indeterminacy(args) -> None:
    c0 = fileio.load_choice_function(args.choice)
    profile = fileio.load_profile(args.profile) if args.profile else saari_search(
        c0, max_profile_size=args.budget
    )
    report = indeterminacy_experiment(
        c0, args.voters, args.samples, seed=args.seed, profile=profile
    )
    _emit_json(args, report.as_dict())


def _seed(text: str) -> int:
    """``--seed``: an int >= 0, as numpy's seeding takes; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _atoms(text: str) -> tuple:
    """``--atoms``: comma-separated numbers; anything else is a usage error."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number list: {text!r}") from None


#: Every option once: name (without ``--``) -> ``add_argument`` keywords.
_OPTIONS = {
    "function": {"help": "function JSON file"},
    "family": {"help": "built-in family name"},
    "q": {"type": int},
    "n": {"type": int},
    "tie-break": {},
    "arity": {"type": int},
    "depth": {"type": int},
    "vertices": {"type": int},
    "property": {},
    "coord": {"type": int},
    "out": {"help": "output path (atomic write); default stdout"},
    "format": {"choices": ("json", "csv"), "default": "csv"},
    "seed": {"type": _seed, "default": 0},
    "group": {"choices": ("cyclic", "full", "graph"), "help": "symmetry group"},
    "measure": {"help": "measure JSON file"},
    "atoms": {"type": _atoms, "help": "comma-separated atoms"},
    "suite": {"choices": ("hyper", "level", "talagrand"), "required": True},
    "trials": {"type": int, "default": 200},
    "qmax": {"type": int, "default": 4},
    "nmax": {"type": int, "default": 3},
    "anchor": {"type": int, "default": 0},
    "base": {"help": "base measure JSON file (zero mass at anchor)"},
    "grid": {"type": int, "default": 101},
    "method": {"choices": ("exact", "mc"), "default": "exact"},
    "samples": {"type": int, "default": 10_000},
    "eps": {"type": float, "default": 0.1},
    "inner-samples": {"type": int, "default": 10_000},
    "leader": {"type": int, "default": 0},
    "tournament": {"required": True, "help": "tournament JSON file"},
    "choice": {"required": True, "help": "choice-function JSON file"},
    "budget": {"type": int, "default": 10_000},
    "profile": {"help": "realizing profile JSON (defaults to saari search)"},
    "voters": {"type": int, "default": 1000},
}

_FUNCTION = ("function", "family", *_FAMILY_PARAMS.values())
_OUTPUT = ("out",)
_MEASURE = ("measure", "atoms")
_CURVE = ("anchor", "base", "grid", "method", "samples", "seed")

#: name -> (handler, help, option names, defaults that differ from _OPTIONS).
_SUBCOMMANDS = {
    "family": (_cmd_family, "tabulate a built-in family to a function file",
               _FUNCTION + _OUTPUT, {}),
    "check": (_cmd_check, "structural checks with witnesses",
              _FUNCTION + _OUTPUT + ("group",), {}),
    "decompose": (_cmd_decompose, "export the orthogonal decomposition",
                  _FUNCTION + _OUTPUT + _MEASURE, {}),
    "influences": (_cmd_influences, "influence and difference-norm report",
                   _FUNCTION + _OUTPUT + _MEASURE, {}),
    "verify": (_cmd_verify, "inequality suites over random corpora",
               _OUTPUT + ("suite", "trials", "qmax", "nmax", "seed"), {}),
    "scan": (_cmd_scan, "threshold curve along a simplex path",
             _FUNCTION + _OUTPUT + _CURVE + ("format",), {}),
    "window": (_cmd_window, "scan plus crossing-window location",
               _FUNCTION + _OUTPUT + _CURVE + ("eps",), {}),
    "sweep": (_cmd_sweep, "simplex measure of the critical set",
              _FUNCTION + _OUTPUT + ("anchor", "eps", "samples", "inner-samples", "seed"), {}),
    "jury": (_cmd_jury, "leader-biased election experiment",
             _FUNCTION + _OUTPUT + _MEASURE + ("leader", "samples", "seed"), {}),
    "mcgarvey": (_cmd_mcgarvey, "profile realizing a tournament by majority",
                 _OUTPUT + ("tournament",), {}),
    "saari": (_cmd_saari, "profile realizing a choice function by plurality",
              _OUTPUT + ("choice", "budget"), {}),
    "indeterminacy": (_cmd_indeterminacy, "sampled plurality agreement experiment",
                      _OUTPUT + ("choice", "profile", "voters", "samples", "budget", "seed"),
                      {"samples": 200}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-lab",
        description="Sharp-threshold analysis and social-choice experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.set_defaults(handler=handler, **defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ThresholdLabError, json.JSONDecodeError, OSError) as exc:
        # a domain error exits 1; a file that cannot be read or parsed is a usage error
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, ThresholdLabError) else 2


if __name__ == "__main__":
    sys.exit(main())
