"""Requests the workloads send, how each runs in process, and how it is checked.

A job is one request a user would send through the CLI.  In process it calls
the same public functions, in the same order, as the matching subcommand in
``threshold_lab.cli``: build the function, compute, serialize through
``fileio``.  Jobs whose kind has no subcommand (``efron_stein``, ``hyper``,
``russo``, ``table-scan``) call the library the way the CLI would if it had one.
Every call into a package module goes through the tracer, which is a no-op in
untraced runs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

import reference as R
from threshold_lab import fileio
from threshold_lab.checks import (
    SymmetryGroup,
    check_fair,
    check_monotone,
    check_symmetric,
    check_zero_monotone,
)
from threshold_lab.cli import REPORT_SCHEMA
from threshold_lab.core import MeasurePath, ProductMeasure, SimplexSampler
from threshold_lab.decomposition import (
    efron_stein,
    influence_report,
    talagrand_report,
    verify_hypercontractivity,
)
from threshold_lab.families import resolve_oracle
from threshold_lab.social_choice import indeterminacy_experiment, saari_search
from threshold_lab.threshold import (
    jury_experiment,
    russo_report,
    scan_path,
    simplex_sweep,
    threshold_window,
)

#: CLI option name -> family parameter, as ``cli._load_function`` maps them.
FAMILY_OPTIONS = {
    "q": "q",
    "n": "n",
    "tie_break": "tie_break",
    "arity": "arity",
    "depth": "depth",
    "vertices": "vertices",
    "property": "property_kind",
    "coord": "coord",
}

#: Job arguments that are not CLI options (``table``: tabulate before scanning).
_NOT_OPTIONS = {"table"}


@dataclasses.dataclass
class Job:
    """One request.  ``args`` holds the CLI options, spelled as the CLI spells them."""

    kind: str
    args: dict
    units: float
    cli: bool = True
    exact_requested: bool = False
    defect: str | None = None
    data: dict = dataclasses.field(default_factory=dict)

    def argv(self) -> list[str]:
        out = [self.kind]
        for key, value in self.args.items():
            if key in _NOT_OPTIONS:
                continue
            out += ["--" + key.replace("_", "-"), str(value)]
        return out

    def label(self) -> str:
        return " ".join(self.argv())


# ---------------------------------------------------------------- running


def _function(T, a):
    params = {dst: a[src] for src, dst in FAMILY_OPTIONS.items() if src in a}
    f = T.call("families.build", resolve_oracle, a["family"], params)
    return T.oracle(f)


def _table(T, f):
    return T.call("core.tabulate", f.tabulate)


def _measure(a, q):
    if "atoms" in a:
        atoms = np.array([float(v) for v in a["atoms"].split(",")])
        return ProductMeasure(len(atoms), atoms)
    return ProductMeasure.uniform(q)


def _base(f, anchor):
    atoms = np.full(f.q, 1.0 / (f.q - 1))
    atoms[anchor] = 0.0
    return ProductMeasure(f.q, atoms)


def _dumps(T, doc):
    text = T.call("fileio.dumps", fileio.dumps, doc)
    T.count("fileio.dumps.bytes", len(text))
    return text


def _emit_json(T, doc):
    doc.setdefault("schema", REPORT_SCHEMA)
    return _dumps(T, doc)


def _has_exact(f):
    return f.table is not None or f.oracle.exact_prob is not None


def _exact_request(T, job, f):
    if job.exact_requested:
        T.count("families.exact_requested")
        T.count("families.exact_available", int(_has_exact(f)))


def _curve(T, job, f):
    a = job.args
    base = _base(f, a["anchor"])
    method = a["method"]
    if method == "mc":
        T.count("threshold.mc_estimate.calls", a["grid"])
    return T.call(
        "threshold.scan_path", scan_path, f, a["anchor"], base, grid_size=a["grid"],
        method=method, samples=a["samples"], seed=a["seed"], _tag=method,
    )


def run_window(T, job):
    f = _function(T, job.args)
    _exact_request(T, job, f)
    curve = _curve(T, job, f)
    window = T.call("threshold.threshold_window", threshold_window, curve, job.args["eps"])
    return _emit_json(T, window.as_dict()), None


def run_scan(T, job):
    f = _function(T, job.args)
    if job.args.get("table"):
        f = _table(T, f)
    _exact_request(T, job, f)
    curve = _curve(T, job, f)
    return T.call("fileio.curve_to_csv", fileio.curve_to_csv, curve), None


def run_sweep(T, job):
    a = job.args
    f = _function(T, a)
    _exact_request(T, job, f)
    tag = "exact" if _has_exact(f) else "mc"
    if tag == "mc":
        T.count("threshold.mc_estimate.calls", a["samples"])
    sampler = SimplexSampler(f.q, a["seed"])
    report = T.call(
        "threshold.simplex_sweep", simplex_sweep, f, a["anchor"], a["eps"], sampler,
        a["samples"], inner_samples=a["inner_samples"], _tag=tag,
    )
    T.count("threshold.simplex_sweep.samples", a["samples"])
    return _emit_json(T, report.as_dict()), None


def run_jury(T, job):
    a = job.args
    f = _function(T, a)
    measure = _measure(a, f.q)
    report = T.call(
        "threshold.jury_experiment", jury_experiment, f, measure, a["leader"], a["samples"],
        seed=a["seed"], _tag="mc",
    )
    T.count("threshold.mc_estimate.calls", 1 + (report.perturbed_atoms is not None))
    return _emit_json(T, report.as_dict()), None


def _group(a, n):
    group = a.get("group")
    if group == "cyclic":
        return SymmetryGroup.cyclic(n)
    if group == "full":
        return SymmetryGroup.full_symmetric(n)
    return None


def run_check(T, job):
    a = job.args
    f = _table(T, _function(T, a))
    size = f.q**f.n
    verdicts = {}

    def verdict(name, fn, *args):
        T.count("checks.entries", size)
        result = T.call("checks." + fn.__name__, fn, *args)
        verdicts[name] = {"passed": result.passed, "witness": result.witness}
        return result

    if f.codomain == "alphabet" and f.out_q == f.q:
        verdict("monotone", check_monotone, f)
        verdict("fair", check_fair, f)
    if T.call("core.is_binary", f.is_binary):
        verdict("zero_monotone", check_zero_monotone, f)
    group = _group(a, f.n)
    if group is not None:
        result = verdict("symmetric", check_symmetric, f, group)
        verdicts["symmetric"]["group_transitive"] = result.group_transitive
    return _emit_json(T, {"checks": verdicts}), None


def _real_table(T, a):
    f = _table(T, _function(T, a))
    return T.call("core.as_real", f.as_real)


def _count_decomposition(T, f):
    T.count("decomposition.efron_stein.bytes_computed", 8 * 2**f.n * f.q**f.n)


def run_decompose(T, job):
    f = _real_table(T, job.args)
    measure = _measure(job.args, f.q)
    _count_decomposition(T, f)
    d = T.call("decomposition.efron_stein", efron_stein, f, measure)
    doc = T.call("fileio.decomposition_to_dict", fileio.decomposition_to_dict, d)
    return _dumps(T, doc), None


def run_efron_stein(T, job):
    """The decomposition at the size cap; the output keeps only its per-subset norms."""
    f = _real_table(T, job.args)
    measure = _measure(job.args, f.q)
    _count_decomposition(T, f)
    d = T.call("decomposition.efron_stein", efron_stein, f, measure)
    norms = T.call("decomposition.squared_norms", d.squared_norms)
    doc = {"q": f.q, "n": f.n, "atoms": measure.atoms.tolist(), "squared_norms": norms.tolist()}
    return _emit_json(T, doc), d


def run_influences(T, job):
    f = _real_table(T, job.args)
    measure = _measure(job.args, f.q)
    doc = T.call("decomposition.influence_report", influence_report, f, measure).as_dict()
    doc["talagrand"] = T.call(
        "decomposition.talagrand_report", talagrand_report, f, measure
    ).as_dict()
    return _emit_json(T, doc), None


def run_hyper(T, job):
    f = _real_table(T, job.args)
    measure = _measure(job.args, f.q)
    report = T.call(
        "decomposition.verify_hypercontractivity", verify_hypercontractivity, f, measure
    )
    return _emit_json(T, report.as_dict()), None


def run_russo(T, job):
    a = job.args
    f = _table(T, _function(T, a))
    g = T.call("core.indicator", f.indicator, a["anchor"])
    path = MeasurePath(anchor=a["anchor"], base=_base(f, a["anchor"]))
    report = T.call("threshold.russo_report", russo_report, g, path, a["t"])
    return _emit_json(T, report.as_dict()), None


def _choice(T, a):
    return T.call("fileio.load_choice_function", fileio.load_choice_function, a["choice"])


def run_saari(T, job):
    a = job.args
    c0 = _choice(T, a)
    profile = T.call("social_choice.saari_search", saari_search, c0, max_profile_size=a["budget"])
    if profile is None:
        return _emit_json(T, {"realizable": False, "budget": a["budget"], "strict": True}), None
    doc = T.call("fileio.profile_to_dict", fileio.profile_to_dict, profile)
    doc["realizable"] = True
    doc["budget"] = a["budget"]
    doc["strict"] = True
    doc["total_weight"] = profile.total_weight
    return _dumps(T, doc), None


def run_indeterminacy(T, job):
    a = job.args
    c0 = _choice(T, a)
    profile = T.call("social_choice.saari_search", saari_search, c0, max_profile_size=a["budget"])
    if a["voters"] > 1:
        T.count("social_choice.voter_draws", a["voters"] * a["samples"])
    report = T.call(
        "social_choice.indeterminacy_experiment", indeterminacy_experiment, c0, a["voters"],
        a["samples"], seed=a["seed"], profile=profile,
    )
    return _emit_json(T, report.as_dict()), None


RUNNERS = {
    "window": run_window,
    "scan": run_scan,
    "table-scan": run_scan,
    "sweep": run_sweep,
    "jury": run_jury,
    "check": run_check,
    "decompose": run_decompose,
    "efron_stein": run_efron_stein,
    "influences": run_influences,
    "hyper": run_hyper,
    "russo": run_russo,
    "saari": run_saari,
    "indeterminacy": run_indeterminacy,
}


def run_job(T, job):
    return RUNNERS[job.kind](T, job)


# ---------------------------------------------------------------- checking


def _curve_reference(job):
    """``t -> P[f = anchor]`` along the job's path, from the family's definition."""
    a = job.args
    family, anchor = a["family"], a["anchor"]
    if family == "plurality":
        q, n = a["q"], a["n"]
        if q == 2 and n % 2 == 1:
            return lambda t: R.binomial_tail(n, t)
        base = np.full(q, 1.0 / (q - 1))
        base[anchor] = 0.0
        return lambda t: R.plurality_prob(R.path_atoms(base, anchor, t), anchor, n)
    if family == "recursive_plurality" and a["q"] == 2 and a["arity"] % 2 == 1:
        return lambda t: R.recursive_majority_prob(t, a["arity"], a["depth"])
    if family == "antisym_majority":
        if anchor == 1:
            return lambda t: R.antisym_one_prob(t, a["n"])
        return lambda t: 1.0 - R.antisym_one_prob(1.0 - t, a["n"])
    raise ValueError(f"no reference curve for {family}")


def check_window(job, text, obj):
    a = job.args
    doc = json.loads(text)
    G = _curve_reference(job)
    eps = a["eps"]
    problems = []
    if doc["method"] != a["method"] or doc["eps"] != eps:
        problems.append("window echoes the wrong request")
    if abs(doc["width"] - max(0.0, doc["t_hi"] - doc["t_lo"])) > 1e-15:
        problems.append("width != t_hi - t_lo")
    for key, level in (("t_lo", eps), ("t_hi", 1.0 - eps)):
        t = doc[key]
        if a["method"] == "exact":
            # bisection stops within 1e-6, so the true crossing lies within 1e-6 of t
            below, above = G(max(0.0, t - 1e-6)), G(min(1.0, t + 1e-6))
            if below > level + R.EXACT_TOL or above < level - R.EXACT_TOL:
                problems.append(f"{key}={t!r} does not bracket G = {level}: [{below!r}, {above!r}]")
        else:
            h = 1.0 / (a["grid"] - 1)
            exact_t = R.crossing(G, level)
            slope = (G(min(1.0, exact_t + h)) - G(max(0.0, exact_t - h))) / (2 * h)
            noise = R.Z * math.sqrt(level * (1 - level) / a["samples"]) / max(slope, 1e-12)
            if abs(t - exact_t) > 2 * h + noise:
                problems.append(f"{key}={t!r} far from the exact crossing {exact_t!r}")
    return problems


def check_scan(job, text, obj):
    a = job.args
    rows = list(csv.reader(io.StringIO(text)))
    problems = []
    if rows[0] != ["t", "G", "method", "half_width"] or len(rows) != a["grid"] + 1:
        return ["curve CSV has the wrong header or length"]
    G = _curve_reference(job)
    grid = np.linspace(0.0, 1.0, a["grid"])
    cheap = a["family"] != "plurality" or a["q"] == 2
    picks = range(a["grid"]) if cheap else sorted(set(np.linspace(0, a["grid"] - 1, 7).astype(int)))
    for i in picks:
        t, g, method, hw = rows[i + 1]
        if float(t) != grid[i] or method != a["method"]:
            problems.append(f"row {i}: wrong t or method")
            continue
        ref = G(float(t))
        if a["method"] == "exact":
            if abs(float(g) - ref) > R.EXACT_TOL or hw != "":
                problems.append(f"G({t}) = {g}, reference {ref!r}")
        elif not R.mc_consistent(float(g), ref, a["samples"]):
            problems.append(f"MC G({t}) = {g} not within {R.Z} sigma of {ref!r}")
    return problems


def check_sweep(job, text, obj):
    a = job.args
    doc = json.loads(text)
    samples, eps, anchor = a["samples"], a["eps"], a["anchor"]
    problems = []
    if doc["samples"] != samples or doc["seed"] != a["seed"] or doc["anchor"] != anchor:
        problems.append("sweep echoes the wrong request")
    if not 0.0 <= doc["estimate"] <= 1.0:
        return problems + [f"estimate {doc['estimate']} outside [0, 1]"]
    family = a["family"]
    if family == "graph_property":
        return problems
    q = a["q"]
    points = R.simplex_points(q, a["seed"], samples)
    if family == "dictator":
        probs = [mu[anchor] for mu in points]
        if not R.mc_consistent(doc["estimate"], R.dictator_critical_measure(q, eps), samples):
            problems.append("dictator sweep not within z of the Beta(1, q-1) measure")
    else:
        probs = [R.plurality_prob(mu, anchor, a["n"]) for mu in points]
    critical = sum(eps <= p <= 1.0 - eps for p in probs)
    if job.defect == "sweep-fallback":
        inner = a["inner_samples"]
        margin = [R.Z * math.sqrt(max(p * (1 - p), 0.0) / inner) + 1.0 / inner for p in probs]
    else:
        margin = [R.EXACT_TOL] * samples
    slack = sum(min(abs(p - eps), abs(p - (1 - eps))) <= m for p, m in zip(probs, margin))
    if abs(round(doc["estimate"] * samples) - critical) > slack:
        problems.append(f"critical count {doc['estimate'] * samples} vs reference {critical} (slack {slack})")
    return problems


def check_jury(job, text, obj):
    a = job.args
    doc = json.loads(text)
    atoms = [float(v) for v in a["atoms"].split(",")]
    n, leader, samples = a["n"], a["leader"], a["samples"]
    problems = []
    if not R.mc_consistent(doc["p_hat"], R.plurality_prob(atoms, leader, n), samples):
        problems.append("jury p_hat not within z of the exact plurality probability")
    if doc["perturbed_atoms"] is not None:
        exact = R.plurality_prob(doc["perturbed_atoms"], leader, n)
        if not R.mc_consistent(doc["p_hat_perturbed"], exact, samples):
            problems.append("perturbed p_hat not within z of the exact probability")
    return problems


def known_verdicts(a) -> dict:
    """Verdicts the families' definitions imply for the check subcommand."""
    family, q = a["family"], a["q"]
    out = {"monotone": True, "fair": True}
    if q == 2:
        # more zeros can only move the winner to 0, so never upward
        out["zero_monotone"] = False
    if "group" in a:
        if family == "plurality":
            # first-occurrence ties depend on voter order; q = 2 with odd n never ties
            out["symmetric"] = q == 2 and a["n"] % 2 == 1
        else:
            out["symmetric"] = a["depth"] == 1
    return out


def check_check(job, text, obj):
    doc = json.loads(text)["checks"]
    got = {name: v["passed"] for name, v in doc.items()}
    want = known_verdicts(job.args)
    return [] if got == want else [f"verdicts {got} != known {want}"]


def _own_table(a):
    return R.plurality_table(a["q"], a["n"]).astype(float)


def _atoms(a):
    return [float(v) for v in a["atoms"].split(",")]


def check_decompose(job, text, obj):
    a = job.args
    doc = json.loads(text)
    comps = np.array([c["table"] for c in doc["components"]])
    return R.spectral_problems(comps, _own_table(a), _atoms(a), a["q"], a["n"])


def check_efron_stein(job, text, obj):
    a = job.args
    table, atoms = _own_table(a), _atoms(a)
    problems = []
    if obj is not None:
        problems = R.spectral_problems(obj.components, table, atoms, a["q"], a["n"])
    norms = np.array(json.loads(text)["squared_norms"])
    total = float(R.product_weights(atoms, a["n"]) @ (table * table))
    if abs(norms.sum() - total) > R.EXACT_TOL * max(1.0, total):
        problems.append("reported squared norms break Parseval")
    return problems


def check_influences(job, text, obj):
    a = job.args
    doc = json.loads(text)
    table, atoms = _own_table(a), _atoms(a)
    own = R.influences(table, atoms, a["q"], a["n"])
    problems = []
    if any(abs(x - y) > R.EXACT_TOL for x, y in zip(doc["influences"], own)):
        problems.append("influences differ from E[Var_i f]")
    w = R.product_weights(atoms, a["n"])
    mean = float(w @ table)
    variance = float(w @ (table - mean) ** 2)
    if abs(doc["talagrand"]["variance"] - variance) > R.EXACT_TOL:
        problems.append("Talagrand variance differs from Var f")
    return problems


def check_hyper(job, text, obj):
    a = job.args
    doc = json.loads(text)
    rhs = R.lp_norm(_own_table(a), _atoms(a), a["n"], 1.5)
    problems = []
    if abs(doc["rhs"] - rhs) > R.EXACT_TOL:
        problems.append(f"rhs {doc['rhs']!r} != ||g||_3/2 = {rhs!r}")
    if not doc["ok"] or doc["lhs"] > doc["rhs"] + R.EXACT_TOL:
        problems.append("hypercontractive inequality reported as violated")
    return problems


def check_russo(job, text, obj):
    a = job.args
    doc = json.loads(text)
    n, t = a["n"], a["t"]
    if a["q"] == 2 and n % 2 == 1:
        h = (n - 1) // 2
        exact = n * math.comb(n - 1, h) * (t * (1.0 - t)) ** h
        tol = R.EXACT_TOL
    else:
        G = _curve_reference(job)
        delta = 1e-5
        exact = (G(t + delta) - G(t - delta)) / (2 * delta)
        tol = 1e-6
    problems = []
    if abs(doc["derivative"] - exact) > tol * max(1.0, exact):
        problems.append(f"Russo derivative {doc['derivative']!r} != dG/dt {exact!r}")
    if doc["derivative"] < doc["influence_sum_path_measure"] - R.EXACT_TOL:
        problems.append("derivative below the influence sum it dominates")
    return problems


def check_saari(job, text, obj):
    doc = json.loads(text)
    if not doc["realizable"]:
        return ["saari reports a realizable choice function as unrealizable"]
    orders = [o["ranking"] for o in doc["orders"]]
    weights = [o["weight"] for o in doc["orders"]]
    problems = []
    for mask, target in job.data["choices"].items():
        if bin(mask).count("1") < 2:
            continue
        if R.plurality_strict_winner(orders, weights, mask) != target:
            problems.append(f"profile does not elect {target} on subset {mask} strictly")
    return problems


def check_indeterminacy(job, text, obj):
    a = job.args
    doc = json.loads(text)
    per = list(doc["per_subset"].values())
    problems = []
    if doc["trials"] != a["samples"] or doc["n_voters"] != a["voters"] or doc["seed"] != a["seed"]:
        problems.append("indeterminacy echoes the wrong request")
    if not all(0.0 <= v <= 1.0 for v in per) or doc["min_subset"] != min(per):
        problems.append("per-subset agreement rates are inconsistent")
    if doc["joint"] > doc["min_subset"] + 1e-12:
        problems.append("joint agreement exceeds the smallest per-subset rate")
    if abs(sum(doc["weights"].values()) - 1.0) > 1e-12:
        problems.append("order weights do not sum to one")
    return problems


CHECKERS = {
    "window": check_window,
    "scan": check_scan,
    "table-scan": check_scan,
    "sweep": check_sweep,
    "jury": check_jury,
    "check": check_check,
    "decompose": check_decompose,
    "efron_stein": check_efron_stein,
    "influences": check_influences,
    "hyper": check_hyper,
    "russo": check_russo,
    "saari": check_saari,
    "indeterminacy": check_indeterminacy,
}


#: Kinds whose check needs the in-memory result as well as the output bytes.
NEEDS_OBJECT = {"efron_stein"}


def check_job(job, text, obj) -> list[str]:
    return CHECKERS[job.kind](job, text, obj)
