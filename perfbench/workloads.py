"""The job list of each workload, drawn from the benchmark seed.

A run repeats its workload's job list in passes.  The seed picks what a job
asks about (anchors, thresholds, atoms, MC seeds, choice functions); the slots
and every size that sets a job's cost (q, n, grids, samples, tables) are fixed,
so runs with different seeds do the same amount of work.
Each builder takes a ``scale``: 1 for the benchmark, smaller for the smoke
test, which then runs the same slots with fewer samples and smaller tables.
"""

from __future__ import annotations

import json
import math
import os

from jobs import Job

EPS_CHOICES = (0.05, 0.1, 0.2)


def _scaled(value, scale, least=1):
    return max(least, int(value * scale))


def _shrink(q, n, scale):
    """``n`` less the even number of coordinates that cuts ``q**n`` by about ``scale``.

    An even cut keeps the parity of ``n``, which the check verdicts depend on.
    """
    return n - 2 * round(-math.log(scale, q) / 2)


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _atoms_text(atoms):
    return ",".join(repr(round(float(v), 6)) for v in atoms)


def _two_atoms(rng):
    p = round(float(rng.uniform(0.3, 0.7)), 3)
    return f"{p!r},{round(1.0 - p, 3)!r}"


def _three_atoms(rng):
    a = [round(float(v), 3) for v in rng.uniform(0.25, 0.4, size=2)]
    return _atoms_text([a[0], a[1], round(1.0 - a[0] - a[1], 3)])


def _exact_curve(q, n, rng, grid):
    return {"family": "plurality", "q": q, "n": n, "anchor": int(rng.integers(q)),
            "grid": grid, "method": "exact", "samples": 10_000, "seed": _seed(rng),
            "eps": float(rng.choice(EPS_CHOICES))}


def exact_threshold(rng, workdir, scale):
    """Exact scans, windows and sweeps on plurality, plus a dictator sweep.

    Composition counts run from about 10^2 (q = 2) past the 2e6 point where
    ``plurality()`` drops its exact evaluator (q = 5, n >= 81).  The pair
    (3, 729) appears in two jobs, so jobs share work a cache could reuse.
    """
    jobs = []

    def window(q, n, grid=101, defect=None):
        grid = _scaled(grid, scale, 5)
        args = _exact_curve(q, n, rng, grid)
        jobs.append(Job("window", args, units=grid, exact_requested=True, defect=defect))

    def scan(q, n, grid=101):
        grid = _scaled(grid, scale, 5)
        args = _exact_curve(q, n, rng, grid)
        del args["eps"]
        args["format"] = "csv"
        jobs.append(Job("scan", args, units=grid, exact_requested=True))

    def sweep(family, params, samples, inner=10_000, defect=None):
        q = params["q"]
        samples, inner = _scaled(samples, scale, 2), _scaled(inner, scale, 200)
        args = {"family": family, **params, "anchor": int(rng.integers(q)),
                "eps": float(rng.choice(EPS_CHOICES)), "samples": samples,
                "inner_samples": inner, "seed": _seed(rng)}
        jobs.append(Job("sweep", args, units=samples, exact_requested=True, defect=defect))

    window(2, 111)
    scan(2, 3051)
    window(3, 301)
    window(3, 729, grid=21)
    window(4, 61)
    window(5, 31)
    sweep("plurality", {"q": 3, "n": 311}, 100)
    sweep("plurality", {"q": 3, "n": 729}, 30)
    sweep("plurality", {"q": 4, "n": 63}, 60)
    sweep("dictator", {"q": 4, "n": int(rng.integers(1, 10))}, 2000)
    # past 2e6 compositions: the exact window fails, the sweep silently goes nested-MC
    window(5, 83, defect="window-past-limit")
    sweep("plurality", {"q": 5, "n": 83}, 10, inner=2000, defect="sweep-fallback")
    return jobs


def dense_spectral(rng, workdir, scale):
    """Tables up to 2^21 entries, then checks, influences, table scans and the
    decomposition-based reports at the decomposition cap (2^12 and 3^9)."""
    jobs = []

    def check(family, params, group, cli=False):
        if "n" in params:
            params = {**params, "n": _shrink(params["q"], params["n"], scale)}
        q, n = params["q"], params.get("n") or params["arity"] ** params["depth"]
        verdicts = 3 + (q == 2)
        jobs.append(Job("check", {"family": family, **params, "group": group},
                        units=q**n * (1 + verdicts), cli=cli))

    def table_job(kind, q, n, atoms=None, cli=False, **extra):
        n = _shrink(q, n, scale)
        args = {"family": "plurality", "q": q, "n": n, **extra}
        if atoms is not None:
            args["atoms"] = atoms
        size = q**n
        units = {
            "decompose": size + 2**n * size,
            "efron_stein": size + 2**n * size,
            "hyper": size + 2**n * size,
            "influences": size * (1 + 2 * n),
            "russo": size * (1 + n),
        }[kind]
        jobs.append(Job(kind, args, units=units, cli=cli))

    def table_scan(q, n, grid):
        n, grid = _shrink(q, n, scale), _scaled(grid, scale, 3)
        args = {"family": "plurality", "q": q, "n": n, "table": True,
                "anchor": int(rng.integers(q)), "grid": grid, "method": "exact",
                "samples": 10_000, "seed": 0}
        jobs.append(Job("table-scan", args, units=q**n * (1 + grid), cli=False,
                        exact_requested=True))

    check("plurality", {"q": 2, "n": 20}, "cyclic")
    check("recursive_plurality", {"q": 2, "arity": 3, "depth": 2}, "cyclic", cli=True)
    check("plurality", {"q": 3, "n": 11}, "full")
    table_scan(2, 21, 11)
    table_job("influences", 2, 12, _two_atoms(rng))
    table_job("influences", 3, 9, _three_atoms(rng), cli=True)
    table_job("decompose", 2, 8, _two_atoms(rng), cli=True)
    table_job("efron_stein", 2, 12, _two_atoms(rng))
    table_job("efron_stein", 3, 9, _three_atoms(rng))
    table_job("hyper", 2, 12, _two_atoms(rng))
    table_job("hyper", 3, 9, _three_atoms(rng))
    t = round(float(rng.uniform(0.3, 0.7)), 3)
    table_job("russo", 2, 11, anchor=int(rng.integers(2)), t=t)
    table_job("russo", 3, 9, anchor=int(rng.integers(3)), t=t)
    return jobs


def _choice_file(rng, workdir, m, name):
    choices = {}
    for mask in range(1, 2**m):
        members = [j for j in range(m) if mask >> j & 1]
        choices[mask] = int(rng.choice(members))
    path = os.path.join(workdir, name)
    doc = {"schema": "threshold-lab/choice-function/v1", "m": m,
           "choices": {str(k): v for k, v in choices.items()}}
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path, choices


def monte_carlo(rng, workdir, scale):
    """MC scans, windows, the jury experiment, nested-MC sweeps and the
    social-choice sampling experiments."""
    jobs = []

    def mc_curve(kind, family, params, grid, samples):
        samples = _scaled(samples, scale, 10)
        q = params.get("q", 2)
        args = {"family": family, **params, "anchor": int(rng.integers(q)), "grid": grid,
                "method": "mc", "samples": samples, "seed": _seed(rng)}
        if kind == "window":
            args["eps"] = float(rng.choice(EPS_CHOICES))
        else:
            args["format"] = "csv"
        n = params.get("n") or params["arity"] ** params["depth"]
        if family == "antisym_majority":
            n = 2 * params["n"]
        jobs.append(Job(kind, args, units=grid * samples * n))

    def jury():
        samples = _scaled(2000, scale, 10)
        lead = round(float(rng.uniform(0.345, 0.36)), 4)
        other = round((1.0 - lead) / 2, 4)
        atoms = _atoms_text([lead, other, round(1.0 - lead - other, 4)])
        args = {"family": "plurality", "q": 3, "n": 501, "atoms": atoms, "leader": 0,
                "samples": samples, "seed": _seed(rng)}
        jobs.append(Job("jury", args, units=2 * samples * 501))

    def sweep(vertices, q, kind, samples, inner):
        args = {"family": "graph_property", "vertices": vertices, "q": q, "property": kind,
                "anchor": int(rng.integers(q)), "eps": 0.1, "samples": samples,
                "inner_samples": inner, "seed": _seed(rng)}
        n = vertices * (vertices - 1) // 2
        jobs.append(Job("sweep", args, units=samples * inner * n))

    def social(kind, m, voters=1, samples=1):
        path, choices = _choice_file(rng, workdir, m, f"choice-{len(jobs)}.json")
        args = {"choice": path, "budget": 10_000}
        units = 1
        if kind == "indeterminacy":
            args.update(voters=voters, samples=samples, seed=_seed(rng))
            units = voters * samples
        jobs.append(Job(kind, args, units=units, data={"choices": choices}))

    jury()
    mc_curve("window", "recursive_plurality", {"q": 2, "arity": 3, "depth": 4}, 21, 2000)
    mc_curve("window", "recursive_plurality", {"q": 2, "arity": 3, "depth": 5}, 11, 500)
    mc_curve("scan", "antisym_majority", {"n": 60}, 21, 2000)
    mc_curve("window", "antisym_majority", {"n": 61}, 21, 2000)
    sweep(5, 3, "max_clique_color", 50, _scaled(2000, scale))
    sweep(4, 2, "min_independent_set_color", 90, _scaled(2000, scale))
    social("saari", 3)
    social("saari", 4)
    social("indeterminacy", 4, voters=501, samples=_scaled(100, scale))
    social("indeterminacy", 3, voters=1001, samples=_scaled(200, scale))
    return jobs


#: Seconds one pass of each job list took at the seed commit on a 2-core x86-64
#: machine.  A run makes ``round(seconds / NOMINAL_PASS_S)`` passes, so every
#: commit runs the same jobs and its percentiles cover the same samples.
NOMINAL_PASS_S = {
    "exact-threshold": 1.7,
    "dense-spectral": 4.5,
    "monte-carlo": 1.1,
}

WORKLOADS = {
    "exact-threshold": exact_threshold,
    "dense-spectral": dense_spectral,
    "monte-carlo": monte_carlo,
}
