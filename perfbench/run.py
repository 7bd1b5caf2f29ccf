#!/usr/bin/env python3
"""threshold-lab benchmark: one workload, one seed, checked outputs, metrics.

    python3 perfbench/run.py --workload exact-threshold --seed 1 --seconds 24 --trace 0

Each workload is a closed loop with one client.  Its job list (drawn from the
seed) runs in whole passes, as many as fit ``--seconds`` at the seed commit's
speed (``workloads.NOMINAL_PASS_S``).  Pass 1 is checked against the
references in ``reference.py``; later passes must reproduce pass 1 byte for
byte.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same passes untraced and then traced and
prints the per-layer metrics.  The last line of standard output is the
result object; the line before it is a report with the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import threshold_lab.cli; "
    "print(time.perf_counter() - t)"
)
#: ``setup_s`` is the median of this many imports.  On a 2-core x86-64 VM,
#: over ten seeds, the median's IQR/median was 0.13 where the 10th percentile's
#: was 0.23: with ten samples a low quantile rests on one or two of them.
SETUP_SAMPLES = 10
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 120
#: Smoke runs shrink every job slot's samples and tables to about this share.
SMOKE_SCALE = 0.1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THRESHOLD_LAB_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(argv) -> dict:
    """One ``threshold_lab.cli`` process through ``cli_probe.py``: exit code, stdout, timings."""
    try:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_probe.py"), *argv], env=child_env(),
            cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"code": None, "stdout": "", "stderr": "timed out", "probe": None}
    lines = out.stderr.strip().splitlines()
    probe = json.loads(lines[-1])["perfbench"] if lines else None
    return {"code": out.returncode, "stdout": out.stdout, "stderr": out.stderr, "probe": probe}


def import_seconds() -> float:
    """Wall time a fresh interpreter takes to ``import threshold_lab.cli``."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S,
    )
    return float(out.stdout.strip())


class SetupSampler:
    """Import times of fresh interpreters, taken at even intervals of job time.

    The machine's speed drifts over tens of seconds, so samples bunched
    before the run would all see one state; spread over the run, they see
    as many states as the jobs do.
    """

    def __init__(self, samples: int, planned_s: float):
        self.samples = samples
        self.interval = planned_s / samples
        self.values = []
        self.spent = 0.0
        self.t0 = time.perf_counter()

    def _take(self):
        t = time.perf_counter()
        self.values.append(import_seconds())
        self.spent += time.perf_counter() - t

    def tick(self):
        """Take the samples that are due after this much job time."""
        while len(self.values) < self.samples and (
            time.perf_counter() - self.t0 - self.spent >= len(self.values) * self.interval
        ):
            self._take()

    def finish(self) -> list:
        while len(self.values) < self.samples:
            self._take()
        return self.values


def interpreter_start_s(repeats: int) -> float:
    values = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
        values.append(time.perf_counter() - t0)
    return statistics.median(values)


def scipy_import_s() -> float:
    """Cumulative ``-X importtime`` seconds of scipy modules imported by non-scipy ones."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import threshold_lab.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CLI_TIMEOUT_S,
    )
    # lines come children first; a node's children are the pending deeper lines
    pending = []
    total_us = 0
    for line in out.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cum_us = int(parts[1])
        depth = len(parts[2]) - len(parts[2].lstrip(" "))
        name = parts[2].strip()
        children = [p for p in pending if p[0] > depth]
        pending = [p for p in pending if p[0] <= depth]
        if not name.startswith("scipy"):
            total_us += sum(c[2] for c in children if c[1].startswith("scipy"))
        pending.append((depth, name, cum_us))
    total_us += sum(p[2] for p in pending if p[1].startswith("scipy"))
    return total_us / 1e6


def provenance(args) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    sha = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "threshold_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # numpy builds differ in what they expose
        blas = {"error": repr(exc)}
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "THRESHOLD_LAB_THREADS")
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "cli_threads_env": "unset",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


class Runner:
    """Runs passes of a job list, checking pass 1 and comparing later passes to it."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first_text = {}
        self.records = []
        self.problems = []
        self.correct = True
        self.after_job = lambda: None

    def execute(self, job, index, pass_no, tracer):
        from jobs import run_job
        from threshold_lab.core import TableSizeError

        error = None
        text = obj = None
        tracer.begin_job(index)
        t0 = time.perf_counter()
        try:
            if tracer.enabled:
                text, obj = self._traced(tracer, job)
            else:
                text, obj = run_job(tracer, job)
        except Exception as exc:  # a failed job is data, not a harness error
            error = exc
        seconds = time.perf_counter() - t0
        known = job.defect == "window-past-limit" and isinstance(error, TableSizeError)
        failed = error is not None
        if error is not None and not known:
            self._problem(job, f"{type(error).__name__}: {error}")
        elif error is None and pass_no == 0:
            self.first_text[index] = text
        elif error is None and text != self.first_text.get(index):
            self._problem(job, "output differs from pass 1 of the same seed")
            failed = True
        self.records.append({"index": index, "pass": pass_no, "seconds": seconds,
                             "failed": failed,
                             "known_defect": job.defect if (failed and known) else None})
        self.after_job()

    def check_first_pass(self):
        """Check pass 1 against the references, after the timed passes.

        Jobs whose check needs the in-memory result run once more here, so
        that no result outlives its job while peak memory is measured.
        """
        from jobs import NEEDS_OBJECT, check_job, run_job
        from tracer import NullTracer

        for index, text in self.first_text.items():
            job = self.jobs[index]
            obj = None
            if job.kind in NEEDS_OBJECT:
                again, obj = run_job(NullTracer(), job)
                if again != text:
                    self._problem(job, "output differs when the job runs again")
            try:
                problems = check_job(job, text, obj)
            except Exception as exc:  # a broken output must not stop the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            del obj
            for p in problems:
                self._problem(job, p)
            if problems:
                for rec in self.records:
                    if rec["index"] == index and rec["pass"] == 0:
                        rec["failed"] = True

    @staticmethod
    def _traced(tracer, job):
        from jobs import run_job

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                return run_job(tracer, job)
            finally:
                family_file = os.path.join("threshold_lab", "families.py")
                tracer.count("families.runtime_warnings", sum(
                    1 for w in caught
                    if issubclass(w.category, RuntimeWarning) and w.filename.endswith(family_file)
                ))

    def _problem(self, job, message):
        self.correct = False
        if len(self.problems) < 50:
            self.problems.append(f"{job.label()}: {message}")

    def passes(self, count, tracer, pass_offset=0):
        for done in range(count):
            for i, job in enumerate(self.jobs):
                self.execute(job, i, pass_offset + done, tracer)

    def parity(self):
        """One in-process job per subcommand against ``python -m threshold_lab.cli``.

        The CLI runs through ``cli_probe.py``, which also reports its ``main()`` time.
        """
        seen = set()
        checked = []
        for i, job in enumerate(self.jobs):
            if not job.cli or job.defect or job.kind in seen or i not in self.first_text:
                continue
            seen.add(job.kind)
            res = run_cli(job.argv())
            same = res["code"] == 0 and res["stdout"] == self.first_text[i]
            main_s = res["probe"]["main_s"] if res["probe"] else None
            checked.append({"kind": job.kind, "same_bytes": same, "main_s": main_s})
            if not same:
                self._problem(job, "in-process bytes differ from the CLI's output")
        return checked


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of order statistics.

    Job times cluster by job kind, and the machine's speed drifts; the sample
    median then jumps between clusters from run to run, while this estimate
    moves smoothly with them.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x)))


def summarize(records, jobs) -> dict:
    ok = [r["seconds"] for r in records if not r["failed"]]
    n = len(ok)
    # the highest percentile with at least ten slower jobs; the maximum when there are fewer
    tail_p = (n - 10) / n if n > 10 else 1.0
    busy = sum(r["seconds"] for r in records)
    units = sum(jobs[r["index"]].units for r in records if not r["failed"])
    return {
        "job_p50_s": hd_quantile(ok, 0.5) if ok else None,
        "job_tail_s": (hd_quantile(ok, tail_p) if tail_p < 1.0 else max(ok)) if ok else None,
        "tail_percentile": 100.0 * tail_p,
        "tail_samples": n,
        "work_per_s": units / busy if busy else None,
        "sample_median_s": _median(ok),
        "slot_p50_s": [_median([r["seconds"] for r in records if r["index"] == i and not r["failed"]])
                       for i in range(len(jobs))],
        "job_seconds": [round(r["seconds"], 6) for r in records],
    }


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="job lists at a tenth of their size and one pass, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "threshold_lab", "cli.py")):
        sys.stderr.write(f"perfbench: no threshold_lab sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np

    from metrics import per_layer
    from tracer import NullTracer, Tracer
    from workloads import NOMINAL_PASS_S, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    setup = {}
    if args.trace:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setup["interp_start_s"] = interpreter_start_s(repeats)
        setup["import_scipy_s"] = scipy_import_s()

    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
        jobs = WORKLOADS[args.workload](rng, workdir, SMOKE_SCALE if args.smoke else 1.0)
        runner = Runner(jobs)
        share = args.seconds / 2 if args.trace else args.seconds
        count = 1 if args.smoke else max(1, round(share / NOMINAL_PASS_S[args.workload]))
        # the first pass lets lazy set-up finish (first calls into numpy and scipy)
        warmup = 0 if args.smoke else 1
        tracer = Tracer() if args.trace else None
        passes = warmup + count * (2 if tracer else 1)
        sampler = SetupSampler(1 if args.smoke else SETUP_SAMPLES,
                               passes * NOMINAL_PASS_S[args.workload])
        runner.after_job = sampler.tick
        sampler.tick()
        runner.passes(1, NullTracer())
        # peak over the first pass from a fresh process: later passes add only
        # allocator history (the same job peaked at 344 or 404 MB in pass 2)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runner.passes(warmup + count - 1, NullTracer(), pass_offset=1)
        if tracer:
            runner.passes(count, tracer, pass_offset=warmup + count)
        setup["import_samples_s"] = sampler.finish()
        setup["import_s"] = hd_quantile(setup["import_samples_s"], 0.5)
        t_check = time.perf_counter()
        runner.check_first_pass()
        check_s = time.perf_counter() - t_check
        # one parity check per subcommand is a property of the code, not of the
        # run, so only traced runs (and the smoke test) pay for it
        parity = runner.parity() if tracer or args.smoke else []
        records = runner.records
        timed = [r for r in records if r["pass"] >= warmup]
        summary = summarize(timed, jobs)
        attempted = len(records)
        failed = sum(r["failed"] for r in records) + sum(not p["same_bytes"] for p in parity)
        summary["first_pass_p50_s"] = _median(
            [r["seconds"] for r in records if r["pass"] == 0 and not r["failed"]])
        summary["later_passes_p50_s"] = _median(
            [r["seconds"] for r in records if r["pass"] > 0 and not r["failed"]])
        if tracer:
            plain = summarize([r for r in timed if r["pass"] < warmup + count], jobs)
            traced = [r for r in timed if r["pass"] >= warmup + count]
            overhead = summarize(traced, jobs)["job_p50_s"] / plain["job_p50_s"] - 1.0
            metrics = per_layer(tracer, count, setup, parity, overhead)
            tracer.dump(os.path.join(scratch, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics = {
                "setup_s": setup["import_s"],
                "job_p50_s": summary["job_p50_s"],
                "job_tail_s": summary["job_tail_s"],
                "work_per_s": summary["work_per_s"],
                "peak_rss_mb": peak_kb / 1024.0,
                "success_ratio": (attempted - failed) / attempted,
            }
        metrics = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in units.items()}
        defects = {}
        for r in records:
            if r["known_defect"]:
                defects[r["known_defect"]] = defects.get(r["known_defect"], 0) + 1
        report = {
            "provenance": provenance(args),
            "setup_samples_s": [round(v, 6) for v in setup["import_samples_s"]],
            "passes": count,
            "wall_s": {"jobs": sum(r["seconds"] for r in runner.records),
                       "setup_samples": sampler.spent, "checks": check_s,
                       "total": time.perf_counter() - started},
            "warmup_passes": warmup,
            "jobs_per_pass": len(jobs),
            "summary": summary,
            "known_defect_failures": defects,
            "cli_parity": parity,
            "problems": runner.problems,
        }
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": runner.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
