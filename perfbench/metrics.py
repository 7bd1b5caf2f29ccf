"""Per-layer metrics of a traced run, named after the package module they measure.

Counts and seconds are per pass of the workload's job list, so they do not
grow when a faster program fits more passes into a run.  Ratios and
per-call figures are taken over the whole traced half.  Spans are recorded
only around the benchmark's own calls, so a layer reads zero on a workload
that does not call it.  The names and units are declared in BENCHMARK.json.
"""

from __future__ import annotations

#: Public calls whose time is, in Monte Carlo mode, the time of ``mc_estimate`` calls.
_MC_DRIVERS = ("threshold.scan_path", "threshold.simplex_sweep", "threshold.jury_experiment")


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer(tracer, passes, setup, parity, overhead) -> dict:
    """Value of every per-layer metric, by name."""
    values = {}
    count = tracer.counts

    def spans(name, tag=None):
        return tracer.totals(name, tag)

    def per_pass(value):
        return value / passes

    values["cli.import_s"] = setup["import_s"]
    values["cli.import_scipy_s"] = setup["import_scipy_s"]
    values["cli.interp_start_s"] = setup["interp_start_s"]
    # one CLI run per subcommand, from the parity check
    values["cli.main_s"] = sum(p["main_s"] or 0.0 for p in parity)

    calls, s, *_ = spans("families.build")
    values["families.build.calls"] = per_pass(calls)
    values["families.build.s"] = per_pass(s)
    calls, s, *_ = spans("families.exact_prob")
    values["families.exact_prob.calls"] = per_pass(calls)
    values["families.exact_prob.s"] = per_pass(s)
    values["families.exact_prob.us_per_call"] = _ratio(s, calls, 1e6)
    values["families.exact_available_ratio"] = _ratio(
        count["families.exact_available"], count["families.exact_requested"]
    )
    calls, s, _, points = spans("families.batch")
    values["families.batch.calls"] = per_pass(calls)
    values["families.batch.points"] = per_pass(points)
    values["families.batch.s"] = per_pass(s)
    values["families.batch.points_per_s"] = _ratio(points, s)
    values["families.runtime_warnings"] = per_pass(count["families.runtime_warnings"])

    calls, s, own, _ = spans("core.tabulate")
    *_, entries = tracer.descendants("families.batch", lambda sp: sp.name == "core.tabulate")
    values["core.tabulate.calls"] = per_pass(calls)
    values["core.tabulate.entries"] = per_pass(entries)
    values["core.tabulate.s"] = per_pass(s)
    values["core.tabulate.self_s"] = per_pass(own)

    _, s, own, _ = spans("threshold.scan_path")
    values["threshold.scan_path.s"] = per_pass(s)
    values["threshold.scan_path.self_s"] = per_pass(own)
    s = spans("threshold.threshold_window")[1]
    evals, *_ = tracer.descendants("families.exact_prob", lambda sp: sp.name == "threshold.threshold_window")
    values["threshold.threshold_window.s"] = per_pass(s)
    values["threshold.threshold_window.evals"] = per_pass(evals)
    _, s, own, _ = spans("threshold.simplex_sweep")
    values["threshold.simplex_sweep.s"] = per_pass(s)
    values["threshold.simplex_sweep.self_us_per_sample"] = _ratio(
        own, count["threshold.simplex_sweep.samples"], 1e6
    )
    mc_s = sum(spans(name, "mc")[1] for name in _MC_DRIVERS)
    _, mc_batch_s, mc_samples = tracer.descendants(
        "families.batch", lambda sp: sp.name in _MC_DRIVERS and sp.tag == "mc"
    )
    values["threshold.mc_estimate.calls"] = per_pass(count["threshold.mc_estimate.calls"])
    values["threshold.mc_estimate.samples"] = per_pass(mc_samples)
    values["threshold.mc_estimate.s"] = per_pass(mc_s)
    values["threshold.mc_estimate.self_s"] = per_pass(mc_s - mc_batch_s)
    values["threshold.jury_experiment.s"] = per_pass(spans("threshold.jury_experiment")[1])
    values["threshold.russo_report.s"] = per_pass(spans("threshold.russo_report")[1])

    calls, s, *_ = spans("decomposition.efron_stein")
    values["decomposition.efron_stein.calls"] = per_pass(calls)
    values["decomposition.efron_stein.s"] = per_pass(s)
    values["decomposition.efron_stein.bytes_computed"] = per_pass(
        count["decomposition.efron_stein.bytes_computed"]
    )
    for name in ("influence_report", "talagrand_report", "verify_hypercontractivity"):
        values[f"decomposition.{name}.s"] = per_pass(spans(f"decomposition.{name}")[1])

    for name in ("check_monotone", "check_fair", "check_symmetric"):
        values[f"checks.{name}.s"] = per_pass(spans(f"checks.{name}")[1])
    values["checks.entries"] = per_pass(count["checks.entries"])

    values["social_choice.saari_search.s"] = per_pass(spans("social_choice.saari_search")[1])
    values["social_choice.indeterminacy_experiment.s"] = per_pass(
        spans("social_choice.indeterminacy_experiment")[1]
    )
    values["social_choice.voter_draws"] = per_pass(count["social_choice.voter_draws"])

    values["fileio.dumps.s"] = per_pass(spans("fileio.dumps")[1])
    values["fileio.dumps.bytes"] = per_pass(count["fileio.dumps.bytes"])
    values["fileio.curve_to_csv.s"] = per_pass(spans("fileio.curve_to_csv")[1])
    values["trace.overhead_ratio"] = overhead
    return values
