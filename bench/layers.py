"""Per-layer metrics of the traced run, computed from its spans.

Metric names follow the package modules; ``_rootfind`` and ``_quad``
appear as ``rootfind`` and ``quad`` because a metric name must start with a
letter or digit.  Times are busy time per call (inclusive span duration
over the number of calls); the call count is reported with each.
"""

from __future__ import annotations

import statistics

from tracing import OP, by_name, count_children, self_time_by_layer
from workloads import KINDS, N_EIGS, SCAN_POINTS

# metric name -> (span name, unit, multiplier applied to seconds per call)
SPAN_METRICS = {
    "sturm.SLProblem.init_s": ("sturm.SLProblem.init", "s", 1.0),
    "sturm.eigen_solve_s": ("sturm.eigen_solve", "s", 1.0),
    "sturm.eigen_solve.per_eigenpair_s": ("sturm.eigen_solve", "s", 1.0 / N_EIGS),
    "sturm.characteristic_s": ("sturm.characteristic", "s", 1.0),
    "sturm.characteristic_many.per_lambda_s": ("sturm.characteristic_many", "s", 1.0 / SCAN_POINTS),
    "sturm.node_count_s": ("sturm.node_count", "s", 1.0),
    "sturm.solve_theta.picard_s": ("sturm.solve_theta.picard", "s", 1.0),
    "sturm.EigenBasis.coefficient_s": ("sturm.EigenBasis.coefficient", "s", 1.0),
    "rootfind.refine_root_s": ("rootfind.refine_root", "s", 1.0),
    "waves1d.string_modes_s": ("waves1d.string_modes", "s", 1.0),
    "waves1d.ModalSolution.eval_s": ("waves1d.ModalSolution.eval", "s", 1.0),
    "heat1d.heat_interval_modes_s": ("heat1d.heat_interval_modes", "s", 1.0),
    "heat1d.HeatModalSolution.eval_s": ("heat1d.HeatModalSolution.eval", "s", 1.0),
    "intervals.uniform_basis_s": ("intervals.uniform_basis", "s", 1.0),
    "beams.beam_response_s": ("beams.beam_response", "s", 1.0),
    "geomnd.expand_series.fourier_bessel_s": ("geomnd.expand_series.fourier_bessel", "s", 1.0),
    "geomnd.expand_series.legendre_s": ("geomnd.expand_series.legendre", "s", 1.0),
    "geomnd.SeriesExpansion.reconstruct_s": ("geomnd.SeriesExpansion.reconstruct", "s", 1.0),
    "geomnd.cylinder_cooling_s": ("geomnd.cylinder_cooling", "s", 1.0),
    "geomnd.ball_solution.axisym_cooling_s": ("geomnd.ball_solution.axisym_cooling", "s", 1.0),
    "geomnd.ball_solution.laplace_dirichlet_s": ("geomnd.ball_solution.laplace_dirichlet", "s", 1.0),
    "geomnd.disk_axisym_solution_s": ("geomnd.disk_axisym_solution", "s", 1.0),
    "specfun.bessel_j.series_ns": ("specfun.bessel_j.series", "ns", 1e9),
    "specfun.bessel_j.hankel_ns": ("specfun.bessel_j.hankel", "ns", 1e9),
    "specfun.bessel_j.recurrence_ns": ("specfun.bessel_j.recurrence", "ns", 1e9),
    "specfun.bessel_n_ns": ("specfun.bessel_n", "ns", 1e9),
    "specfun.spherical_bessel_ns": ("specfun.spherical_bessel", "ns", 1e9),
    "specfun.legendre_ns": ("specfun.legendre", "ns", 1e9),
    "specfun.assoc_legendre_ns": ("specfun.assoc_legendre", "ns", 1e9),
    "quad.fixed_gauss.scalar_s": ("quad.fixed_gauss.scalar", "s", 1.0),
    "quad.fixed_gauss.vector_s": ("quad.fixed_gauss.vector", "s", 1.0),
    "specfun.zero_table.cold_s": ("specfun.zero_table.cold", "s", 1.0),
    "specfun.zero_table.warm_s": ("specfun.zero_table.warm", "s", 1.0),
    "cli.import_s": ("cli.import", "s", 1.0),
    "cli.parse_problem_file_s": ("cli.parse_problem_file", "s", 1.0),
    "cli.validate_problem_s": ("cli.validate_problem", "s", 1.0),
    **{f"cli.runner.{k}_s": (f"cli.runner.{k}", "s", 1.0) for k in KINDS},
    "cli.render_s": ("cli.render", "s", 1.0),
}

# Metrics that are not a plain span mean, and how each is obtained.
DERIVED = {
    "sturm.eigen_solve.sweep_equiv": ("ratio", "computed ratio: per_eigenpair_s / characteristic_s, the RK4 sweeps one eigenpair costs"),
    "rootfind.refine_root.evals_per_root": ("count", "characteristic calls inside each refine_root, counted by wrapping the benchmark's own callable"),
    "cli.runner_share": ("ratio", "runner span time over the wall time of the traced child processes"),
    "trace.op_p50_overhead_s": ("s", "traced op_p50_s minus untraced op_p50_s over the same operations of this run"),
}

# How metrics that the package does not expose are measured from outside.
NOTES = {
    "sturm.node_count_s": "probe: one public node_count call at lambda_1 after each operation; the phase sweeps inside eigen_solve are not visible from outside",
    "intervals.uniform_basis_s": "probe: one public uniform_basis call with the operation's heat-problem ends; string_modes and heat_interval_modes build theirs inside",
    "specfun.*_ns, quad.*, specfun.zero_table.*": "probes: batches of public calls once per traced run; inside geomnd and beams these calls are not visible from outside",
}

PER_LAYER_UNITS = {name: unit for name, (_, unit, _) in SPAN_METRICS.items()}
PER_LAYER_UNITS.update({name: unit for name, (unit, _) in DERIVED.items()})


def compute(tr, overhead_s: float) -> tuple[dict, dict, dict]:
    """(metrics, calls, missing): metric -> value, metric -> call count, and
    metric -> reason for every metric this run could not measure."""
    durations = by_name(tr.spans)
    metrics, calls, missing = {}, {}, {}

    def per_call(span: str) -> tuple[float, int] | None:
        durs = durations.get(span)
        if not durs:
            return None
        n = tr.calls.get(span, len(durs))
        return sum(durs) / n, n

    for metric, (span, _unit, scale) in SPAN_METRICS.items():
        got = per_call(span)
        if got is None:
            missing[metric] = f"no {span} span in this run"
            continue
        metrics[metric] = got[0] * scale
        calls[metric] = got[1]
    if "sturm.eigen_solve.per_eigenpair_s" in metrics and "sturm.characteristic_s" in metrics:
        metrics["sturm.eigen_solve.sweep_equiv"] = (
            metrics["sturm.eigen_solve.per_eigenpair_s"] / metrics["sturm.characteristic_s"])
        calls["sturm.eigen_solve.sweep_equiv"] = calls["sturm.eigen_solve_s"] * N_EIGS
    else:
        missing["sturm.eigen_solve.sweep_equiv"] = "needs eigen_solve and characteristic spans"
    evals = count_children(tr.spans, "rootfind.refine_root", "sturm.characteristic")
    if evals:
        metrics["rootfind.refine_root.evals_per_root"] = statistics.fmean(evals)
        calls["rootfind.refine_root.evals_per_root"] = len(evals)
    else:
        missing["rootfind.refine_root.evals_per_root"] = "no refine_root span in this run"
    runner = sum(sum(d) for name, d in durations.items() if name.startswith("cli.runner."))
    child = durations.get("cli.child")
    if child:
        metrics["cli.runner_share"] = runner / sum(child)
        calls["cli.runner_share"] = len(child)
    else:
        missing["cli.runner_share"] = "no traced CLI child in this run"
    metrics["trace.op_p50_overhead_s"] = overhead_s
    return metrics, calls, missing


def self_times(tr, workload: str) -> dict[str, float]:
    """Total self time per layer over the traced operations of ``workload``
    (the layer pass and probes left out), with the package's module names."""
    rename = {"rootfind": "_rootfind", "quad": "_quad"}
    own = [rec for rec in tr.spans if rec[OP] is not None and rec[OP].startswith(workload + "/")]
    return {rename.get(k, k): v for k, v in self_time_by_layer(own).items()}
