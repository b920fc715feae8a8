"""Metric names, units and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
a test keeps the two in step. Per-layer figures are per traced op: a count
or self time summed over every span of a kind, divided by the number of
traced ops. Self times of all layers plus ``bench.self_s`` add up to the
mean traced op time, plus ``trace.concurrent_s`` when sweep workers ran in
parallel.
"""

import statistics

import numpy as np

from perfbench import tracing

# name, unit, better, bound. Times are CPU seconds of the benchmark process
# (all its threads), each scaled by the calibration kernel timed on either
# side of it: on a shared host the hypervisor takes the CPU away for bursts
# of seconds, which stretches wall time by up to 2.7x, and the cores' speed
# drifts by a third over minutes (see README, "Why normalised CPU time").
END_TO_END = (
    ("op_p50_norm_s", "s", "lower", 0.25),
    ("op_tail_norm_s", "s", "lower", 0.25),
    ("ops_per_norm_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better
PER_LAYER = (
    ("specfun.calls", "count/op", "lower"),
    ("specfun.scalar_calls", "count/op", "lower"),
    ("specfun.args", "count/op", "lower"),
    ("specfun.self_s", "s/op", "lower"),
    ("geometry.self_s", "s/op", "lower"),
    ("geometry.pairwise_distances.self_s", "s/op", "lower"),
    ("geometry.is_circulant.calls", "count/op", "lower"),
    ("geometry.is_circulant.self_s", "s/op", "lower"),
    ("discrete.self_s", "s/op", "lower"),
    ("discrete.assemble.calls", "count/op", "lower"),
    ("discrete.assemble.self_s", "s/op", "lower"),
    ("discrete.assemble.block_bytes", "B", "lower"),
    ("discrete.solve.calls", "count/op", "lower"),
    ("discrete.solve_dft.self_s", "s/op", "lower"),
    ("discrete.solve_dense.self_s", "s/op", "lower"),
    ("discrete.solve_dense.gflop", "GFLOP/op", "lower"),
    ("discrete.solve_dense.gflops", "GFLOP/s", "higher"),
    ("discrete.q_sum_coefficients.self_s", "s/op", "lower"),
    ("fields.self_s", "s/op", "lower"),
    ("fields.field_from_discrete.calls", "count/op", "lower"),
    ("fields.field_from_discrete.self_s", "s/op", "lower"),
    ("fields.boundary_residuals.calls", "count/op", "lower"),
    ("fields.boundary_residuals.self_s", "s/op", "lower"),
    ("exact.self_s", "s/op", "lower"),
    ("exact.exact_field.calls", "count/op", "lower"),
    ("exact.exact_field.self_s", "s/op", "lower"),
    ("exact.terms", "count/op", "lower"),
    ("exact.converged_ratio", "ratio", "higher"),
    ("continuous.self_s", "s/op", "lower"),
    ("continuous.density_series.calls", "count/op", "lower"),
    ("continuous.density_series.self_s", "s/op", "lower"),
    ("continuous.reconstruct_fields_from_densities.self_s", "s/op", "lower"),
    ("continuous.mode_solve.calls", "count/op", "lower"),
    ("diagnostics.self_s", "s/op", "lower"),
    ("diagnostics.oscillation_scan.self_s", "s/op", "lower"),
    ("diagnostics.convergence_sweep.self_s", "s/op", "lower"),
    ("diagnostics.solves_per_size", "ratio", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.solve.wall_s", "s", "lower"),
    ("cli.fields.wall_s", "s", "lower"),
    ("cli.sweep.wall_s", "s", "lower"),
    ("cli.validate.wall_s", "s", "lower"),
    ("cli.load_config.self_s", "s/op", "lower"),
    ("cli.bytes_written", "B/op", "lower"),
    ("bench.self_s", "s/op", "lower"),
    ("check.max_rel_err", "ratio", "lower"),
    ("trace.op_cpu_p50_s", "s", "lower"),
    ("trace.untraced_op_cpu_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.op_mean_s", "s", "lower"),
    ("trace.concurrent_s", "s/op", "lower"),
    ("trace.spans", "count/op", "lower"),
)

# Reported nowhere as a metric, with the reason.
DROPPED = {
    "fail_ratio": (
        "0 on every workload by design (a workload must have no failing op), "
        "and a metric that reads 0 cannot carry a relative bound; the result's "
        "'attempted' and 'failed' fields carry it"
    ),
}

SPECFUN_LEAVES = ("specfun.bessel_j", "specfun.hankel2")
ASSEMBLERS = ("discrete.assemble_nfm", "discrete.assemble_mas")
# metric prefix -> the function it measures, where the two differ
FUNCTION_OF = {"discrete.solve_dft": "discrete.solve_circulant_dft"}


def tail(samples):
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile, n). With ten samples or fewer no such
    statistic exists and the minimum is returned with percentile 0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 11)
    percentile = 100.0 * (k + 1) / n if n > 10 else 0.0
    return ordered[k], percentile, n


def end_to_end(norms, setup_seconds, peak_rss_mb):
    """The END_TO_END metrics from normalised op and set-up times."""
    tail_value, _, _ = tail(norms)
    return {
        "op_p50_norm_s": statistics.median(norms),
        "op_tail_norm_s": tail_value,
        "ops_per_norm_s": len(norms) / sum(norms),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_seconds,
    }


def block_bytes(n_points):
    """Bytes of the four N x N complex128 blocks of one collocation system."""
    return 4 * n_points * n_points * 16


def medians_by(records, key, clock="wall_s"):
    """Median op time per value of ``key`` ("kind" or "label")."""
    times = {}
    for rec in records:
        times.setdefault(rec[key], []).append(rec[clock])
    return {value: statistics.median(t) for value, t in sorted(times.items())}


def percentile_ops(records):
    """Labels of the ops at the ranks op_p50_norm_s and op_tail_norm_s read."""
    ordered = sorted(records, key=lambda rec: rec["norm_s"])
    n = len(ordered)
    ranks = {"op_p50_norm_s": sorted({(n - 1) // 2, n // 2}), "op_tail_norm_s": [max(0, n - 11)]}
    return {name: [ordered[k]["label"] for k in ks] for name, ks in ranks.items()}


def cli_walls(records):
    """Per-command medians of op wall time; validate is its four groups summed."""
    by_kind, by_label = medians_by(records, "kind"), medians_by(records, "label")
    return {
        "cli.solve.wall_s": by_kind.get("solve", 0.0),
        "cli.fields.wall_s": by_kind.get("fields", 0.0),
        "cli.sweep.wall_s": by_kind.get("sweep", 0.0),
        "cli.validate.wall_s": sum(
            wall for label, wall in by_label.items() if label.startswith("validate ")
        ),
    }


def per_layer(spans, names, traced, untraced):
    """Every PER_LAYER metric from the spans of the traced ops.

    traced and untraced are the op records of the two halves of a traced
    run; each traced op repeats the untraced op next to it.
    """
    n_ops = len(traced)
    names = np.array(names)
    span_names = names[spans[:, tracing.NAME].astype(np.int64)]
    layer_names = np.array([tracing.layer_of(n) for n in names])
    layers = layer_names[spans[:, tracing.NAME].astype(np.int64)]
    parent = tracing.parent_rows(spans)
    selfs = tracing.self_times(spans)
    duration = spans[:, tracing.END] - spans[:, tracing.START]
    work = spans[:, tracing.WORK]
    entry = (parent >= 0) & (layers != np.where(parent >= 0, layers[parent], ""))

    def named(*wanted):
        return np.isin(span_names, wanted)

    def per_op(total):
        return float(total) / n_ops

    def self_of(mask):
        return per_op(selfs[mask].sum())

    out = {}
    for layer in ("bench",) + tracing.LAYERS:
        out["%s.self_s" % layer] = self_of(layers == layer)

    specfun = (layers == "specfun") & entry
    out["specfun.calls"] = per_op(specfun.sum())
    out["specfun.scalar_calls"] = per_op((specfun & (work == 1.0)).sum())
    out["specfun.args"] = per_op(work[named(*SPECFUN_LEAVES)].sum())

    for key in (
        "geometry.pairwise_distances",
        "geometry.is_circulant",
        "discrete.solve_dft",
        "discrete.solve_dense",
        "discrete.q_sum_coefficients",
        "fields.field_from_discrete",
        "fields.boundary_residuals",
        "exact.exact_field",
        "continuous.density_series",
        "continuous.reconstruct_fields_from_densities",
        "diagnostics.oscillation_scan",
        "diagnostics.convergence_sweep",
        "cli.load_config",
    ):
        mask = named(FUNCTION_OF.get(key, key))
        out[key + ".calls"] = per_op(mask.sum())
        out[key + ".self_s"] = self_of(mask)

    assemble = named(*ASSEMBLERS)
    out["discrete.assemble.calls"] = per_op(assemble.sum())
    out["discrete.assemble.self_s"] = self_of(assemble)
    sizes = work[assemble]
    out["discrete.assemble.block_bytes"] = float(np.mean(block_bytes(sizes))) if sizes.size else 0.0
    out["discrete.solve.calls"] = per_op(named("discrete.solve").sum())

    dense = named("discrete.solve_dense")
    gflop = (8.0 / 3.0) * (2.0 * work[dense]) ** 3 / 1e9
    out["discrete.solve_dense.gflop"] = per_op(gflop.sum())
    busy = duration[dense].sum()
    out["discrete.solve_dense.gflops"] = float(gflop.sum() / busy) if busy > 0 else 0.0

    series = named("exact.exact_field")
    out["exact.terms"] = per_op(work[series].sum())
    out["exact.converged_ratio"] = float(spans[series, tracing.OK].mean()) if series.any() else 1.0
    out["continuous.mode_solve.calls"] = per_op(named("continuous.mode_solve").sum())
    out["diagnostics.solves_per_size"] = _solves_per_size(spans, span_names, traced)

    out.update(cli_walls(untraced))
    out["cli.bytes_written"] = per_op(sum(r["bytes_written"] for r in traced))
    out["check.max_rel_err"] = max(r["error"] for r in traced + untraced)

    roots = span_names == tracing.ROOT
    out["trace.op_cpu_p50_s"] = statistics.median(r["cpu_s"] for r in traced)
    out["trace.untraced_op_cpu_p50_s"] = statistics.median(r["cpu_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.op_cpu_p50_s"] - out["trace.untraced_op_cpu_p50_s"]
    # spans are wall time, so the layers' self times add up to this mean
    out["trace.op_mean_s"] = statistics.fmean(r["wall_s"] for r in traced)
    out["trace.concurrent_s"] = per_op(selfs.sum() - duration[roots].sum())
    out["trace.spans"] = per_op(len(spans))
    return {name: out[name] for name, _, _ in PER_LAYER}


def _solves_per_size(spans, span_names, traced):
    """discrete.solve calls per distinct N, over the sweep ops."""
    sweep_ops = {r["op"] for r in traced if r["kind"] == "sweep"}
    solves = span_names == "discrete.solve"
    total_solves, total_sizes = 0, 0
    for op in sweep_ops:
        mine = solves & (spans[:, tracing.OP] == op)
        total_solves += int(mine.sum())
        total_sizes += len(set(spans[mine, tracing.WORK].tolist()))
    return total_solves / total_sizes if total_sizes else 0.0
