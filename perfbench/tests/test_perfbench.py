"""Tests of the benchmark itself: generator, tracer, metrics and a smoke run.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import calibration, metrics, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MODULES = [importlib.import_module("cylwave")] + [
    importlib.import_module("cylwave." + layer) for layer in tracing.LAYERS
]


# -- seeded generator ----------------------------------------------------------


@pytest.mark.parametrize("prepare", [workloads.prepare_circle, workloads.prepare_ellipse])
def test_solver_pools_are_deterministic_per_seed(prepare):
    first, again, other = prepare(3), prepare(3), prepare(4)
    assert first.inputs == again.inputs
    assert first.inputs != other.inputs
    assert len(set(first.inputs)) == workloads.POOL_SIZE
    assert [op.kind for op in first.pool].count("nfm") == workloads.POOL_SIZE // 2


def test_cli_configs_are_deterministic_per_seed(tmp_path):
    presets = os.path.join(ROOT, "presets")

    def configs(seed, where):
        plan = workloads.prepare_cli(seed, str(where), presets)
        folder = os.path.join(str(where), "configs")
        files = {}
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), "rb") as handle:
                files[name] = handle.read()
        return plan.inputs, files

    first, again, other = configs(5, tmp_path / "a"), configs(5, tmp_path / "b"), configs(6, tmp_path / "c")
    assert first == again
    assert first != other
    # one config per copy of a preset, four validate groups without one
    assert len(first[1]) == 15
    assert len(set(first[0])) == 19


# -- self-time arithmetic ------------------------------------------------------------


def _span(span_id, parent, start, end, thread=0, name=0):
    row = [0.0] * len(tracing.COLUMNS)
    row[tracing.ID], row[tracing.PARENT] = span_id, parent
    row[tracing.START], row[tracing.END] = start, end
    row[tracing.THREAD], row[tracing.NAME] = thread, name
    return row


def test_self_time_subtracts_nested_children():
    spans = np.array(
        [
            _span(2, 1, 2.0, 3.0),  # rows arrive in end order, not id order
            _span(1, 0, 1.0, 4.0),
            _span(3, 0, 5.0, 6.0),
            _span(0, -1, 0.0, 10.0),
        ]
    )
    assert tracing.self_times(spans) == pytest.approx([1.0, 2.0, 1.0, 6.0])
    assert tracing.self_times(spans).sum() == pytest.approx(10.0)


def test_self_time_counts_overlapping_worker_children_once():
    spans = np.array(
        [
            _span(0, -1, 0.0, 10.0, thread=0),
            _span(1, 0, 1.0, 5.0, thread=1),
            _span(2, 0, 3.0, 7.0, thread=2),
            _span(3, 0, 8.0, 9.0, thread=0),
        ]
    )
    selfs = tracing.self_times(spans)
    # children cover [1, 7] and [8, 9]: 7 of the parent's 10 seconds
    assert selfs == pytest.approx([3.0, 4.0, 4.0, 1.0])
    concurrent = selfs.sum() - 10.0
    assert concurrent == pytest.approx(2.0)


def test_tail_is_the_order_statistic_with_ten_samples_above():
    value, percentile, n = metrics.tail(list(range(24)))
    assert (value, n) == (13, 24)
    assert percentile == pytest.approx(100.0 * 14 / 24)
    assert metrics.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)


@pytest.mark.parametrize("kind", sorted(calibration.KERNELS))
def test_normalised_time_scales_by_the_kernel_times_around_it(kind):
    ref = calibration.KERNELS[kind][1]
    assert calibration.normalised(1.0, ref, ref, kind) == pytest.approx(1.0)
    # a host running at half speed doubles both the op and the kernel
    assert calibration.normalised(2.0, 2 * ref, 2 * ref, kind) == pytest.approx(1.0)
    assert calibration.normalised(1.0, ref, 3 * ref, kind) == pytest.approx(0.5)
    assert calibration.seconds(kind) > 0


# -- tracer wrappers -----------------------------------------------------------------


def _bindings():
    return {
        (module.__name__, attr): obj
        for module in MODULES
        for attr, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
    }


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from cylwave import cli, continuous, diagnostics, discrete, exact, fields

        assert fields.monopole_matrix is discrete.monopole_matrix
        assert fields.dipole_matrix is discrete.dipole_matrix
        assert cli.exact_field is exact.exact_field is diagnostics.exact_field
        assert continuous.incident_field is exact.incident_field
        for (module, attr), original in before.items():
            now = getattr(sys.modules[module], attr)
            public = not attr.startswith("_") and original.__module__.startswith("cylwave.")
            if public:
                assert now is not original and now.__wrapped__ is original, (module, attr)
            else:
                assert now is original, (module, attr)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tracer.install()  # a clean uninstall allows a fresh install
    tracer.uninstall()


def _circle_case(n_points=24):
    from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

    curve = BoundaryCurve.circle(2.0)
    return (
        curve,
        AuxiliarySurface.from_radius(curve, 1.5),
        AuxiliarySurface.from_radius(curve, 2.5),
        Excitation("external", 4.0, 0.3),
        n_points,
    )


def _ellipse_case(n_points=24):
    from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

    curve = BoundaryCurve.ellipse(2.0, 1.6)
    return (
        curve,
        AuxiliarySurface.from_scale(curve, 0.7),
        AuxiliarySurface.from_scale(curve, 1.4),
        Excitation("external", 4.0, 0.3),
        n_points,
    )


@pytest.mark.parametrize("case", [_circle_case, _ellipse_case])
@pytest.mark.parametrize("route", ["nfm", "mas"])
def test_traced_and_untraced_solves_are_bit_identical(case, route):
    curve, inner, outer, excitation, n = case()
    points = workloads._ring_points(((8.0, 1), (1.0, 2)))

    def solve():
        return workloads._solve_and_sample(route, curve, inner, outer, excitation, n, points)

    plain = solve()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            traced = solve()
    finally:
        tracer.uninstall()
    assert plain[0] == traced[0]
    for a, b in zip(plain[1:], traced[1:]):
        assert a.tobytes() == b.tobytes()
    assert len(tracer.spans()) > 10


def test_spans_record_work_and_add_up_to_the_op():
    curve, inner, outer, excitation, n = _circle_case(16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(7):
            workloads._solve_and_sample("nfm", curve, inner, outer, excitation, n, [(8.0, 1, 0.1)])
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = np.array(tracer.names)[spans[:, tracing.NAME].astype(int)]
    assert set(spans[:, tracing.OP]) == {7.0}
    assemble = spans[names == "discrete.assemble_nfm"]
    assert assemble[:, tracing.WORK].tolist() == [16.0]
    # 4 blocks of N x N kernels, one N-vector right side
    hankel = spans[names == "specfun.hankel2", tracing.WORK]
    assert hankel.sum() >= 4 * 16 * 16 + 16
    root = spans[names == tracing.ROOT][0]
    assert tracing.self_times(spans).sum() == pytest.approx(root[tracing.END] - root[tracing.START])


def test_sweep_worker_spans_are_attributed_to_their_command(monkeypatch):
    from cylwave import diagnostics
    from cylwave.exact import Medium

    monkeypatch.setenv("CYLWAVE_THREADS", "2")
    curve, inner, outer, excitation, _ = _circle_case()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(3):
            diagnostics.oscillation_scan(
                "nfm", (curve, inner, outer), excitation, (Medium(), Medium(4.2)), [12, 16, 20]
            )
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = np.array(tracer.names)[spans[:, tracing.NAME].astype(int)]
    parent = tracing.parent_rows(spans)
    scan_row = int(np.flatnonzero(names == "diagnostics.oscillation_scan")[0])
    solves = np.flatnonzero(names == "discrete.solve")
    assert len(solves) == 3
    assert set(spans[:, tracing.OP]) == {3.0}
    workers = solves[spans[solves, tracing.THREAD] != spans[scan_row, tracing.THREAD]]
    assert len(workers) == 3
    assert all(parent[row] == scan_row for row in workers)


# -- BENCHMARK.json and runs -----------------------------------------------------------


def test_benchmark_json_declares_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("circle-dft", 0), ("ellipse-dense", 0), ("cli-presets", 0), ("cli-presets", 1)],
)
def test_smoke_run(workload, trace):
    done = _run(["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    run = json.loads(done.stdout.splitlines()[-2])["run"]
    pool = workloads.POOL_SIZE if workload != "cli-presets" else 19
    assert len(run["pool"]) == pool and run["rounds"] == 1
    assert result["attempted"] == pool * (1 + trace)  # one whole round
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in declared]
    assert run["environment"]["OPENBLAS_NUM_THREADS"] == str(run["environment"]["blas_threads_set"])


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("work", "out", "__pycache__"),
    )
    done = _run(["--workload", "circle-dft", "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
