"""Run one cylwave benchmark workload and print its metrics as JSON.

From the root of a checkout:

    python3 perfbench/run.py --workload circle-dft --seed 1 --seconds 25 --trace 0

Load is a closed loop: one client in this process, each op starting when
the previous one has finished and been checked. A run is a fixed number of
whole rounds of the pool, set by ``--seconds`` alone (see ``rounds_for``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, once plain and once through the tracer, and prints the per-layer
metrics. The last line of standard output is the result; the line before
it describes the run (environment block, pool, sample counts, tail
percentile, median op time per command kind and per input).
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PRESETS = os.path.join(ROOT, "presets")
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("circle-dft", "ellipse-dense", "cli-presets")
# Set-ups per run; setup_s is their median. cli-presets set-up is almost
# all the fresh-interpreter import (about 0.5 s), the noisiest part, so it
# takes more repeats.
SETUP_REPEATS = {"circle-dft": 5, "ellipse-dense": 5, "cli-presets": 9}
# Normalised CPU seconds one round of each pool took when this benchmark was
# added. A run lasts round(--seconds / this) whole rounds, so its sample
# count, and the percentile op_tail_norm_s reports, depend on --seconds
# alone and are the same on every commit.
ROUND_SECONDS = {"circle-dft": 8.0, "ellipse-dense": 8.6, "cli-presets": 9.2}
# The calibration kernel (calibration.KERNELS) whose work is most like each
# workload's ops.
KERNEL = {"circle-dft": "vector", "ellipse-dense": "vector", "cli-presets": "scalar"}

sys.path.insert(0, ROOT)
from perfbench import environment  # noqa: E402  (stdlib only; must precede numpy)

# Times the import in a fresh interpreter, then a calibration kernel three
# times in that same process: a child may run on another core, at another
# speed, than this process.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.process_time()\n"
    "import numpy, scipy.linalg, scipy.special, cylwave.cli\n"
    "t = time.process_time() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from perfbench import calibration\n"
    "print(t, *sorted(calibration.seconds(sys.argv[3]) for _ in range(3)))\n"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cylwave():
    """Import cylwave from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cylwave", "__init__.py")):
        raise BenchmarkError("no cylwave sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import cylwave

    where = os.path.dirname(os.path.dirname(os.path.abspath(cylwave.__file__)))
    if where != SRC:
        raise BenchmarkError("cylwave was imported from %s, not %s" % (where, SRC))


def child_import_seconds(kind):
    """CPU time to import numpy, scipy and cylwave in a fresh interpreter:
    (raw, normalised by the median of the child's three kernel times)."""
    from perfbench import calibration

    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, ROOT, kind],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchmarkError("import probe failed: %s" % done.stderr.strip()[-500:])
    cpu, _, kernel_s, _ = (float(word) for word in done.stdout.split()[-4:])
    return cpu, calibration.normalised(cpu, kernel_s, kernel_s, kind)


def execute(op, op_id, tracer=None):
    """Run one op (timed), then check it (untimed). Returns its record."""
    from perfbench.workloads import Verdict

    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            output = op.run()
        else:
            with tracer.op(op_id):
                output = op.run()
    except Exception as exc:  # a raising op is a failed op, never a lost one
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        verdict = Verdict(0.0, "raised %s: %s" % (type(exc).__name__, exc))
    else:
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        verdict = op.check(output)
        del output
    return {
        "op": op_id,
        "kind": op.kind,
        "label": op.label,
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "error": verdict.error,
        "problem": verdict.problem,
        "bytes_written": verdict.bytes_written,
        "digest": verdict.digest,
    }


def rounds_for(workload, seconds, trace=0):
    """Whole rounds in a run. A traced run runs every op twice, so it takes
    half as many rounds (rounded up) to last about as long."""
    rounds = max(1, int(round(seconds / ROUND_SECONDS[workload])))
    return (rounds + 1) // 2 if trace else rounds


def set_up(workload, seed):
    """Import probe, inputs, references and one warm-up op, SETUP_REPEATS times.

    Returns the plan, each repetition's normalised CPU time, the raw CPU
    times, and any problems. The import is normalised in the child that
    ran it, the rest by the kernel run before and after it here.
    """
    from perfbench import calibration, workloads

    kind = KERNEL[workload]
    totals, raw, problems, plan = [], [], [], None
    shutil.rmtree(WORK, ignore_errors=True)
    calibration.seconds(kind)  # the first call pays one-off start-up costs
    for _ in range(SETUP_REPEATS[workload]):
        import_s, import_norm = child_import_seconds(kind)
        before = calibration.seconds(kind)
        start = time.process_time()
        plan = workloads.prepare(workload, seed, WORK, PRESETS)
        warm = execute(plan.warmup, -1)
        cpu = time.process_time() - start
        after = calibration.seconds(kind)
        raw.append(import_s + cpu)
        totals.append(import_norm + calibration.normalised(cpu, before, after, kind))
        if warm["problem"]:
            problems.append("warm-up %s: %s" % (warm["label"], warm["problem"]))
    return plan, totals, raw, problems


def closed_loop(plan, seed, rounds, kind, tracer=None):
    """Run ``rounds`` whole rounds of the pool back to back.

    Each round runs every op of the pool once, in a fresh seeded order, so
    every run sees the same mix of ops whatever its length. Without a
    tracer every op runs once. With one, every op runs twice in a row,
    plain and traced, alternating which goes first; the two results must
    be bit-identical. The calibration kernel ``kind`` runs before the first
    op and after every op (or pair), and each record's ``norm_s`` is its
    CPU time normalised by the kernel times on either side. Returns the
    records, the loop's wall time and the kernel times.
    """
    from perfbench import calibration

    rng = random.Random(seed)
    records, kernel_s = [], [calibration.seconds(kind)]
    start = time.perf_counter()
    for _ in range(rounds):
        order = list(plan.pool)
        rng.shuffle(order)
        for op in order:
            if tracer is None:
                records.append(execute(op, len(records)))
                _normalise(records[-1:], kernel_s, kind)
                continue
            pair = []
            plain_first = (len(records) // 2) % 2 == 0
            for traced in (False, True) if plain_first else (True, False):
                if traced:
                    tracer.install()
                    try:
                        pair.append(execute(op, len(records) + len(pair), tracer))
                    finally:
                        tracer.uninstall()
                else:
                    pair.append(execute(op, len(records) + len(pair)))
            if pair[0]["digest"] != pair[1]["digest"] and not (pair[0]["problem"] or pair[1]["problem"]):
                for rec in pair:
                    rec["problem"] = "traced and untraced results differ"
            _normalise(pair, kernel_s, kind)
            records += pair
    return records, time.perf_counter() - start, kernel_s


def _normalise(recs, kernel_s, kind):
    """Run the kernel once more and set ``norm_s`` on the records just run."""
    from perfbench import calibration

    kernel_s.append(calibration.seconds(kind))
    for rec in recs:
        rec["norm_s"] = calibration.normalised(rec["cpu_s"], kernel_s[-2], kernel_s[-1], kind)


def main(argv=None):
    args = _parse(argv)
    threads = environment.pin_threads()
    try:
        import_cylwave()
        from perfbench import calibration, metrics, tracing

        plan, setup_times, setup_cpus, problems = set_up(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        rounds = rounds_for(args.workload, args.seconds, args.trace)
        kind = KERNEL[args.workload]
        records, loop_s, kernel_s = closed_loop(plan, args.seed, rounds, kind, tracer)
    except (BenchmarkError, ImportError, OSError) as exc:
        print("perfbench: %s" % (exc,), file=sys.stderr)
        return 2

    norms = [r["norm_s"] for r in records]
    failed = [r for r in records if r["problem"]]
    _, tail_pct, n = metrics.tail(norms)
    timed = records if not args.trace else [r for r in records if not r["traced"]]
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "n_points": plan.n_points,
        "working_set_bytes": metrics.block_bytes(plan.n_points),
        "pool": plan.inputs,
        "samples": n,
        "tail_percentile": round(tail_pct, 1),
        "loop_wall_s": loop_s,
        "op_wall_p50_s": statistics.median(r["wall_s"] for r in timed),
        "op_cpu_p50_s": statistics.median(r["cpu_s"] for r in timed),
        "calibration_median_s": statistics.median(kernel_s),
        "calibration_kernel": kind,
        "speed_factor": calibration.speed_factor(kernel_s, kind),
        "op_norm_p50_s_by_kind": metrics.medians_by(timed, "kind", "norm_s"),
        "op_norm_p50_s_by_input": metrics.medians_by(timed, "label", "norm_s"),
        "percentile_ops": metrics.percentile_ops(records),
        "setup_repeats_s": setup_times,
        "setup_repeats_cpu_s": setup_cpus,
        "problems": (problems + ["%s: %s" % (r["label"], r["problem"]) for r in failed])[:20],
        "dropped_metrics": metrics.DROPPED,
        "environment": environment.describe(threads),
    }
    if args.trace:
        spans = tracer.spans()
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        values = metrics.per_layer(spans, tracer.names, traced, plain)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, "spans-%s.npz" % args.workload))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(norms, statistics.median(setup_times), peak_mb)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-trace%d.json" % (args.workload, args.trace)), "w") as handle:
        json.dump({"run": run, "result": result, "records": records, "kernel_s": kernel_s}, handle, indent=1)
    print(json.dumps({"run": run}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
