"""Time two cylwave source trees against each other on perfbench's workloads, in one process.

Usage::

    python tests/ab_timing.py A_SRC B_SRC [--rounds 30] [--seed 1] [--ops WORKLOAD,...]

A_SRC and B_SRC are directories holding a ``cylwave`` package, such as the
``src`` of two checkouts. For each, every ``cylwave`` module is dropped from
``sys.modules``, the tree is put first on ``sys.path`` and
``perfbench/workloads.py`` is loaded by path under its own module name, so
that its ``from cylwave import ...`` binds that tree. ``--ops`` takes the
workload names of ``BENCHMARK.json``; each side builds every op of a
workload with ``prepare(name, seed, work_dir, presets_dir)``, with the same
seed, so both sides run the same inputs.

Each op is timed as perfbench times it. Before numpy is loaded the thread
counts are pinned as ``perfbench/run.py`` pins them. The workload's
calibration kernel (``perfbench.calibration``, the kind ``perfbench/run.py``
names in ``KERNEL``) runs before a pool's first op and after every op, and
the op's process CPU time (all threads, BLAS's included) is normalised by
the kernel times on either side. So each op starts, as in perfbench, after
the kernel has run over its caches, and costs what it costs there rather
than warm.

Every round (round 0 is not timed) takes each (workload, side) pair once,
in a shuffled order, and runs the side's pool once, stdout and stderr
redirected; the sample is the sum of the pool's normalised op times.
After the pass each op's own ``check`` runs on its output, untimed. A workload
fails if either side reports a problem, or if the two sides' digests of
any op differ. At the end it prints, for each workload, the median
normalised CPU time of one pass of each side's pool and its interquartile
range, the ratio B/A of the medians, the number of rounds in which B took
less than A, and whether the gap between the medians exceeds A's
interquartile range: a gap within it is spread, not a gain. It exits 1 if
any workload failed.

Host speed moves by up to 50% between processes, so compare the two sides
within one run of this script, not across runs. The two sides also share
one allocator: glibc's dynamic mmap and trim thresholds, raised by the
largest block either side frees, hold for both. So this script cannot time
a change in allocation pattern. On the change that assembles each system's
blocks into one array, it read B/A 0.987-1.051 on ``ellipse-dense`` in
three runs, where perfbench pairs, each side in its own process, read 9%
more ops per second. Time such a change with alternating perfbench pairs
run as separate processes. This file is a tool, not a test; pytest does
not collect it, and it needs nothing beyond the package's own dependencies
and ``perfbench/``.
"""

import argparse
import contextlib
import importlib.util
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import environment  # noqa: E402  (stdlib only; must precede numpy)
from perfbench.run import KERNEL, WORKLOADS  # noqa: E402

SIDES = ("a", "b")


def load_workloads(src, side):
    """perfbench/workloads.py, imported as workloads_<side> against the cylwave under src."""
    for name in [name for name in sys.modules if name.split(".")[0] == "cylwave"]:
        del sys.modules[name]
    src = str(Path(src).resolve())
    sys.path.insert(0, src)
    try:
        spec = importlib.util.spec_from_file_location(
            "workloads_" + side, ROOT / "perfbench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(src)
    return module


def run_pool(pool, kind):
    """Run every op of pool once, each followed by the calibration kernel kind.

    Returns the sum of the ops' normalised CPU times and their outputs.
    """
    from perfbench import calibration  # loads numpy: only after pin_threads

    total, outputs, before = 0.0, [], calibration.seconds(kind)
    for op in pool:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.process_time()
            outputs.append(op.run())
            elapsed = time.process_time() - start
        after = calibration.seconds(kind)
        total += calibration.normalised(elapsed, before, after, kind)
        before = after
    return total, outputs


def failures_of(name, pools, outputs):
    """What went wrong in one round of a workload: each problem, each op whose digests differ."""
    verdicts = {
        side: [op.check(out) for op, out in zip(pools[name, side], outputs[name, side])]
        for side in SIDES
    }
    found = [
        "%s: %s %s: %s" % (name, side.upper(), op.label, verdict.problem)
        for side in SIDES
        for op, verdict in zip(pools[name, side], verdicts[side])
        if verdict.problem
    ]
    for op, a, b in zip(pools[name, "a"], verdicts["a"], verdicts["b"]):
        if a.digest != b.digest:
            found.append("%s: %s: digests differ" % (name, op.label))
    return found


def iqr(samples):
    """Distance between the quartiles of samples (statistics.quantiles), 0.0 for one sample."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.ops.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown or args.rounds < 1:
        parser.error("unknown ops %s" % sorted(unknown) if unknown else "--rounds must be positive")
    environment.pin_threads()
    modules = dict(zip(SIDES, (load_workloads(args.a_src, "a"), load_workloads(args.b_src, "b"))))
    rng = random.Random(args.seed)
    failed = {}
    with tempfile.TemporaryDirectory(prefix="ab_timing-") as work_dir:
        pools = {
            (name, side): module.prepare(
                name, args.seed, str(Path(work_dir) / side / name), str(ROOT / "presets")
            ).pool
            for name in names
            for side, module in modules.items()
        }
        norm = {key: [] for key in pools}
        for round_ in range(args.rounds + 1):  # round 0 warms up and is not timed
            jobs = list(pools)
            rng.shuffle(jobs)
            outputs = {}
            for key in jobs:
                total, outputs[key] = run_pool(pools[key], KERNEL[key[0]])
                if round_:
                    norm[key].append(total)
            for name in names:
                for line in failures_of(name, pools, outputs):
                    failed.setdefault(name, line)
    header = ("workload", "A norm (ms)", "A IQR", "B norm (ms)", "B IQR", "B/A", "B won",
              "gap > A IQR")
    print("%-14s %12s %8s %12s %8s %8s %8s %12s" % header)
    for name in names:
        a, b = norm[name, "a"], norm[name, "b"]
        median_a, median_b = statistics.median(a), statistics.median(b)
        won = sum(tb < ta for ta, tb in zip(a, b))
        print(
            "%-14s %12.3f %8.3f %12.3f %8.3f %8.3f %5d/%d %12s"
            % (name, 1e3 * median_a, 1e3 * iqr(a), 1e3 * median_b, 1e3 * iqr(b),
               median_b / median_a, won, len(a),
               "yes" if abs(median_b - median_a) > iqr(a) else "no")
        )
    for name, line in failed.items():
        print("FAILED " + line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
