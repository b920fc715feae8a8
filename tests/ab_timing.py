"""Time two cylwave source trees against each other in one process.

Usage::

    python tests/ab_timing.py A_SRC B_SRC [--rounds 30] [--seed 1] [--ops circle,ellipse,cli]

A_SRC and B_SRC are directories holding a ``cylwave`` package, such as the
``src`` of two checkouts. Each is imported under its own package name
(``cylwave_a`` and ``cylwave_b``); the package imports itself only
relatively, so the two sides share no module. Three ops are timed:

- ``circle``: on the radius-2 circle (eps_r 4.2 inside) at N = 512, for
  each of eight seeded inputs (direct and source route, external and
  internal source, the presets' 1.5/2.5 surfaces or surfaces drawn from a
  band next to the boundary), assemble, solve on the DFT path and evaluate
  the field at four angles on each of the rings 10 (region 1) and 0.5
  (region 2), one point per call;
- ``ellipse``: the same on the 2.0/1.6 ellipse (dense path) for one of
  eight such inputs per round, in turn, with rings 8 and 1;
- ``cli``: ``cylwave.cli.main`` on every command of the presets that the
  command supports (solve, fields, sweep) and on four ``validate`` groups,
  each writing to its own directory.

Every round runs each op once on each side, in a shuffled order, and times
each run with the process CPU clock (all threads of the process, BLAS's
included). Outputs are compared between the two sides of a round bit for
bit: the amplitudes, the field values and the residual, read after the
clock stops, of each solve; the exit code and the bytes of every file each
CLI command writes. At the end it prints, for each op, the median CPU time
of each side, the ratio B/A of the medians and the number of rounds in
which B took less CPU than A. It exits 1 if any output differed.

Host speed moves by up to 50% between processes, so compare the two sides
within one run of this script, not across runs. This file is a tool, not a
test; pytest does not collect it, and it needs nothing beyond the
package's own dependencies.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"
SIDES = ("a", "b")
N_POINTS = 512
POOL_SIZE = 8
CIRCLE = {"radius": 2.0, "band": ((1.9, 1.95), (2.05, 2.1)), "rings": ((10.0, 1), (0.5, 2))}
ELLIPSE = {"axes": (2.0, 1.6), "band": ((0.6, 0.85), (1.2, 1.6)), "rings": ((8.0, 1), (1.0, 2))}
CLI_RUNS = (
    ("solve", ("circle-external-currents", "circle-internal-currents",
               "ellipse-external-currents")),
    ("fields", ("circle-external-fields", "circle-internal-fields", "ellipse-external-fields",
                "coarse-n-comparison")),
    ("sweep", ("mas-divergence", "nfm-stability")),
)
VALIDATE_GROUPS = ("specfun", "exact", "discrete", "concordance")


def load(src, name):
    """The cylwave package under src, imported as name with every module."""
    path = Path(src).resolve() / "cylwave"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "discrete", "exact", "fields", "geometry"):
        setattr(package, module, importlib.import_module("%s.%s" % (name, module)))
    return package


def draw_inputs(rng, preset_scales, band, external_rho, internal_rho):
    """POOL_SIZE (route, (inner, outer), (side, rho, angle)) inputs, drawn from rng."""
    inputs = []
    for i in range(POOL_SIZE):
        route = ("nfm", "mas")[i % 2]
        side = ("external", "internal")[(i // 2) % 2]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        if i < 2:
            scales, rho = preset_scales, 4.0
        else:
            scales = (rng.uniform(*band[0]), rng.uniform(*band[1]))
            rho = rng.uniform(*(external_rho if side == "external" else internal_rho))
        inputs.append((route, scales, (side, rho, angle)))
    return inputs


def solver_op(package, curve, surfaces, inputs, rings):
    """A callable solving and sampling each input; it returns what the sides must share."""
    discrete, fields = package.discrete, package.fields
    media = (package.Medium(), package.Medium(4.2, 1.0))
    points = [(rho, region, math.pi * (k + 0.5) / 2.0) for rho, region in rings for k in range(4)]
    cases = []
    for route, scales, source in inputs:
        inner, outer = (surfaces(curve, scale) for scale in scales)
        assemble = discrete.assemble_nfm if route == "nfm" else discrete.assemble_mas
        cases.append((assemble, inner, outer, package.Excitation(*source)))

    def run(which):
        solved = []
        for assemble, inner, outer, excitation in cases[which]:
            system = assemble(curve, inner, outer, excitation, *media, n_points=N_POINTS)
            solution = discrete.solve(system)
            values = [
                fields.field_from_discrete(solution, rho, phi, region=region).e_z
                for rho, region, phi in points
            ]
            solved.append((solution, np.array(values)))
        return solved

    def output(solved):
        return [
            (s.path, s.electric.tobytes(), s.magnetic.tobytes(), v.tobytes(), s.residual.hex())
            for s, v in solved
        ]

    return run, output


def circle_op(package, seed):
    curve = package.BoundaryCurve.circle(CIRCLE["radius"])
    inputs = draw_inputs(random.Random(seed), (1.5, 2.5), CIRCLE["band"], (3.0, 5.0), (0.8, 1.4))
    run, output = solver_op(
        package, curve, package.AuxiliarySurface.from_radius, inputs, CIRCLE["rings"]
    )
    return (lambda round_: run(slice(None))), output


def ellipse_op(package, seed):
    curve = package.BoundaryCurve.ellipse(*ELLIPSE["axes"])
    inputs = draw_inputs(random.Random(seed), (0.33, 5.0), ELLIPSE["band"], (3.5, 4.5), (0.3, 0.45))
    run, output = solver_op(
        package, curve, package.AuxiliarySurface.from_scale, inputs, ELLIPSE["rings"]
    )
    return (lambda round_: run(slice(round_ % POOL_SIZE, round_ % POOL_SIZE + 1))), output


def cli_op(package, work_dir):
    argvs = []
    for command, names in CLI_RUNS:
        for name in names:
            out = os.path.join(work_dir, "%s-%s" % (command, name))
            argvs.append([command, "--config", str(PRESETS / (name + ".json")), "--out", out])
    for group in VALIDATE_GROUPS:
        argvs.append(["validate", "--only", group, "--out", os.path.join(work_dir, group)])

    def run(round_):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                codes.append(package.cli.main(argv))
        return codes

    def output(codes):
        written = []
        for argv in argvs:
            out = argv[-1]
            for file_name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                path = os.path.join(out, file_name)
                with open(path, "rb") as handle:
                    written.append((file_name, handle.read()))
                os.remove(path)  # so that every run writes it again
        return codes, written

    return run, output


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", default="circle,ellipse,cli")
    args = parser.parse_args(argv)
    names = args.ops.split(",")
    unknown = set(names) - {"circle", "ellipse", "cli"}
    if unknown or args.rounds < 1:
        parser.error("unknown ops %s" % sorted(unknown) if unknown else "--rounds must be positive")
    packages = dict(zip(SIDES, (load(args.a_src, "cylwave_a"), load(args.b_src, "cylwave_b"))))
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_timing-") as work_dir:
        ops = {}
        for side, package in packages.items():
            for name in names:
                if name == "cli":
                    ops[name, side] = cli_op(package, os.path.join(work_dir, side))
                else:
                    make = circle_op if name == "circle" else ellipse_op
                    ops[name, side] = make(package, args.seed)
        cpu = {key: [] for key in ops}
        differed = set()
        for round_ in range(args.rounds + 1):  # round 0 warms up and is not timed
            jobs = list(ops)
            rng.shuffle(jobs)
            outputs = {}
            for key in jobs:
                run, output = ops[key]
                start = time.process_time()
                result = run(round_)
                elapsed = time.process_time() - start
                outputs[key] = output(result)
                if round_:
                    cpu[key].append(elapsed)
            for name in names:
                if outputs[name, "a"] != outputs[name, "b"]:
                    differed.add(name)
    print("%-8s %12s %12s %8s %8s" % ("op", "A cpu (ms)", "B cpu (ms)", "B/A", "B won"))
    for name in names:
        a, b = cpu[name, "a"], cpu[name, "b"]
        ratio = statistics.median(b) / statistics.median(a)
        won = sum(tb < ta for ta, tb in zip(a, b))
        print(
            "%-8s %12.3f %12.3f %8.3f %5d/%d%s"
            % (name, 1e3 * statistics.median(a), 1e3 * statistics.median(b), ratio, won,
               len(a), "  OUTPUTS DIFFER" if name in differed else "")
        )
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
