"""The three workloads: seeded inputs, one op per input, a check per op.

Every workload is built by ``prepare(name, seed, work_dir)``, which draws a
pool of distinct inputs from the seed, computes the references the checks
need, and returns a ``Plan``. The runner cycles through the pool in rounds,
each round in a seeded shuffled order. cylwave is called only through its
module attributes (``discrete.solve``, ``cli.main``, ...), so the tracer's
wrappers see every call.

Why each workload exists, its N, pool and op are written out in
``perfbench/README.md``.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cylwave import cli, discrete, exact, fields
from cylwave.exact import Medium
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

TWO_PI = 2.0 * math.pi
MEDIA = (Medium(), Medium(4.2, 1.0))
POOL_SIZE = 8

# circle-dft
CIRCLE_N = 512
CIRCLE_RADIUS = 2.0
CIRCLE_BAND = ((1.9, 1.95), (2.05, 2.1))
CIRCLE_RINGS = ((10.0, 1), (0.5, 2))
CIRCLE_TOL = 1e-4

# ellipse-dense
ELLIPSE_N = 512
ELLIPSE_AXES = (2.0, 1.6)
ELLIPSE_BAND = ((0.6, 0.85), (1.2, 1.6))
ELLIPSE_RINGS = ((8.0, 1), (1.0, 2))
ELLIPSE_REFERENCE = (0.8, 1.25, 160)
ELLIPSE_TOL = 1e-4

# cli-presets
SOLVE_PRESETS = ("circle-external-currents", "circle-internal-currents", "ellipse-external-currents")
FIELDS_PRESETS = (
    "circle-external-fields",
    "circle-internal-fields",
    "ellipse-external-fields",
    "coarse-n-comparison",
)
SWEEP_PRESETS = ("mas-divergence", "nfm-stability")
# Copies of each preset per round, each with its own source rotation. The
# ops of a round sort into cost clusters: solve and ellipse fields (under
# 0.04 s), the circle fields (0.3-0.5 s), validate specfun (0.4-0.6 s),
# validate discrete / validate concordance / sweep mas-divergence
# (0.6-0.9 s), sweep nfm-stability (1.0-1.5 s) and validate exact
# (1.1-1.9 s). Two copies of the solves and circle fields put the median
# in the middle of the circle fields cluster. In three rounds (run.py's
# ROUND_SECONDS at --seconds 25), six ops sit above the 0.6-s cluster and
# nine inside it, so op_tail_norm_s (the 11th largest) falls in its middle.
COPIES = {"solve": 2, "fields": 2, "ellipse-external-fields": 1, "sweep": 1}
VALIDATE_GROUPS = ("specfun", "exact", "discrete", "concordance")
OUTPUT_FILES = {
    "solve": ("currents.csv", "summary.json"),
    "fields": ("fields.csv",),
    "sweep": ("sweep.csv",),
    "validate": ("validate.json",),
}
# Worst discrete-vs-exact gap in fields.csv over all 36 source rotations:
# 1.4e-4 and 1.0e-4 for the two circles at N = 40, 0.075 for the
# deliberately coarse N = 10 comparison.
FIELDS_TOL = {
    "circle-external-fields": 1e-3,
    "circle-internal-fields": 1e-3,
    "coarse-n-comparison": 0.15,
}
# Ring angles of every preset sit on a 36-step grid; rotating the source by
# whole steps keeps it exactly as far from every ring point as the preset.
ANGLE_STEPS = 36


class SetupError(RuntimeError):
    """A reference could not be computed; the workload cannot be checked."""


@dataclass(frozen=True)
class Verdict:
    """What the check of one op found.

    digest is equal for two runs of an op exactly when they produced
    bit-identical results.
    """

    error: float
    problem: str = None
    bytes_written: int = 0
    digest: str = ""


@dataclass
class Op:
    """One unit of closed-loop load: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Plan:
    """The pool of one run, the op that warms up set-up, and a description."""

    n_points: int
    pool: list
    warmup: Op
    inputs: list


# -- circle-dft and ellipse-dense ----------------------------------------------


def _ring_points(rings):
    """Four angles per ring, midway between the quadrant axes."""
    return [
        (rho, region, TWO_PI * (k + 0.5) / 4.0) for rho, region in rings for k in range(4)
    ]


def _solve_and_sample(route, curve, inner, outer, excitation, n_points, points):
    assemble = discrete.assemble_nfm if route == "nfm" else discrete.assemble_mas
    system = assemble(curve, inner, outer, excitation, *MEDIA, n_points=n_points)
    solution = discrete.solve(system)
    values = np.array(
        [
            fields.field_from_discrete(solution, rho, phi, region=region).e_z
            for rho, region, phi in points
        ]
    )
    return solution.path, solution.electric, solution.magnetic, values


def _solver_op(kind, label, args, points, reference, path, tol):
    def run():
        return _solve_and_sample(*args, points)

    def check(output):
        got_path, electric, magnetic, values = output
        digest = hashlib.sha256(electric.tobytes() + magnetic.tobytes() + values.tobytes())
        scale = float(np.max(np.abs(reference)))
        err = float(np.max(np.abs(values - reference))) / scale
        problem = None
        if got_path != path:
            problem = "solved on the %s path, expected %s" % (got_path, path)
        elif not (np.all(np.isfinite(electric)) and np.all(np.isfinite(magnetic))):
            problem = "non-finite amplitudes"
        elif not err <= tol:
            problem = "field error %.3g above %.1g" % (err, tol)
        return Verdict(err, problem, 0, digest.hexdigest())

    return Op(kind, label, run, check)


def _draw_inputs(rng, preset_scales, band, external_rho, internal_rho):
    """POOL_SIZE inputs: half nfm / half mas, half external / half internal.

    The first two keep the presets' placement and external source at
    rho 4.0; the rest draw their placement from the near-boundary band.
    Every input draws its own source angle.
    """
    inputs = []
    for i in range(POOL_SIZE):
        route = ("nfm", "mas")[i % 2]
        side = ("external", "internal")[(i // 2) % 2]
        angle = rng.uniform(0.0, TWO_PI)
        if i < 2:
            scales, rho = preset_scales, 4.0
        else:
            scales = (rng.uniform(*band[0]), rng.uniform(*band[1]))
            rho = rng.uniform(*(external_rho if side == "external" else internal_rho))
        inputs.append((route, scales, Excitation(side, rho, angle)))
    return inputs


def _describe(route, scales, excitation):
    return "%s %s rho=%.4f phi=%.4f aux=%.4f/%.4f" % (
        route, excitation.region, excitation.rho, excitation.phi, scales[0], scales[1],
    )


def prepare_circle(seed):
    """circle-dft: concentric circle, eps_r2 = 4.2, N = 512, auto -> DFT path."""
    rng = random.Random(seed)
    curve = BoundaryCurve.circle(CIRCLE_RADIUS)
    points = _ring_points(CIRCLE_RINGS)
    pool, inputs = [], []
    for route, (r_in, r_out), excitation in _draw_inputs(
        rng, (1.5, 2.5), CIRCLE_BAND, (3.0, 5.0), (0.8, 1.4)
    ):
        reference = []
        for rho, region, phi in points:
            series = exact.exact_field(excitation, region, rho, phi, CIRCLE_RADIUS, *MEDIA)
            if not series.converged:
                raise SetupError("exact series did not converge at rho=%g phi=%g" % (rho, phi))
            reference.append(series.value)
        inner = AuxiliarySurface.from_radius(curve, r_in)
        outer = AuxiliarySurface.from_radius(curve, r_out)
        label = _describe(route, (r_in, r_out), excitation)
        args = (route, curve, inner, outer, excitation, CIRCLE_N)
        pool.append(_solver_op(route, label, args, points, np.array(reference), "dft", CIRCLE_TOL))
        inputs.append(label)
    return Plan(CIRCLE_N, pool, pool[0], inputs)


def prepare_ellipse(seed):
    """ellipse-dense: the presets' (2.0, 1.6) ellipse, N = 512, auto -> dense LU."""
    rng = random.Random(seed)
    curve = BoundaryCurve.ellipse(*ELLIPSE_AXES)
    points = _ring_points(ELLIPSE_RINGS)
    ref_in, ref_out, ref_n = ELLIPSE_REFERENCE
    ref_surfaces = (
        AuxiliarySurface.from_scale(curve, ref_in),
        AuxiliarySurface.from_scale(curve, ref_out),
    )
    pool, inputs = [], []
    for route, (s_in, s_out), excitation in _draw_inputs(
        rng, (0.33, 5.0), ELLIPSE_BAND, (3.5, 4.5), (0.3, 0.45)
    ):
        _, _, _, reference = _solve_and_sample(
            "mas", curve, *ref_surfaces, excitation, ref_n, points
        )
        inner = AuxiliarySurface.from_scale(curve, s_in)
        outer = AuxiliarySurface.from_scale(curve, s_out)
        label = _describe(route, (s_in, s_out), excitation)
        args = (route, curve, inner, outer, excitation, ELLIPSE_N)
        pool.append(_solver_op(route, label, args, points, reference, "dense", ELLIPSE_TOL))
        inputs.append(label)
    return Plan(ELLIPSE_N, pool, pool[0], inputs)


# -- cli-presets -------------------------------------------------------------


def _read_csv(text):
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _fields_error(text):
    """Worst relative gap between each method's columns and the exact ones."""
    header, data = _read_csv(text)
    want = data[:, header.index("re_exact")] + 1j * data[:, header.index("im_exact")]
    scale = float(np.max(np.abs(want)))
    worst = 0.0
    for method in ("nfm", "mas"):
        if "re_" + method in header:
            got = data[:, header.index("re_" + method)] + 1j * data[:, header.index("im_" + method)]
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return worst


def _cli_op(command, name, label, argv, out_dir, seen):
    files = OUTPUT_FILES[command]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return Verdict(0.0, "exit code %r" % (code,))
        contents = {}
        for file_name in files:
            path = os.path.join(out_dir, file_name)
            if not os.path.isfile(path):
                return Verdict(0.0, "missing %s" % file_name)
            with open(path, "rb") as handle:
                contents[file_name] = handle.read()
            os.remove(path)  # so that every op has to write it again
        written = sum(len(data) for data in contents.values())
        digest = "".join(hashlib.sha256(contents[f]).hexdigest() for f in files)
        first = seen.setdefault(label, digest)
        err, problem = 0.0, None
        if digest != first:
            problem = "output differs from an earlier repeat"
        elif command == "fields" and name in FIELDS_TOL:
            err = _fields_error(contents["fields.csv"].decode("utf-8"))
            if not err <= FIELDS_TOL[name]:
                problem = "fields.csv discrete vs exact %.3g above %.2g" % (err, FIELDS_TOL[name])
        elif command == "validate" and not json.loads(contents["validate.json"])["passed"]:
            problem = "validate reported a failing check"
        return Verdict(err, problem, written, digest)

    return Op(command, label, run, check)


def prepare_cli(seed, work_dir, presets_dir):
    """cli-presets: in-process ``cylwave.cli.main`` on every command's presets.

    Each preset runs in COPIES copies. The seed rotates each copy's source
    by a whole number of ring-angle steps and (in the runner) shuffles the
    command order of every round. ``validate`` runs as its four groups, one
    op each.
    """
    rng = random.Random(seed)
    config_dir = os.path.join(work_dir, "configs")
    os.makedirs(config_dir, exist_ok=True)
    seen = {}
    pool, inputs, sizes = [], [], []

    def configured(command, name, copy, copies):
        with open(os.path.join(presets_dir, name + ".json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        sizes.extend(doc["solver"].get("n_list", [doc["solver"].get("n_points", 0)]))
        steps = rng.randrange(ANGLE_STEPS)
        doc["excitation"]["angle"] = doc["excitation"].get("angle", 0.0) + TWO_PI * steps / ANGLE_STEPS
        stem = "%s-%s" % (command, name) + ("-%d" % copy if copies > 1 else "")
        path = os.path.join(config_dir, stem + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        out_dir = os.path.join(work_dir, "out", stem)
        label = "%s %s" % (command, name) + (" #%d" % copy if copies > 1 else "")
        inputs.append("%s rotated %d/%d" % (label, steps, ANGLE_STEPS))
        return _cli_op(command, name, label, [command, "--config", path, "--out", out_dir], out_dir, seen)

    for command, names in (
        ("solve", SOLVE_PRESETS),
        ("fields", FIELDS_PRESETS),
        ("sweep", SWEEP_PRESETS),
    ):
        for name in names:
            copies = COPIES.get(name, COPIES[command])
            pool += [configured(command, name, copy, copies) for copy in range(1, copies + 1)]
    for group in VALIDATE_GROUPS:
        out_dir = os.path.join(work_dir, "out", "validate-" + group)
        argv = ["validate", "--only", group, "--out", out_dir]
        pool.append(_cli_op("validate", group, "validate " + group, argv, out_dir, seen))
        inputs.append("validate --only " + group)
    return Plan(max(sizes), pool, pool[0], inputs)


def prepare(name, seed, work_dir, presets_dir):
    if name == "circle-dft":
        return prepare_circle(seed)
    if name == "ellipse-dense":
        return prepare_ellipse(seed)
    if name == "cli-presets":
        return prepare_cli(seed, work_dir, presets_dir)
    raise ValueError("unknown workload %r" % (name,))
