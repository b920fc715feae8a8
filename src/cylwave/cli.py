"""Configuration-driven command line: solve, fields, sweep, validate.

Every command except ``validate`` reads one JSON configuration describing
the geometry, the two media, the excitation, and the solver. Each command
returns its machine-readable CSV/JSON files as {file name: text}, and
``main`` writes them into an output directory through one helper. Ready-made
configurations for the package's demonstration scenarios live under
``presets/``. Output is deterministic: the same configuration produces
byte-identical files (17-significant-digit floats, no timestamps), and
every data file names the SHA-256 of the configuration it came from.
``validate`` runs the acceptance criteria of :mod:`cylwave.acceptance` and
exits nonzero if any of them fails.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import acceptance, diagnostics, discrete, fields
from .exact import Medium, refuse_filament_points
from .geometry import AuxiliarySurface, BoundaryCurve, Excitation

_TWO_PI = 2.0 * np.pi
_SCHEMA = 1
_MISSING = object()
# warn when the condition estimate leaves fewer than three significant digits
_ROUNDOFF_WARNING = 1e-3


class ConfigError(ValueError):
    """Invalid run configuration; messages start with the offending field path."""


@dataclass(frozen=True)
class RunConfig:
    """One validated run, ready to hand to the solver modules."""

    curve: BoundaryCurve
    aux_inner: AuxiliarySurface
    aux_outer: AuxiliarySurface
    media: tuple
    excitation: Excitation
    method: str
    n_list: tuple
    output: dict
    sha256: str

    def geometry(self):
        return (self.curve, self.aux_inner, self.aux_outer)

    def single_n(self, command):
        if len(self.n_list) != 1:
            raise ConfigError(
                "solver.n_list: the %s command takes a single N; use the sweep "
                "command for lists" % (command,)
            )
        return self.n_list[0]


# -- configuration parsing ---------------------------------------------------


def _entry(block, path, default=_MISSING):
    key = path.rsplit(".", 1)[-1]
    if key in block:
        return block[key]
    if default is _MISSING:
        raise ConfigError("%s: required field is missing" % (path,))
    return default


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, path):
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError("%s: must be finite" % (path,))
    return value


def _number(block, path, default=_MISSING, positive=False):
    value = _entry(block, path, default)
    if not _is_number(value):
        raise ConfigError("%s: expected a number" % (path,))
    value = _finite(value, path)
    if positive and value <= 0.0:
        raise ConfigError("%s: must be positive" % (path,))
    return value


def _integer(block, path, default=_MISSING, minimum=1):
    return _integer_value(_entry(block, path, default), path, minimum)


def _integer_value(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s: expected an integer" % (path,))
    if value < minimum:
        raise ConfigError("%s: must be at least %d" % (path, minimum))
    return value


def _string(block, path, choices=None, default=_MISSING):
    value = _entry(block, path, default)
    if not isinstance(value, str):
        raise ConfigError("%s: expected a string" % (path,))
    if choices is not None and value not in choices:
        raise ConfigError("%s: expected one of %s" % (path, "/".join(choices)))
    return value


def _block(container, path):
    value = container.get(path.rsplit(".", 1)[-1])
    if not isinstance(value, dict):
        raise ConfigError("%s: required object block is missing" % (path,))
    return value


def _refuse_unknown(block, prefix, keys):
    """Refuse the first field of block, in document order, that is not one of keys."""
    for key in block:
        if key not in keys:
            raise ConfigError("%s%s: unknown field" % (prefix, key))


def _amplitude(block):
    path = "excitation.amplitude"
    value = block.get("amplitude", 1.0)
    if _is_number(value):
        return complex(_finite(value, path))
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_finite(value[0], path), _finite(value[1], path))
    raise ConfigError("%s: expected a number or an [re, im] pair" % (path,))


def _parse_geometry(doc):
    geom = _block(doc, "geometry")
    kind = _string(geom, "geometry.kind", choices=("circle", "ellipse"))
    # _number has made each one a positive finite float, all the constructors check
    if kind == "circle":
        curve = BoundaryCurve.circle(_number(geom, "geometry.radius", positive=True))
    else:
        curve = BoundaryCurve.ellipse(
            _number(geom, "geometry.semi_major", positive=True),
            _number(geom, "geometry.semi_minor", positive=True),
        )
    aux = _block(geom, "geometry.aux")
    circle = kind == "circle"
    place = AuxiliarySurface.from_radius if circle else AuxiliarySurface.from_scale
    unit = "radius" if circle else "scale"
    surfaces = []
    for side in ("inner", "outer"):
        path = "geometry.aux.%s_%s" % (side, unit)
        value = _number(aux, path, positive=True)
        try:
            surfaces.append(place(curve, value, side))
        except ValueError as exc:
            raise ConfigError("%s: %s" % (path, exc))
    _refuse_unknown(aux, "geometry.aux.", ("inner_" + unit, "outer_" + unit))
    shape = ("radius",) if circle else ("semi_major", "semi_minor")
    _refuse_unknown(geom, "geometry.", ("kind", "aux", *shape))
    return (curve, *surfaces)


def _parse_media(doc):
    media = _block(doc, "media")
    out = []
    for name in ("region1", "region2"):
        region = _block(media, "media.%s" % name)
        try:
            out.append(
                Medium(
                    _number(region, "media.%s.eps_r" % name, default=1.0, positive=True),
                    _number(region, "media.%s.mu_r" % name, default=1.0, positive=True),
                )
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("media.%s: %s" % (name, exc))
        _refuse_unknown(region, "media.%s." % name, ("eps_r", "mu_r"))
    _refuse_unknown(media, "media.", ("region1", "region2"))
    return tuple(out)


def _parse_excitation(doc, curve):
    block = _block(doc, "excitation")
    region = _string(block, "excitation.region", choices=("external", "internal"))
    radius = _number(block, "excitation.radius", positive=True)
    angle = _number(block, "excitation.angle", default=0.0)
    excitation = Excitation(region, radius, angle, _amplitude(block))
    _refuse_unknown(block, "excitation.", ("region", "radius", "angle", "amplitude"))
    try:
        excitation.validate_against(curve)
    except ValueError as exc:
        raise ConfigError("excitation.radius: %s" % (exc,))
    return excitation


def _parse_solver(doc):
    solver = _block(doc, "solver")
    method = _string(solver, "solver.method", choices=("nfm", "mas", "both"))
    if "n_list" in solver:
        if "n_points" in solver:
            raise ConfigError("solver: give n_points or n_list, not both")
        raw = solver["n_list"]
        if not isinstance(raw, list):
            raise ConfigError("solver.n_list: expected a list of integers")
        if not raw:
            raise ConfigError("solver.n_list: must not be empty")
        n_list = tuple(
            _integer_value(value, "solver.n_list[%d]" % (i,), 4) for i, value in enumerate(raw)
        )
    else:
        n_list = (_integer(solver, "solver.n_points", minimum=4),)
    _refuse_unknown(solver, "solver.", ("method", "n_points", "n_list"))
    return method, n_list


def _parse_output(doc, curve):
    block = doc.get("output", {})
    if not isinstance(block, dict):
        raise ConfigError("output: expected an object block")
    count = _integer(block, "output.angles", default=36, minimum=4)
    offset = _number(block, "output.angle_offset", default=0.0)
    angles = _TWO_PI * (np.arange(count) + offset) / count
    rings = None
    if "rings" in block:
        raw = block["rings"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("output.rings: expected a non-empty list of [radius, region] pairs")
        rings = []
        for i, pair in enumerate(raw):
            where = "output.rings[%d]" % (i,)
            ok = (
                isinstance(pair, list)
                and len(pair) == 2
                and _is_number(pair[0])
                and _finite(pair[0], where) > 0
                and isinstance(pair[1], int)
                and not isinstance(pair[1], bool)
                and pair[1] in (1, 2)
            )
            if not ok:
                raise ConfigError(
                    "%s: expected [radius, region] with positive radius and region 1 or 2"
                    % (where,)
                )
            try:
                fields.ring_region(curve, float(pair[0]), angles, pair[1])
            except ValueError as exc:
                raise ConfigError("%s: %s" % (where, exc))
            rings.append((float(pair[0]), pair[1]))
        rings = tuple(rings)
    directory = _string(block, "output.directory", default="out")
    _refuse_unknown(block, "output.", ("directory", "rings", "angles", "angle_offset"))
    return {"directory": directory, "rings": rings, "angles": angles}


def load_config(path):
    """Read, hash, and validate a JSON run configuration."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % (exc,))
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ConfigError("config is not valid JSON: %s" % (exc,))
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    curve, inner, outer = _parse_geometry(doc)
    method, n_list = _parse_solver(doc)
    config = RunConfig(
        curve=curve,
        aux_inner=inner,
        aux_outer=outer,
        media=_parse_media(doc),
        excitation=_parse_excitation(doc, curve),
        method=method,
        n_list=n_list,
        output=_parse_output(doc, curve),
        sha256=hashlib.sha256(raw).hexdigest(),
    )
    _refuse_unknown(doc, "", ("geometry", "media", "excitation", "solver", "output"))
    return config


# -- output helpers ----------------------------------------------------------


def _fmt(value):
    return "%.17g" % value


def _jsonable(value):
    return value if math.isfinite(value) else str(value)


def _write_atomic(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        target = os.path.join(out_dir, name)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def _write_files(out_dir, files):
    """Write each {file name: text} entry into out_dir, in order, and print where."""
    for name, text in files.items():
        print("wrote %s" % (_write_atomic(out_dir, name, text),))


def _csv_text(sha256, header, rows):
    buf = io.StringIO()
    buf.write("# schema=%d\n# config_sha256=%s\n" % (_SCHEMA, sha256))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(sha256, columns):
    """CSV text of equal-length {name: array} columns, one row per element.

    A complex column X becomes re_X and im_X; floats are written as %.17g,
    other values as str() writes them. Each row is one %-format of one
    string, with the bytes csv.writer writes for these cells: no cell holds
    a comma, a quote or a line break.
    """
    header, parts, formats = [], [], []
    for name, values in columns.items():
        if values.dtype.kind == "c":
            header += ["re_" + name, "im_" + name]
            parts += [values.real, values.imag]
            formats += ["%.17g", "%.17g"]
        else:
            header.append(name)
            parts.append(values)
            formats.append("%.17g" if values.dtype.kind == "f" else "%s")
    row = ",".join(formats) + "\n"
    body = "".join([row % cells for cells in zip(*(part.tolist() for part in parts))])
    return _csv_text(sha256, header, ()) + body


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_series_trust(references):
    """One stderr line per ring_references entry whose series did not converge everywhere."""
    for rho, region, _, series in references:
        loose = ~series.converged
        if loose.any():
            print(
                "cylwave: warning: exact series on ring rho = %g (region %d): %d of %d "
                "points not converged, worst tail estimate %.2g"
                % (rho, region, loose.sum(), loose.size, series.tail_estimate[loose].max()),
                file=sys.stderr,
            )


def _report_roundoff(method, solution):
    """One stderr line for a solution whose condition estimate leaves few digits."""
    n = solution.n_points
    loss = solution.cond_estimate * np.finfo(float).eps
    if loss > _ROUNDOFF_WARNING:
        digits = max(0, int(-math.log10(loss))) if math.isfinite(loss) else 0
        note = ""
        if solution.dropped:
            note = "; %d of %d singular values dropped as roundoff" % (solution.dropped, 2 * n)
        print(
            "cylwave: warning: %s amplitudes at N = %d: condition estimate %.2g "
            "leaves about %d significant digit%s%s"
            % (method, n, solution.cond_estimate, digits, "" if digits == 1 else "s", note),
            file=sys.stderr,
        )


def _scan_one(config, method, n):
    """The oscillation scan of one N; a failed solve raises its message."""
    scan = diagnostics.oscillation_scan(
        method, config.geometry(), config.excitation, config.media, (n,)
    )
    if scan.failures:
        raise ValueError(scan.failures[n])
    _report_roundoff(method, scan.solutions[n])
    return scan


def _refuse_filament_rings(config, angles):
    """Refuse, by its field, a configured ring that meets the filament at one of angles."""
    for i, (rho, _) in enumerate(config.output["rings"] or ()):
        try:
            refuse_filament_points(config.excitation, rho, angles)
        except ValueError as exc:
            raise ConfigError("output.rings[%d]: %s" % (i, exc))


# -- commands ----------------------------------------------------------------


def cmd_solve(config):
    """Solve one system; return currents.csv and summary.json."""
    if config.method == "both":
        raise ConfigError("solver.method: the solve command needs 'nfm' or 'mas'")
    n = config.single_n("solve")
    scan = _scan_one(config, config.method, n)
    solution = scan.solutions[n]
    dens_e, dens_m = discrete.normalized_currents(solution)
    currents = {
        "index": np.arange(n),
        "angle": solution.system.nodes.phis,
        "electric": solution.electric,
        "magnetic": solution.magnetic,
        "electric_density": dens_e,
        "magnetic_density": dens_m,
    }
    oscillation = {
        label: {
            "oscillation_index": float(report.oscillation_index[0]),
            "max_amplitude": float(report.max_amplitude[0]),
            "growth_factor": float(report.growth_factor[0]),
            "flagged": bool(report.flagged[0]),
        }
        for label, report in scan.reports.items()
    }
    summary = {
        "schema": _SCHEMA,
        "config_sha256": config.sha256,
        "command": "solve",
        "method": config.method,
        "n_points": n,
        "solver_path": solution.path,
        "residual": _jsonable(solution.residual),
        "condition_estimate": _jsonable(solution.cond_estimate),
        "oscillation": oscillation,
    }
    return {
        "currents.csv": _table_text(config.sha256, currents),
        "summary.json": _json_text(summary),
    }


def cmd_fields(config):
    """Evaluate fields on observation rings; return fields.csv."""
    n = config.single_n("fields")
    _refuse_filament_rings(config, config.output["angles"])
    methods = ("nfm", "mas") if config.method == "both" else (config.method,)
    solutions = {method: _scan_one(config, method, n).solutions[n] for method in methods}
    rings = config.output["rings"]
    if rings is None:
        rings = diagnostics.default_rings(config.curve, config.excitation)
    angles = config.output["angles"]
    table = {
        "ring_radius": np.repeat([rho for rho, _ in rings], angles.size),
        "region": np.repeat([region for _, region in rings], angles.size),
        "angle": np.tile(angles, len(rings)),
    }
    if config.curve.kind == "circle":
        references = diagnostics.ring_references(
            config.curve, config.excitation, config.media, rings, angles
        )
        _report_series_trust(references)
        table["exact"] = np.concatenate([series.value for *_, series in references])
    samples = [
        [
            fields.field_from_discrete(solutions[method], rho, angles, region=region).e_z
            for method in methods
        ]
        for rho, region in rings
    ]
    for method, per_ring in zip(methods, zip(*samples)):
        table[method] = np.concatenate(per_ring)
    return {"fields.csv": _table_text(config.sha256, table)}


def cmd_sweep(config):
    """Scan oscillation and error over N; return sweep.csv."""
    if config.method == "both":
        raise ConfigError("solver.method: the sweep command needs 'nfm' or 'mas'")
    rings = None
    if diagnostics.sweep_reference(config.curve) == "exact":
        _refuse_filament_rings(config, diagnostics.SWEEP_ANGLES)
        rings = config.output["rings"]
    problem = (config.method, config.geometry(), config.excitation, config.media, config.n_list)
    sweep = diagnostics.convergence_sweep(*problem, rings=rings)
    scan = sweep.scan
    for solution in scan.solutions.values():
        _report_roundoff(config.method, solution)
    _report_series_trust(sweep.references)
    predicted = {}
    if config.method == "mas" and config.curve.kind == "circle":
        predicted = diagnostics.predict_mas_divergence(config.geometry(), config.excitation)
    header = [
        "n_points",
        "surface",
        "max_amplitude",
        "growth_factor",
        "oscillation_index",
        "flagged",
        "predicted",
        "error",
        "note",
    ]
    rows = []
    failures = scan.failures
    for size in sorted(set(scan.n_points) | set(failures)):
        if size in failures:
            rows.append([size, "", "", "", "", "", "", "", failures[size]])
            continue
        at = scan.n_points.index(size)
        for label, report in scan.reports.items():
            rows.append(
                [
                    size,
                    label,
                    _fmt(report.max_amplitude[at]),
                    "" if at == 0 else _fmt(report.growth_factor[at]),
                    _fmt(report.oscillation_index[at]),
                    "true" if report.flagged[at] else "false",
                    predicted.get(label, ""),
                    _fmt(sweep.errors[size]),
                    "",
                ]
            )
    return {"sweep.csv": _csv_text(config.sha256, header, rows)}


# -- validate ----------------------------------------------------------------


def cmd_validate(only):
    """Run the acceptance criteria group by group; return (exit code, validate.json)."""
    if only is not None and only not in acceptance.GROUPS:
        raise ConfigError(
            "--only: unknown group %r (choose from %s)"
            % (only, "/".join(sorted(acceptance.GROUPS)))
        )
    names = [only] if only else list(acceptance.GROUPS)
    report = {"schema": _SCHEMA, "groups": {}, "passed": True}
    passed = failed = 0
    for name in names:
        entries = []
        for criterion in acceptance.GROUPS[name]:
            for check, ok, detail in criterion():
                entries.append({"check": check, "passed": bool(ok), "detail": detail})
                print("%s %s.%s: %s" % ("PASS" if ok else "FAIL", name, check, detail))
                passed += bool(ok)
                failed += not ok
        report["groups"][name] = entries
    report["passed"] = failed == 0
    print("%d checks passed, %d failed" % (passed, failed))
    return (0 if failed == 0 else 1), {"validate.json": _json_text(report)}


# -- entry point -------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built on first use; parse_args gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cylwave",
        description="Line-source scattering workbench: solvers, fields, sweeps, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "solve one system and write currents.csv + summary.json"),
        ("fields", "evaluate fields on observation rings and write fields.csv"),
        ("sweep", "scan oscillation and error over an N list and write sweep.csv"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a JSON run configuration")
        cmd.add_argument("--out", help="output directory (overrides output.directory)")
    check = sub.add_parser("validate", help="run the acceptance criteria and report pass/fail")
    check.add_argument("--only", help="run a single group: %s" % "/".join(sorted(acceptance.GROUPS)))
    check.add_argument("--out", help="directory for validate.json")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            code, files = cmd_validate(args.only)
            out_dir = args.out
        else:
            config = load_config(args.config)
            out_dir = args.out if args.out is not None else config.output["directory"]
            command = {"solve": cmd_solve, "fields": cmd_fields, "sweep": cmd_sweep}[args.command]
            code, files = 0, command(config)
        if out_dir is not None:
            _write_files(out_dir, files)
        return code
    except (ValueError, ArithmeticError, OSError) as exc:
        print("cylwave: error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
