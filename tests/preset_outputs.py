"""Record everything the CLI produces on the presets, for byte comparison.

Usage::

    python tests/preset_outputs.py OUTDIR
    python tests/preset_outputs.py compare A B
    python tests/preset_outputs.py --hashes

Runs every preset under ``presets/`` through ``solve``, ``fields`` and
``sweep`` (a command that a preset does not support is recorded too, with
its error and exit code), then ``sweep`` on the configs of ELLIPSE_SWEEPS,
which it writes to ``OUTDIR/configs/`` (no preset sweeps a non-circular
boundary at more than one N), then ``validate --only GROUP --out`` for each
acceptance group, then ``--hashes``, then every script under ``demos/``, once with
``OPENBLAS_NUM_THREADS=1`` into ``OUTDIR/threads-1/`` and once with
``OPENBLAS_NUM_THREADS=2`` into ``OUTDIR/threads-2/``. Each run gets a fresh
interpreter that imports cylwave from this checkout's ``src`` and its own
directory there, holding:

- ``out/``: the files the command wrote (CLI runs only);
- ``stdout``, ``stderr`` and ``exit_code``, with the output path replaced
  by ``OUT`` so that two OUTDIRs can be compared.

The dense solve runs on one BLAS thread whatever the setting, so the two
records must be identical: after recording, every file that differs
between them, or is in one only, is printed, and the exit code is 1 if
there is any.

``--hashes`` prints, for every preset, both routes and each N of the
preset, the sha256 of the assembled blocks (their carried columns), the
right side, the solved amplitudes and each of the four
``fields.boundary_traces`` arrays: values that no CLI file prints.

Run it in two checkouts, then ``diff -r A B``, or ``compare A B`` to
measure a difference that is meant to be there. ``compare`` prints, for each
file, "same bytes" if the two copies are identical, and otherwise the
largest relative gap of each numeric CSV column and each JSON number, and of
the numbers in any other text, each relative to the largest magnitude of its
column (a JSON number and a number in text are their own column). It exits
1 on a structural difference: a file present on one side only, a changed
CSV header or row count, a changed JSON key or list length, or any changed
token that is not a number. This file is a tool, not a test; pytest does
not collect it.
"""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("solve", "fields", "sweep")
GROUPS = ("specfun", "exact", "discrete", "concordance", "routes", "ellipse")


THREADS = (1, 2)

# 2.0/1.6 ellipse at scales 0.8/1.25, external source at 4: one per method
ELLIPSE_SWEEPS = {
    "ellipse-sweep-%s" % method: {
        "geometry": {
            "kind": "ellipse",
            "semi_major": 2.0,
            "semi_minor": 1.6,
            "aux": {"inner_scale": 0.8, "outer_scale": 1.25},
        },
        "media": {"region1": {"eps_r": 1.0, "mu_r": 1.0}, "region2": {"eps_r": 4.2, "mu_r": 1.0}},
        "excitation": {"region": "external", "radius": 4.0, "amplitude": 1.0},
        "solver": {"method": method, "n_list": [40, 46, 64]},
    }
    for method in ("nfm", "mas")
}


def record(run_dir, argv, threads):
    """Run the CLI with argv, writing into run_dir/out, and store what it printed."""
    out = run_dir / "out"
    return _run(run_dir, ["-m", "cylwave.cli", *argv, "--out", str(out)], threads, out)


def _run(run_dir, argv, threads, out=None):
    """Run the interpreter with argv in run_dir on `threads` BLAS threads; store its output."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=run_dir,
    )
    for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        (run_dir / name).write_text(text.replace(str(out), "OUT") if out else text)
    (run_dir / "exit_code").write_text("%d\n" % proc.returncode)
    return proc.returncode


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf))")


class Structural(Exception):
    """The two copies differ in something other than the value of a number."""


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _gap(pairs):
    """Largest |a - b| over the pairs, relative to the largest |a| (or |b|)."""
    pairs = [(a, b) for a, b in pairs if not (a == b or (math.isnan(a) and math.isnan(b)))]
    if not pairs:
        return 0.0
    if any(not (math.isfinite(a) and math.isfinite(b)) for a, b in pairs):
        return math.inf
    scale = max(abs(a) for a, _ in pairs) or max(abs(b) for _, b in pairs)
    return max(abs(a - b) for a, b in pairs) / scale


def _text_numbers(a, b):
    """The number pairs of two texts that agree in everything but their numbers."""
    parts_a, parts_b = _NUMBER.split(a), _NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        raise Structural("a token that is not a number changed")
    return [(float(x), float(y)) for x, y in zip(parts_a[1::2], parts_b[1::2])]


def _json_gaps(a, b, path, gaps):
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Structural("keys changed at %s" % (path or "the top"))
        for key in a:
            _json_gaps(a[key], b[key], "%s.%s" % (path, key) if path else key, gaps)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Structural("length changed at %s" % path)
        for i, (x, y) in enumerate(zip(a, b)):
            _json_gaps(x, y, "%s[%d]" % (path, i), gaps)
    elif isinstance(a, str) and isinstance(b, str):
        gaps[path] = _gap(_text_numbers(a, b))
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        gaps[path] = _gap([(float(a), float(b))])
    elif a != b:
        raise Structural("value changed at %s" % path)


def _csv_gaps(a, b):
    """Gap of each column; '#' comment lines must match exactly."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    comments = [line for line in lines_a if line.startswith("#")]
    if comments != [line for line in lines_b if line.startswith("#")]:
        raise Structural("a comment line changed")
    rows_a = list(csv.reader(line for line in lines_a if not line.startswith("#")))
    rows_b = list(csv.reader(line for line in lines_b if not line.startswith("#")))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        raise Structural("header changed")
    if len(rows_a) != len(rows_b) or any(len(r) != len(q) for r, q in zip(rows_a, rows_b)):
        raise Structural("row count or row length changed")
    columns = {name: [] for name in rows_a[0]}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(rows_a[0], row_a, row_b):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                if x != y:
                    raise Structural("a token that is not a number changed in column %s" % name)
            else:
                columns[name].append((u, v))
    return {name: _gap(pairs) for name, pairs in columns.items()}


def compare(a_dir, b_dir):
    """Print how each file of a_dir differs from its copy in b_dir; 1 on a structural difference."""
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    names = sorted(
        {p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()}
        | {p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file()}
    )
    structural = 0
    for name in names:
        a, b = a_dir / name, b_dir / name
        if not (a.is_file() and b.is_file()):
            print("%s: only in %s" % (name, a_dir if a.is_file() else b_dir))
            structural += 1
            continue
        bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
        if bytes_a == bytes_b:
            print("%s: same bytes" % name)
            continue
        text_a, text_b = bytes_a.decode(), bytes_b.decode()
        try:
            if name.suffix == ".csv":
                gaps = _csv_gaps(text_a, text_b)
            elif name.suffix == ".json":
                gaps = {}
                _json_gaps(json.loads(text_a), json.loads(text_b), "", gaps)
            else:
                gaps = {"numbers": _gap(_text_numbers(text_a, text_b))}
        except Structural as why:
            print("%s: STRUCTURAL: %s" % (name, why))
            structural += 1
            continue
        moved = ", ".join("%s %.1e" % item for item in gaps.items() if item[1])
        print("%s: %s" % (name, moved or "numbers equal, formatting differs"))
    print("%d files, %d with a structural difference" % (len(names), structural))
    return 1 if structural else 0


def _sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes(order="C"))
    return digest.hexdigest()


def hashes():
    """Print the digests of --hashes, one line per preset, route, N and quantity."""
    from cylwave import cli, discrete, fields

    for preset in sorted((ROOT / "presets").glob("*.json")):
        config = cli.load_config(preset)
        for method in ("nfm", "mas"):
            assemble = discrete.assemble_nfm if method == "nfm" else discrete.assemble_mas
            for n in config.n_list:
                tag = "%s %s N=%d" % (preset.stem, method, n)
                try:
                    system = assemble(
                        *config.geometry(), config.excitation, *config.media, n_points=n
                    )
                    solution = discrete.solve(system)
                    traces = fields.boundary_traces(solution)
                except (ValueError, ArithmeticError) as exc:
                    print("%s error %s" % (tag, exc))
                    continue
                digests = {
                    "blocks": _sha256(*system.blocks.reshape(4, *system.blocks.shape[2:])),
                    "rhs": _sha256(system.rhs),
                    "amplitudes": _sha256(solution.electric, solution.magnetic),
                }
                for name in ("e_1", "h_1", "e_2", "h_2"):
                    digests[name] = _sha256(getattr(traces, name))
                for name, digest in digests.items():
                    print("%s %s %s" % (tag, name, digest))
    return 0


def main(argv):
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if argv == ["--hashes"]:
        return hashes()
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    runs = [
        ("%s-%s" % (preset.stem, command), [command, "--config", str(preset)])
        for preset in sorted((ROOT / "presets").glob("*.json"))
        for command in COMMANDS
    ]
    configs = outdir / "configs"
    configs.mkdir(parents=True)
    for name, doc in ELLIPSE_SWEEPS.items():
        path = configs / (name + ".json")
        path.write_text(json.dumps(doc, indent=2) + "\n")
        runs.append(("%s-sweep" % name, ["sweep", "--config", str(path)]))
    runs += [("validate-%s" % group, ["validate", "--only", group]) for group in GROUPS]
    for threads in THREADS:
        base = outdir / ("threads-%d" % threads)
        for name, args in runs:
            code = record(base / name, args, threads)
            print("%-50s exit %d" % ("%s/%s" % (base.name, name), code))
        code = _run(base / "hashes", [__file__, "--hashes"], threads)
        print("%-50s exit %d" % ("%s/hashes" % base.name, code))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            name = "demo-%s" % demo.stem
            code = _run(base / name, [str(demo)], threads)
            print("%-50s exit %d" % ("%s/%s" % (base.name, name), code))
    return thread_gaps(*(outdir / ("threads-%d" % threads) for threads in THREADS))


def thread_gaps(a_dir, b_dir):
    """Print each file whose bytes differ between a_dir and b_dir, or that is in one only; 1 if any."""
    files = [
        {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        for root in (a_dir, b_dir)
    ]
    names = sorted(files[0].keys() | files[1].keys())
    differ = [name for name in names if files[0].get(name) != files[1].get(name)]
    for name in differ:
        print("differs between %s and %s: %s" % (a_dir.name, b_dir.name, name))
    print("%d files, %d differ between %s and %s" % (len(names), len(differ), a_dir.name, b_dir.name))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
