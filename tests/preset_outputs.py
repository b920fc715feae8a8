"""Record everything the CLI produces on the presets, for byte comparison.

Usage::

    python tests/preset_outputs.py OUTDIR

Runs every preset under ``presets/`` through ``solve``, ``fields`` and
``sweep`` (a command that a preset does not support is recorded too, with
its error and exit code), then ``sweep`` on the configs of ELLIPSE_SWEEPS,
which it writes to ``OUTDIR/configs/`` (no preset sweeps a non-circular
boundary at more than one N), then ``validate --only GROUP --out`` for each
acceptance group, then every script under ``demos/``, once with
``OPENBLAS_NUM_THREADS=1`` into ``OUTDIR/threads-1/`` and once with
``OPENBLAS_NUM_THREADS=2`` into ``OUTDIR/threads-2/`` (dense-path outputs
depend on the BLAS thread count). Each run gets a fresh interpreter that
imports cylwave from this checkout's ``src`` and its own directory there,
holding:

- ``out/``: the files the command wrote (CLI runs only);
- ``stdout``, ``stderr`` and ``exit_code``, with the output path replaced
  by ``OUT`` so that two OUTDIRs can be compared.

Run it in two checkouts, then ``diff -r A B``. This file is a tool, not a
test; pytest does not collect it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("solve", "fields", "sweep")
GROUPS = ("specfun", "exact", "discrete", "concordance")


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


def main(argv):
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
        for demo in sorted((ROOT / "demos").glob("*.py")):
            name = "demo-%s" % demo.stem
            code = _run(base / name, [str(demo)], threads)
            print("%-50s exit %d" % ("%s/%s" % (base.name, name), code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
