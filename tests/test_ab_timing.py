"""tests/ab_timing.py runs perfbench's workloads on two trees and fails on a one-bit difference."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab_timing(a_src, b_src):
    argv = [sys.executable, str(ROOT / "tests" / "ab_timing.py"), str(a_src), str(b_src)]
    argv += ["--rounds", "1", "--ops", "circle-dft"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_ab_timing_passes_a_tree_against_itself():
    done = _ab_timing(ROOT / "src", ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[1].startswith("circle-dft ")
    assert "FAILED" not in done.stdout


def test_ab_timing_names_the_workload_whose_fields_moved_by_one_bit(tmp_path):
    shutil.copytree(
        ROOT / "src" / "cylwave",
        tmp_path / "cylwave",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    fields = tmp_path / "cylwave" / "fields.py"
    text = fields.read_text()
    # one angle's mode sum, which every circle-dft field runs, scaled by the
    # next float above 1
    old = "return np.exp(i_orders * math.remainder(phi, _TWO_PI)) @ c"
    assert text.count(old) == 1
    fields.write_text(text.replace(old, "return (1.0 + 2.0**-52) * (%s)" % old[len("return "):]))
    done = _ab_timing(ROOT / "src", tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED circle-dft: " in done.stdout
    assert "digests differ" in done.stdout
