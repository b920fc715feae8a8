"""tests/preset_outputs.py --hashes runs from the repo root with no PYTHONPATH set."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_hashes_import_this_checkouts_cylwave_without_pythonpath():
    # used to: ModuleNotFoundError: No module named 'cylwave' unless PYTHONPATH=src
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "preset_outputs.py"), "--hashes"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # seven digests (or one error line) per preset, route and N
    assert len(done.stdout.splitlines()) == 168
